#!/usr/bin/env python3
"""Benchmark of the repro compressor at its two user boundaries.

    python3 perfbench/run.py --workload lib-huffman --seed 1 --seconds 30 --trace 0

Workloads: ``lib-huffman``, ``lib-rle`` (library calls), ``blocks-process``
(engine with process workers) and ``service`` (HTTP server).  The program
is imported from this checkout's ``src/``; a checkout without
``src/repro`` fails with exit code 2.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics and writes the spans to
``perfbench-out/traces/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

#: Set-up is timed from here, right after the interpreter's start-up and
#: these few standard-library imports.
T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("lib-huffman", "lib-rle", "blocks-process", "service")

END_TO_END = (
    "setup_s", "compress_MBps", "decompress_MBps", "compression_ratio", "peak_rss_MB",
)

PER_LAYER = (
    "core.quantize.MBps", "core.quantize.peak_MB", "core.select.ms",
    "core.scatter.MBps", "core.reconstruct.MBps", "core.verify.MBps",
    "core.compress.glue_ms", "core.decompress.glue_ms",
    "encoding.histogram.MBps", "encoding.codebook.ms",
    "encoding.huffman_encode.MBps", "encoding.huffman_encode.peak_MB",
    "encoding.decode_table.ms", "encoding.huffman_decode.MBps",
    "encoding.rle_encode.MBps", "encoding.rle_decode.MBps",
    "encoding.bits_per_symbol",
    "engine.start_s", "engine.dispatch_ms", "engine.handoff_ms",
    "engine.worker_busy_frac", "engine.submit_wait_s", "engine.worker_wait_s",
    "engine.cache_hit_ratio", "engine.speedup",
    "server.start_s", "server.healthz_ms", "server.overhead_ms",
    "server.transfer_ms", "server.client_queue_ms", "loadgen.late_ms",
    "telemetry.overhead_ms", "host.memcpy_GBps",
    "core.quantize.bw_frac", "core.reconstruct.bw_frac",
    "encoding.huffman_encode.bw_frac", "encoding.huffman_decode.bw_frac",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _interrupt(signum, frame):  # noqa: ARG001 -- signal handler shape
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    args = parse_args(argv)
    from common import OUT, SRC, Tracer, emit, log, metric, write_record

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"error: {SRC} holds no repro package; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    # Temporary files, multiprocessing's forkserver socket among them, stay
    # inside the checkout unless that would push the socket's path past the
    # 107-byte limit of a Unix socket address.
    tmp = os.path.join(OUT, "t")
    if len(tmp) + len("/pymp-12345678/listener-12345678") < 100:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
    # Runs that end on SIGTERM still unwind, so every finally stops its
    # server or engine and waits for it.
    signal.signal(signal.SIGTERM, _interrupt)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    data_dir = os.path.join(OUT, "inputs", f"{name}-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    tracer = Tracer(bool(args.trace))
    if args.workload == "service":
        import service as mod
    elif args.workload == "blocks-process":
        import blocks as mod
    else:
        import lib as mod
    # Start-up up to here (the interpreter's imports, numpy among them)
    # counts as set-up; generating the inputs below does not.
    boot_s = time.perf_counter() - T_START
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), args.workload,
             str(args.seed), str(args.seconds), data_dir],
            check=True, timeout=600,
        )
        result = mod.run(args, tracer, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    result["end_to_end"]["setup_s"] = metric(boot_s + result["setup_after_inputs_s"], "s")

    if args.trace:
        import layers

        per_layer = dict(result["layers"])
        per_layer["host.memcpy_GBps"] = metric(layers.memcpy_probe(tracer), "GB/s")
        per_layer.update(layers.bandwidth_fractions(per_layer, per_layer["host.memcpy_GBps"]["value"]))
        result["layers"] = per_layer
        tracer.write(os.path.join(OUT, "traces", name + ".json"))
        metrics = {k: per_layer[k] for k in PER_LAYER}
    else:
        # Every end-to-end metric, then any the workload adds (``service``:
        # request latency).
        metrics = {k: result["end_to_end"][k] for k in END_TO_END}
        metrics.update(result["end_to_end"])
    write_record(name, result)
    for msg in result.get("errors", []) + result.get("check_failures", []):
        log(msg)
    emit(result["correct"], result["attempted"], result["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())

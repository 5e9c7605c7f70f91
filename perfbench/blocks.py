"""The ``blocks-process`` workload.

One long-lived ``CompressionEngine`` with the process backend and one
worker per core compresses a 64 MiB 3D field with ``compress_blocks`` into
4 MiB blocks and restores it with ``decompress``.  Whole rounds repeat
until ``--seconds`` have passed.  The serial-backend container the engine's
output must equal is computed once, before timing, in the input process.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import inputs
from checks import CheckFailed, abs_bound, check_restored, check_same_bytes
from common import MB, SRC, PeakTracker, median, metric, nproc, steal_s


def prepare(seed: int, dirpath: str) -> None:
    sys.path.insert(0, SRC)
    from repro import compress_blocks

    x = inputs.blocks_field(inputs.BLOCKS_SHAPE, seed)
    np.save(os.path.join(dirpath, "field.npy"), x)
    ref = compress_blocks(
        x, max_block_bytes=inputs.BLOCKS_BLOCK_BYTES, eb=inputs.BLOCKS_EB, backend="serial"
    )
    with open(os.path.join(dirpath, "serial.bin"), "wb") as fh:
        fh.write(ref)


def run(args, tracer, data_dir: str) -> dict:
    x = np.load(os.path.join(data_dir, "field.npy"))
    with open(os.path.join(data_dir, "serial.bin"), "rb") as fh:
        reference = fh.read()
    bound = abs_bound(x, inputs.BLOCKS_EB)
    t_setup = time.perf_counter()
    import repro

    import layers

    engine, _ = layers.start_engine(nproc())
    try:
        w = np.linspace(0.0, 1.0, 1 << 16, dtype=np.float32).reshape(64, 32, 32)
        repro.decompress(
            repro.compress_blocks(w, max_block_bytes=1 << 16, eb=1e-3, backend=engine),
            backend=engine,
        )
        setup_s = time.perf_counter() - t_setup
        peak = PeakTracker()
        peak.add()
        for pid in layers.worker_pids(engine):
            peak.add(pid)
        loop = _loop(repro, engine, x, reference, bound, args.seconds, tracer)
        peak_mb = peak.peak_bytes() / MB
    finally:
        engine.shutdown(wait=True)
        layers.stop_mp_helpers()
    result = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "errors": loop["errors"],
        "check_failures": loop["check_failures"],
        "correct": not loop["check_failures"],
        "rounds": loop["rounds"],
        "per_round": loop["per_round"],
        "setup_after_inputs_s": setup_s,
        "compress_MBps_median": loop["compress_MBps_median"],
        "decompress_MBps_median": loop["decompress_MBps_median"],
        "timed_s": loop["timed_s"],
        "steal_s": loop["steal_s"],
        "end_to_end": {
            "compress_MBps": metric(loop["compress_MBps"], "MB/s"),
            "decompress_MBps": metric(loop["decompress_MBps"], "MB/s"),
            "compression_ratio": metric(x.nbytes / len(reference), "ratio"),
            "peak_rss_MB": metric(peak_mb, "MB"),
        },
    }
    if args.trace:
        import service

        try:
            per_layer = layers.engine_probe([("blocks_3d", x, inputs.BLOCKS_EB)], tracer)
        finally:
            layers.stop_mp_helpers()
        # Constant background blocks have no range for a relative bound of
        # their own; the per-block probes take the varied ones.
        varied = [(f"block{k}", b, inputs.BLOCKS_EB) for k, b in _blocks(x) if np.ptp(b) > 0]
        per_layer.update(layers.pipeline_probe(varied[::2], tracer, reps=1)["metrics"])
        per_layer.update(service.server_probe(varied[::4], tracer, reps=1))
        result["layers"] = per_layer
    return result


def _blocks(x: np.ndarray) -> list[tuple[int, np.ndarray]]:
    rows = max(inputs.BLOCKS_BLOCK_BYTES // (x.nbytes // x.shape[0]), 1)
    return [(k, x[lo : lo + rows]) for k, lo in enumerate(range(0, x.shape[0], rows))]


def _loop(repro, engine, x, reference, bound, seconds, tracer) -> dict:
    rounds = []
    attempted = failed = 0
    errors: set[str] = set()
    wrong: list[str] = []
    steal0 = steal_s()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while len(rounds) < 2 or time.perf_counter() < t_end:
        trace = f"round{len(rounds)}"
        attempted += 2
        try:
            with tracer.span("compress_blocks", trace):
                t = time.perf_counter()
                blob = repro.compress_blocks(
                    x, max_block_bytes=inputs.BLOCKS_BLOCK_BYTES, eb=inputs.BLOCKS_EB,
                    backend=engine,
                )
                tc = time.perf_counter() - t
            with tracer.span("decompress", trace):
                t = time.perf_counter()
                restored = repro.decompress(blob, backend=engine)
                td = time.perf_counter() - t
        except Exception as exc:  # noqa: BLE001 -- counted, not fatal
            failed += 2
            errors.add(f"{type(exc).__name__}: {exc}")
            rounds.append(None)
            continue
        rounds.append((x.nbytes / MB / tc, x.nbytes / MB / td))
        try:
            check_same_bytes(blob, reference, "engine container vs serial")
            check_restored(x, restored, bound)
        except CheckFailed as exc:
            wrong.append(str(exc))
        del restored, blob
    # The first round also pays first-touch page faults; set-up covers it.
    ok = [r for r in rounds[1:] if r is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(errors),
        "check_failures": wrong[:10],
        "rounds": len(rounds),
        "compress_MBps": max(r[0] for r in ok),
        "decompress_MBps": max(r[1] for r in ok),
        "compress_MBps_median": median([r[0] for r in ok]),
        "decompress_MBps_median": median([r[1] for r in ok]),
        "timed_s": time.perf_counter() - t_start,
        "steal_s": steal_s() - steal0,
        "per_round": rounds,
    }

"""The library workloads: ``lib-huffman`` and ``lib-rle``.

A closed loop of serial ``repro.compress`` then ``repro.decompress`` calls,
no engine.  A round compresses and restores every field once; the run
repeats whole rounds until ``--seconds`` have passed.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import inputs
from checks import CheckFailed, abs_bound, check_restored, check_same_bytes
from common import MB, PeakTracker, median, metric, steal_s, timed_less_steal


def prepare(workload: str, seed: int, dirpath: str) -> None:
    fields = inputs.library_fields(workload, seed)
    meta = {}
    for name, (x, eb) in fields.items():
        np.save(os.path.join(dirpath, name + ".npy"), x)
        meta[name] = eb
    with open(os.path.join(dirpath, "fields.json"), "w") as fh:
        json.dump(meta, fh)


def load_fields(dirpath: str) -> list[tuple[str, np.ndarray, float]]:
    with open(os.path.join(dirpath, "fields.json")) as fh:
        meta = json.load(fh)
    return [(name, np.load(os.path.join(dirpath, name + ".npy")), eb) for name, eb in meta.items()]


def warm_field() -> np.ndarray:
    return np.linspace(0.0, 1.0, 32 * 32 * 32, dtype=np.float32).reshape(32, 32, 32)


def closed_loop(repro, fields, bounds, seconds: float, tracer) -> dict:
    """Whole rounds of compress-then-decompress over every field.

    Each call is timed by :func:`common.timed_less_steal`: wall time less the
    hypervisor's steal.  The throughputs are those of the fastest round
    (see the README); the record keeps plain wall time and the median
    round beside them.
    """
    first: dict[str, bytes] = {}
    rounds: list[dict] = []
    attempted = failed = 0
    errors: set[str] = set()
    wrong: list[str] = []
    field_bytes = archive_bytes = 0
    steal0 = steal_s()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while len(rounds) < 2 or time.perf_counter() < t_end:
        rnd = {"bytes": 0, "c_s": 0.0, "d_s": 0.0, "c_wall_s": 0.0, "d_wall_s": 0.0}
        trace_round = len(rounds)
        for name, x, eb in fields:
            trace = f"{name}@{trace_round}"
            attempted += 2
            try:
                with tracer.span("compress", trace):
                    res, c_s, c_wall = timed_less_steal(repro.compress, x, eb=eb)
                archive = res.archive
            except Exception as exc:  # noqa: BLE001 -- counted, not fatal
                failed += 2
                errors.add(f"compress {name}: {type(exc).__name__}: {exc}")
                continue
            field_bytes += x.nbytes
            archive_bytes += len(archive)
            # The same field must compress to the same bytes every time.
            try:
                check_same_bytes(archive, first.setdefault(name, archive), f"{name} recompressed")
            except CheckFailed as exc:
                wrong.append(str(exc))
            try:
                with tracer.span("decompress", trace):
                    restored, d_s, d_wall = timed_less_steal(repro.decompress, archive)
            except Exception as exc:  # noqa: BLE001
                failed += 1
                errors.add(f"decompress {name}: {type(exc).__name__}: {exc}")
                continue
            rnd["bytes"] += x.nbytes
            rnd["c_s"] += c_s
            rnd["d_s"] += d_s
            rnd["c_wall_s"] += c_wall
            rnd["d_wall_s"] += d_wall
            try:
                check_restored(x, restored, bounds[name])
            except CheckFailed as exc:
                wrong.append(f"{name}: {exc}")
            del restored, archive
        rounds.append(rnd)
    # The first round also pays first-touch page faults; set-up covers it.
    # Only rounds whose every field completed are comparable.
    whole = sum(x.nbytes for _, x, _ in fields)
    ok = [r for r in rounds[1:] if r["bytes"] == whole]

    def mbps(key: str, pick=max) -> float:
        return pick([r["bytes"] / MB / r[key] for r in ok])

    return {
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(errors),
        "check_failures": wrong[:10],
        "rounds": len(rounds),
        "compress_MBps": mbps("c_s"),
        "decompress_MBps": mbps("d_s"),
        "compress_MBps_wall": mbps("c_wall_s"),
        "decompress_MBps_wall": mbps("d_wall_s"),
        "compress_MBps_median": mbps("c_s", median),
        "decompress_MBps_median": mbps("d_s", median),
        "compression_ratio": field_bytes / archive_bytes,
        "timed_s": time.perf_counter() - t_start,
        "steal_s": steal_s() - steal0,
        "per_round": rounds,
    }


def run(args, tracer, data_dir: str) -> dict:
    fields = load_fields(data_dir)
    bounds = {name: abs_bound(x, eb) for name, x, eb in fields}
    t_setup = time.perf_counter()
    import repro

    w = warm_field()
    repro.decompress(repro.compress(w, eb=1e-3).archive)
    setup_s = time.perf_counter() - t_setup
    peak = PeakTracker()
    peak.add()
    loop = closed_loop(repro, fields, bounds, args.seconds, tracer)
    peak_mb = peak.peak_bytes() / MB
    result = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "errors": loop["errors"],
        "check_failures": loop["check_failures"],
        "correct": not loop["check_failures"],
        "rounds": loop["rounds"],
        "per_round": loop["per_round"],
        "setup_after_inputs_s": setup_s,
        "compress_MBps_wall": loop["compress_MBps_wall"],
        "decompress_MBps_wall": loop["decompress_MBps_wall"],
        "compress_MBps_median": loop["compress_MBps_median"],
        "decompress_MBps_median": loop["decompress_MBps_median"],
        "timed_s": loop["timed_s"],
        "steal_s": loop["steal_s"],
        "end_to_end": {
            "compress_MBps": metric(loop["compress_MBps"], "MB/s"),
            "decompress_MBps": metric(loop["decompress_MBps"], "MB/s"),
            "compression_ratio": metric(loop["compression_ratio"], "ratio"),
            "peak_rss_MB": metric(peak_mb, "MB"),
        },
    }
    if args.trace:
        import layers
        import service

        pipe = layers.pipeline_probe(fields, tracer)
        per_layer = dict(pipe["metrics"])
        try:
            per_layer.update(layers.engine_probe(fields, tracer))
        finally:
            layers.stop_mp_helpers()
        per_layer.update(service.server_probe(fields, tracer))
        result["layers"] = per_layer
        result["fields"] = pipe["fields"]
    return result

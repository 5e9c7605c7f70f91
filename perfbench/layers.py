"""Per-layer probes of the traced run.

Each probe times the public functions of one layer from outside, on the
workload's own inputs, inside a benchmark span.  The pipeline probe also
re-checks every intermediate result: decoded codes against the quantized
ones, coded bits against the entropy floor and the decomposed
reconstruction against the error bound.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from checks import (
    abs_bound,
    check_codes,
    check_entropy_floor,
    check_restored,
    check_same_bytes,
)
from common import MB, median, metric, nproc, timed

MEMCPY_BYTES = 256 << 20


class Acc:
    """Field bytes and seconds per stage, plus per-call samples."""

    def __init__(self) -> None:
        self.bytes: dict[str, float] = {}
        self.secs: dict[str, float] = {}
        self.calls: dict[str, list[float]] = {}

    def add(self, stage: str, nbytes: float, seconds: float) -> None:
        self.bytes[stage] = self.bytes.get(stage, 0.0) + nbytes
        self.secs[stage] = self.secs.get(stage, 0.0) + seconds
        self.calls.setdefault(stage, []).append(seconds)

    def mbps(self, stage: str) -> float:
        return self.bytes[stage] / MB / self.secs[stage]

    def p50_ms(self, stage: str) -> float:
        return median(self.calls[stage]) * 1e3


def _traced_peak(fn, *args, **kwargs) -> float:
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def memcpy_probe(tracer) -> float:
    """``np.copyto`` bandwidth on a ``MEMCPY_BYTES`` buffer, GB/s (best of 5)."""
    with tracer.span("host.memcpy"):
        src = np.ones(MEMCPY_BYTES // 8)
        dst = np.empty_like(src)
        best = min(timed(np.copyto, dst, src)[1] for _ in range(5))
        del src, dst
    return MEMCPY_BYTES / best / 1e9


def pipeline_probe(fields, tracer, reps: int = 3) -> dict:
    """Run each field through the layer functions one by one.

    ``fields`` is a list of ``(name, array, eb_rel)``.  With more than one
    repetition the first only warms the allocator and caches and is not
    counted.  Returns the core and encoding metrics (without the memcpy
    fractions).
    """
    import repro
    from repro.core.config import CompressorConfig
    from repro.core.dual_quant import fuse_quant_and_outliers, quantize_field
    from repro.core.integrity import verify_archive
    from repro.core.lorenzo import lorenzo_reconstruct
    from repro.core.selector import select_workflow
    from repro.encoding import huffman_codec
    from repro.encoding.histogram import histogram
    from repro.encoding.huffman import build_codebook, build_decode_table
    from repro.encoding.rle import RunLengthEncoded, rle_decode, rle_encode

    acc = Acc()
    glue_c: list[float] = []
    glue_d: list[float] = []
    tel_over: list[float] = []
    quant_peak: list[float] = []
    enc_peak: list[float] = []
    coded_bits = 0
    n_codes = 0
    details = {}
    for name, x, eb in fields:
        cfg = CompressorConfig(eb=eb)
        nbytes = float(x.nbytes)
        bound = abs_bound(x, eb)
        nan = np.isnan(x)
        data = x
        if nan.any():
            # compress() fills NaNs with the finite mean before quantizing.
            data = np.where(nan, np.asarray(float(x[~nan].mean()), dtype=x.dtype), x)
        for rep in range(reps):
            trace = f"{name}#{rep}"

            counted = reps == 1 or rep > 0

            def stage(label, fn, *args, **kwargs):
                with tracer.span(label, trace):
                    out, sec = timed(fn, *args, **kwargs)
                if counted:
                    acc.add(label, nbytes, sec)
                return out, sec

            with tracer.span("pipeline", trace):
                (bundle, _), t_q = stage("core.quantize", quantize_field, data, cfg)
                flat = bundle.quant.reshape(-1)
                freqs, t_h = stage("encoding.histogram", histogram, flat, cfg.dict_size)
                diag, t_s = stage("core.select", select_workflow, bundle.quant, freqs, cfg)
                if diag.decision in ("huffman", "huffman+lz"):
                    stream, sfreqs = flat, freqs
                    t_rle = 0.0
                else:
                    rle, t_rle = stage(
                        "encoding.rle_encode", rle_encode, flat,
                        length_dtype=np.dtype(cfg.rle_length_dtype),
                    )
                    stream = rle.values
                    sfreqs, t_vh = stage("encoding.histogram", histogram, stream, cfg.dict_size)
                    t_rle += t_vh
                book, t_b = stage("encoding.codebook", build_codebook, sfreqs)
                enc, t_e = stage(
                    "encoding.huffman_encode", huffman_codec.encode,
                    stream, book, cfg.huffman_chunk, aligned=True,
                )
                table, t_t = stage("encoding.decode_table", build_decode_table, book)
                dec, t_d = stage(
                    "encoding.huffman_decode", huffman_codec.decode,
                    enc, book, out_dtype=stream.dtype, table=table,
                )
                check_codes(dec, stream, f"{name} Huffman")
                bps = check_entropy_floor(enc.total_bits, stream.size, sfreqs)
                if stream is flat:
                    restored_codes, t_rd = dec, 0.0
                    field_bits = enc.total_bits
                else:
                    restored_codes, t_rd = stage(
                        "encoding.rle_decode", rle_decode,
                        RunLengthEncoded(dec, rle.lengths, flat.size), out_dtype=flat.dtype,
                    )
                    field_bits = enc.total_bits + rle.lengths.nbytes * 8
                check_codes(restored_codes, flat, f"{name} quant")
                fused, t_f = stage(
                    "core.scatter", fuse_quant_and_outliers, restored_codes,
                    bundle.outlier_indices, bundle.outlier_values, bundle.radius,
                )
                dq, t_r = stage(
                    "core.reconstruct", lorenzo_reconstruct,
                    fused.reshape(bundle.shape), bundle.chunks,
                )
                y = (dq.astype(np.float64) * bundle.eb_twice).astype(x.dtype)
                y[nan] = np.nan
                check_restored(x, y, bound)
                del fused, dq, y

                with tracer.span("core.compress", trace):
                    result, t_c = timed(repro.compress, x, cfg)
                with tracer.span("core.decompress", trace):
                    restored, t_dc = timed(repro.decompress, result.archive)
                check_restored(x, restored, bound)
                del restored
                if counted:
                    glue_c.append(t_c - (t_q + t_h + t_s + t_rle + t_b + t_e))
                    glue_d.append(t_dc - (t_t + t_d + t_rd + t_f + t_r))
                stage("core.verify", verify_archive, result.archive, deep=True)
            if rep == 0:
                # Paired calls in both orders, so warm-up favours neither side.
                for pair in range(2):
                    sides = {}
                    for telemetry in ((None, False) if pair == 0 else (False, None)):
                        with tracer.span(f"core.compress.telemetry_{telemetry}", trace):
                            _, sides[telemetry] = timed(repro.compress, x, cfg, telemetry=telemetry)
                    tel_over.append(sides[None] - sides[False])
                coded_bits += field_bits
                n_codes += flat.size
                quant_peak.append(_traced_peak(quantize_field, data, cfg))
                enc_peak.append(_traced_peak(
                    huffman_codec.encode, stream, book, cfg.huffman_chunk, aligned=True
                ))
                details[name] = {
                    "workflow": diag.decision,
                    "huffman_chunks": int(enc.chunk_bits.size),
                    "coded_stream_symbols": int(stream.size),
                    "bits_per_coded_symbol": bps,
                }
    metrics = {
        "core.quantize.MBps": metric(acc.mbps("core.quantize"), "MB/s"),
        "core.quantize.peak_MB": metric(max(quant_peak), "MB"),
        "core.select.ms": metric(acc.p50_ms("core.select"), "ms"),
        "core.scatter.MBps": metric(acc.mbps("core.scatter"), "MB/s"),
        "core.reconstruct.MBps": metric(acc.mbps("core.reconstruct"), "MB/s"),
        "core.verify.MBps": metric(acc.mbps("core.verify"), "MB/s"),
        "core.compress.glue_ms": metric(median(glue_c) * 1e3, "ms"),
        "core.decompress.glue_ms": metric(median(glue_d) * 1e3, "ms"),
        "encoding.histogram.MBps": metric(acc.mbps("encoding.histogram"), "MB/s"),
        "encoding.codebook.ms": metric(acc.p50_ms("encoding.codebook"), "ms"),
        "encoding.huffman_encode.MBps": metric(acc.mbps("encoding.huffman_encode"), "MB/s"),
        "encoding.huffman_encode.peak_MB": metric(max(enc_peak), "MB"),
        "encoding.decode_table.ms": metric(acc.p50_ms("encoding.decode_table"), "ms"),
        "encoding.huffman_decode.MBps": metric(acc.mbps("encoding.huffman_decode"), "MB/s"),
        "encoding.bits_per_symbol": metric(coded_bits / n_codes, "bits"),
        "telemetry.overhead_ms": metric(median(tel_over) * 1e3, "ms"),
    }
    if "encoding.rle_encode" not in acc.secs:
        # Fields on Workflow-Huffman never call the RLE coder; run it on
        # their quant codes so the metric exists on every workload.
        for name, x, eb in fields:
            bundle, _ = quantize_field(np.nan_to_num(x), CompressorConfig(eb=eb))
            flat = bundle.quant.reshape(-1)
            with tracer.span("encoding.rle", name):
                rle, t_e = timed(rle_encode, flat)
                _, t_d = timed(rle_decode, rle, out_dtype=flat.dtype)
            acc.add("encoding.rle_encode", float(x.nbytes), t_e)
            acc.add("encoding.rle_decode", float(x.nbytes), t_d)
    metrics["encoding.rle_encode.MBps"] = metric(acc.mbps("encoding.rle_encode"), "MB/s")
    metrics["encoding.rle_decode.MBps"] = metric(acc.mbps("encoding.rle_decode"), "MB/s")
    return {"metrics": metrics, "fields": details}


def bandwidth_fractions(metrics: dict, memcpy_gbps: float) -> dict:
    out = {}
    for stage in ("core.quantize", "core.reconstruct",
                  "encoding.huffman_encode", "encoding.huffman_decode"):
        gbps = metrics[f"{stage}.MBps"]["value"] / 1e3
        out[f"{stage}.bw_frac"] = metric(gbps / memcpy_gbps, "ratio")
    return out


# -- engine -------------------------------------------------------------------


def start_engine(jobs: int):
    """A process-backend engine, warmed until every worker has answered.

    Returns ``(engine, seconds)``.
    """
    from repro import CompressionEngine

    t = time.perf_counter()
    engine = CompressionEngine(jobs=jobs, backend="process")
    try:
        warm = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(64, 64)
        for _ in range(20):
            futures = [engine.submit(warm, eb=1e-3) for _ in range(jobs)]
            for f in futures:
                f.result()
            if len(engine.worker_stats()) >= jobs:
                break
        else:
            raise RuntimeError("engine workers did not all answer the warm-up")
    except BaseException:
        engine.shutdown(wait=True)
        raise
    return engine, time.perf_counter() - t


def worker_pids(engine) -> list[int]:
    return sorted(engine.worker_stats())


def stop_mp_helpers() -> None:
    """Stop and reap multiprocessing's forkserver and resource tracker.

    Both outlive every pool and would otherwise exit only with this process.
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def engine_probe(fields, tracer, block_bytes: int = 4 << 20, rounds: int = 2) -> dict:
    """Engine start, dispatch, hand-off, utilisation, cache and speed-up.

    ``fields`` is a list of ``(name, array, eb_rel)``.  Starts a fresh
    process-backend engine with one worker per core, so the cache hit ratio
    is that of a first pass over the fields: hits come from blocks and
    fields that share a quant-code distribution, not from repeats.
    """
    import repro
    from repro.core.streaming import compress_blocks

    with tracer.span("engine.start"):
        engine, start_s = start_engine(nproc())
    try:
        jobs = engine.jobs
        with tracer.span("engine.dispatch"):
            trips = []
            for _ in range(60):
                _, sec = timed(lambda: engine.run(os.getpid).result())
                trips.append(sec)
        handoff = []
        for name, x, eb in fields:
            row = max(x.nbytes // x.shape[0], 1)
            rows = max(block_bytes // row, 1)
            mid = max(x.shape[0] - rows, 0) // 2
            block = np.ascontiguousarray(x[mid : mid + rows])
            for _ in range(3):
                with tracer.span("engine.submit", name):
                    _, t_eng = timed(lambda: engine.submit(block, eb=eb).result())
                _, t_local = timed(repro.compress, block, eb=eb)
                handoff.append(t_eng - t_local)
        serial = engine_t = 0.0
        snap0 = engine.diagnostics_snapshot()
        for r in range(rounds):
            for name, x, eb in fields:
                with tracer.span("compress_blocks.serial", name):
                    ref, t_s = timed(compress_blocks, x, max_block_bytes=block_bytes,
                                     eb=eb, backend="serial")
                with tracer.span("compress_blocks.engine", name):
                    blob, t_e = timed(compress_blocks, x, max_block_bytes=block_bytes,
                                      eb=eb, backend=engine)
                check_same_bytes(blob, ref, f"{name} engine container vs serial")
                serial += t_s
                engine_t += t_e
            if r == 0:
                first = engine.diagnostics_snapshot()["cache"]
        snap1 = engine.diagnostics_snapshot()
    finally:
        engine.shutdown(wait=True)
    busy = snap1["worker_wall_seconds"] - snap0["worker_wall_seconds"]
    hits = first["hits"] - snap0["cache"]["hits"]
    lookups = hits + first["misses"] - snap0["cache"]["misses"]
    return {
        "engine.start_s": metric(start_s, "s"),
        "engine.dispatch_ms": metric(median(trips) * 1e3, "ms"),
        "engine.handoff_ms": metric(median(handoff) * 1e3, "ms"),
        "engine.worker_busy_frac": metric(busy / (jobs * engine_t), "ratio"),
        "engine.submit_wait_s": metric(
            snap1["submit_wait_seconds"] - snap0["submit_wait_seconds"], "s"),
        "engine.worker_wait_s": metric(
            snap1["worker_wait_seconds"] - snap0["worker_wait_seconds"], "s"),
        "engine.cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "engine.speedup": metric(serial / engine_t, "ratio"),
    }

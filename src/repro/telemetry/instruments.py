"""Predefined pipeline metrics and the stage-stats derivation helpers.

Metric names follow Prometheus conventions (``repro_`` namespace, ``_total``
suffix on counters, base-unit ``_seconds``/``_bytes``):

* ``repro_compress_calls_total`` / ``repro_decompress_calls_total``
* ``repro_compress_input_bytes_total`` -- raw bytes fed to :func:`repro.compress`
* ``repro_archive_bytes_total``       -- archive bytes produced
* ``repro_selector_decisions_total{workflow=...}``
* ``repro_selector_fastpath_total{workflow=...}`` -- forced-workflow
  short-circuits that skipped the O(n) selector estimation passes
* ``repro_integrity_failures_total{kind=...}`` -- detected archive
  corruption by failure class (framing, header_digest, section_checksum)
* ``repro_outliers_total``
* ``repro_selector_mispredict_total{kind=...}`` -- selector estimator
  mispredictions (actual coded bits outside the predicted R-/R+ bounds, or
  an RLE pick that coded worse than Huffman's predicted worst case)
* ``repro_stage_seconds{op=...,stage=...}`` -- per-stage latency histogram
* ``repro_kernel_simulated_seconds{kernel=...}`` -- GPU-model kernel times
* ``repro_kernel_elements_total{kernel=...}`` -- elements processed per
  simulated kernel (at profile scale ``n_sim``)
* ``repro_kernel_bytes_total{kernel=...,direction=...}`` -- DRAM bytes
  moved per simulated kernel (read/written)
* ``repro_last_compression_ratio`` (gauge)
* ``repro_experiment_seconds{experiment=...}`` (gauge, bench harness)
* ``repro_engine_jobs_total`` -- compression jobs completed by the parallel
  engine's worker pool
* ``repro_engine_cache_hits_total`` / ``repro_engine_cache_misses_total`` --
  codebook and decode-table memo lookups made inside engine jobs (a hit
  skips a Huffman tree or decode-table build)
* ``repro_engine_queue_depth`` (gauge) -- engine jobs queued or running,
  bounded by the engine's ``max_inflight`` backpressure limit
* ``repro_engine_queue_depth_max`` (gauge) -- high-water mark of the queue
  depth, so ledger records and ``obs report`` can show saturation without
  sampling the live gauge
* ``repro_engine_submit_wait_seconds`` -- histogram of producer-side
  blocking on the ``max_inflight`` semaphore (backpressure wait)
* ``repro_engine_worker_seconds_total{kind=wall|cpu}`` -- wall vs
  thread-CPU seconds spent inside engine jobs; the gap is lock/GIL wait
* ``repro_ledger_records_total{op=...}`` -- run-ledger records appended
* ``repro_server_requests_total{endpoint=...,status=...}`` -- front-door
  HTTP requests served
* ``repro_server_request_seconds{endpoint=...}`` -- front-door request
  latency histogram
* ``repro_server_rejections_total{reason=quota|capacity}`` -- admission
  rejections (the 429 paths)
* ``repro_server_inflight`` (gauge) -- requests currently being served

Server instruments tick unconditionally (serving is observable even with
``REPRO_TELEMETRY=0``); everything is registered once in the process-global
registry, so the front door's ``/metrics`` endpoint and an in-process
:func:`~repro.telemetry.render_prometheus` render the same families
without double registration.
"""

from __future__ import annotations

from .context import enabled
from .fold import fold_spans
from .metrics import REGISTRY

__all__ = [
    "COMPRESS_CALLS",
    "DECOMPRESS_CALLS",
    "INPUT_BYTES",
    "ARCHIVE_BYTES",
    "SELECTOR_DECISIONS",
    "SELECTOR_FASTPATH",
    "SELECTOR_MISPREDICT",
    "INTEGRITY_FAILURES",
    "OUTLIERS",
    "STAGE_SECONDS",
    "KERNEL_SIM_SECONDS",
    "KERNEL_ELEMENTS",
    "KERNEL_BYTES",
    "LAST_RATIO",
    "EXPERIMENT_SECONDS",
    "ENGINE_JOBS",
    "ENGINE_CACHE_HITS",
    "ENGINE_CACHE_MISSES",
    "ENGINE_QUEUE_DEPTH",
    "ENGINE_QUEUE_DEPTH_MAX",
    "ENGINE_SUBMIT_WAIT",
    "ENGINE_WORKER_SECONDS",
    "LEDGER_RECORDS",
    "SERVER_REQUESTS",
    "SERVER_REQUEST_SECONDS",
    "SERVER_REJECTIONS",
    "SERVER_INFLIGHT",
    "stage_stats_from_span",
    "record_stage_metrics",
    "record_kernel_profile",
]

COMPRESS_CALLS = REGISTRY.counter(
    "repro_compress_calls_total", "Completed repro.compress calls")
DECOMPRESS_CALLS = REGISTRY.counter(
    "repro_decompress_calls_total", "Completed repro.decompress calls")
INPUT_BYTES = REGISTRY.counter(
    "repro_compress_input_bytes_total", "Raw bytes fed to the compressor")
ARCHIVE_BYTES = REGISTRY.counter(
    "repro_archive_bytes_total", "Archive bytes produced by the compressor")
SELECTOR_DECISIONS = REGISTRY.counter(
    "repro_selector_decisions_total", "Adaptive-workflow decisions by outcome")
SELECTOR_FASTPATH = REGISTRY.counter(
    "repro_selector_fastpath_total",
    "Forced-workflow selections that skipped the O(n) estimation passes")
INTEGRITY_FAILURES = REGISTRY.counter(
    "repro_integrity_failures_total",
    "Archive corruption detections by failure class")
OUTLIERS = REGISTRY.counter(
    "repro_outliers_total", "Out-of-dictionary-range compensation deltas stored")
SELECTOR_MISPREDICT = REGISTRY.counter(
    "repro_selector_mispredict_total",
    "Selector estimator mispredictions by kind (huffman_bounds, rle_regret)")
STAGE_SECONDS = REGISTRY.histogram(
    "repro_stage_seconds", "Wall seconds per pipeline stage")
KERNEL_SIM_SECONDS = REGISTRY.histogram(
    "repro_kernel_simulated_seconds",
    "Cost-model (simulated device) seconds per GPU kernel",
    buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0),
)
KERNEL_ELEMENTS = REGISTRY.counter(
    "repro_kernel_elements_total",
    "Elements processed per simulated GPU kernel (profile scale)")
KERNEL_BYTES = REGISTRY.counter(
    "repro_kernel_bytes_total",
    "DRAM bytes moved per simulated GPU kernel, by direction")
LAST_RATIO = REGISTRY.gauge(
    "repro_last_compression_ratio", "Compression ratio of the last compress call")
EXPERIMENT_SECONDS = REGISTRY.gauge(
    "repro_experiment_seconds", "Wall seconds of the last run per bench experiment")
ENGINE_JOBS = REGISTRY.counter(
    "repro_engine_jobs_total", "Compression jobs completed by the engine worker pool")
ENGINE_CACHE_HITS = REGISTRY.counter(
    "repro_engine_cache_hits_total",
    "Codebook/decode-table memo hits inside engine jobs (build skipped)")
ENGINE_CACHE_MISSES = REGISTRY.counter(
    "repro_engine_cache_misses_total",
    "Codebook/decode-table memo misses inside engine jobs (entry built and stored)")
ENGINE_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_engine_queue_depth",
    "Engine jobs currently queued or running (bounded by max_inflight)")
ENGINE_QUEUE_DEPTH_MAX = REGISTRY.gauge(
    "repro_engine_queue_depth_max",
    "High-water mark of the engine queue depth (saturation indicator)")
ENGINE_SUBMIT_WAIT = REGISTRY.histogram(
    "repro_engine_submit_wait_seconds",
    "Producer-side blocking on the engine's max_inflight semaphore",
    buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0),
)
ENGINE_WORKER_SECONDS = REGISTRY.counter(
    "repro_engine_worker_seconds_total",
    "Wall vs thread-CPU seconds inside engine jobs (gap = lock/GIL wait)")
LEDGER_RECORDS = REGISTRY.counter(
    "repro_ledger_records_total", "Run-ledger records appended, by operation")
SERVER_REQUESTS = REGISTRY.counter(
    "repro_server_requests_total",
    "HTTP requests served by the compression front door, by endpoint/status")
SERVER_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_server_request_seconds",
    "Front-door request latency (admission to last response byte)")
SERVER_REJECTIONS = REGISTRY.counter(
    "repro_server_rejections_total",
    "Requests rejected at admission (quota or capacity), by reason")
SERVER_INFLIGHT = REGISTRY.gauge(
    "repro_server_inflight", "Front-door requests currently being served")


def stage_stats_from_span(root) -> dict[str, float]:
    """Flatten a closed pipeline root span into ``stage_stats`` timing keys.

    ``root`` may also be its :func:`~.fold.fold_spans` result.  Each child
    stage becomes ``<name>_seconds``, its folded wall; the root itself
    becomes ``total_seconds``.  Returns ``{}`` for no-op spans (telemetry
    disabled), keeping the result dict free of bogus zeros.
    """
    folded = fold_spans(root)
    stats = {f"{p[1]}_seconds": st.wall for p, st in folded.items() if len(p) == 2}
    if folded:
        stats["total_seconds"] = next(iter(folded.values())).wall
    return stats


def record_kernel_profile(profile) -> None:
    """Feed one simulated-kernel cost profile into the per-kernel counters.

    ``profile`` is a :class:`repro.gpu.kernel.KernelProfile`; the element
    count comes from its ``elements`` tag (attached by the kernels through
    :func:`repro.kernels.common.tag_elements`) and the byte counters from
    its raw read/write traffic, so ``bytes / simulated seconds`` reproduces
    the cost model's GB/s per kernel.
    """
    if not enabled():
        return
    elements = int(profile.tags.get("elements", 0)) if profile.tags else 0
    if elements:
        KERNEL_ELEMENTS.inc(elements, kernel=profile.name)
    if profile.bytes_read:
        KERNEL_BYTES.inc(profile.bytes_read, kernel=profile.name, direction="read")
    if profile.bytes_written:
        KERNEL_BYTES.inc(profile.bytes_written, kernel=profile.name, direction="written")


def record_stage_metrics(root, op: str) -> None:
    """Feed a root span's (or fold's) stage walls into ``repro_stage_seconds``."""
    if not enabled():
        return
    for key, seconds in stage_stats_from_span(root).items():
        STAGE_SECONDS.observe(seconds, op=op, stage=key[: -len("_seconds")])

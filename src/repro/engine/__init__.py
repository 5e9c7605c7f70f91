"""Parallel batch/block compression engine (executor backends).

Public surface:

* :class:`CompressionEngine` -- submit/result futures with bounded in-flight
  backpressure and deterministic ordering, over a pluggable executor backend
  (``serial`` / ``thread`` / ``process``);
* :func:`get_executor` -- the single backend-resolution path (explicit arg >
  config ``backend`` field > ``REPRO_ENGINE_BACKEND`` env > ``thread``);
* :class:`ExecutorBackend` / :data:`BACKEND_NAMES` -- the backend protocol
  and the valid names;
* :func:`default_jobs` -- the worker count used when none is requested;
* :func:`run_scaling_sweep` / :func:`compare_backends` /
  :class:`ScalingReport` -- worker-count sweeps with per-point
  CPU-vs-lock-wait-vs-IPC breakdowns (``repro obs scaling``).

Codebooks and decode tables are shared through the process-wide memo in
:mod:`repro.encoding.huffman`, not through the engine; the engine only
accounts each job's memo hits and misses.
"""

from __future__ import annotations

from .backends import BACKEND_NAMES, ExecutorBackend, get_executor, resolve_backend_name
from .core import CompressionEngine, default_jobs
from .diagnostics import ScalingPoint, ScalingReport, compare_backends, run_scaling_sweep

__all__ = [
    "CompressionEngine",
    "default_jobs",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "get_executor",
    "resolve_backend_name",
    "ScalingPoint",
    "ScalingReport",
    "compare_backends",
    "run_scaling_sweep",
]

"""The parallel batch/block compression engine.

The paper's coarse-grained block scheme exists so independent blocks can be
processed concurrently; :class:`CompressionEngine` is the scheduler that
finally exploits it.  *How* jobs execute is pluggable
(:mod:`repro.engine.backends`): ``serial`` runs them inline, ``thread`` uses
a ``concurrent.futures`` thread pool (the hot numpy kernels release the GIL,
but the Python glue between them serializes), and ``process`` runs them in
worker processes fed through a shared-memory arena for true multi-core
scaling.

Guarantees (identical across backends):

* **submit/result future semantics** -- :meth:`submit` returns a
  ``concurrent.futures.Future`` resolving to a
  :class:`~repro.core.compressor.CompressionResult`;
* **bounded in-flight backpressure** -- at most ``max_inflight`` jobs are
  queued or running; further submits block the producer instead of buffering
  an unbounded batch in memory;
* **deterministic output ordering** -- :meth:`map`/:meth:`batch` return
  results in submission order, so a parallel multi-block container is
  byte-identical to the serial one;
* **one memo accounting path** -- every job looks codebooks and decode
  tables up in its process's memo
  (:func:`~repro.encoding.huffman.codebook_for`,
  :func:`~repro.encoding.huffman.decode_table_for`); the hit/miss delta of
  each job, measured where it runs, folds into the engine's counters;
* **telemetry continuity** -- thread jobs run in a ``contextvars`` copy of
  the submitting context; process jobs re-apply the captured telemetry
  switch in the worker.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from ..core.compressor import CompressionResult, compress
from ..core.config import CompressorConfig
from ..core.errors import ConfigError
from ..encoding.huffman import memo_counts
from ..telemetry import instruments as ins
from ..telemetry.context import enabled as _tel_enabled
from .backends import make_backend, resolve_backend_name

__all__ = ["CompressionEngine", "default_jobs"]


def default_jobs() -> int:
    """Worker count used when none is requested (the machine's core count)."""
    return max(int(os.cpu_count() or 1), 1)


class CompressionEngine:
    """Schedules independent fields and blocks across a worker pool.

    >>> with CompressionEngine(jobs=4, backend="process") as eng:
    ...     futures = [eng.submit(block) for block in blocks]
    ...     results = [f.result() for f in futures]

    Parameters
    ----------
    config:
        Default :class:`CompressorConfig` bound to jobs that do not bring
        their own.
    jobs:
        Worker count; defaults to the machine's core count (``1`` for the
        serial backend).
    max_inflight:
        Backpressure bound on queued-plus-running jobs; defaults to
        ``2 * jobs``.  :meth:`submit` blocks once the bound is reached.
    backend:
        ``"serial"``, ``"thread"``, or ``"process"``; ``None`` resolves via
        the config's ``backend`` field, then the ``REPRO_ENGINE_BACKEND``
        environment variable, then ``"thread"``.
    """

    def __init__(
        self,
        config: CompressorConfig | None = None,
        jobs: int | None = None,
        max_inflight: int | None = None,
        backend: str | None = None,
    ) -> None:
        self.config = config or CompressorConfig()
        self.backend = resolve_backend_name(backend, self.config)
        if self.backend == "serial":
            if jobs is not None and int(jobs) > 1:
                raise ConfigError(
                    f"backend='serial' is single-worker; got jobs={jobs} "
                    "(pick 'thread' or 'process' for parallelism)"
                )
            self.jobs = 1
        else:
            self.jobs = int(jobs) if jobs else default_jobs()
        if self.jobs < 1:
            raise ConfigError(f"engine needs at least one worker, got {jobs}")
        self.max_inflight = int(max_inflight) if max_inflight else 2 * self.jobs
        if self.max_inflight < self.jobs:
            raise ConfigError(
                f"max_inflight ({self.max_inflight}) must be >= jobs ({self.jobs}); "
                "a smaller bound would idle workers permanently"
            )
        self._slots = threading.BoundedSemaphore(self.max_inflight)
        self._depth_lock = threading.Lock()
        self._depth = 0
        self._depth_max = 0
        self._submit_wait = 0.0
        # Per-worker accounting: worker id -> [wall_seconds, cpu_seconds,
        # jobs].  For the thread/serial backends the id is a thread ident and
        # CPU comes from the submitting process's time.thread_time; for the
        # process backend the id is the worker's pid and both numbers are
        # measured inside that worker (thread_time is per-process there).
        # The wall-vs-CPU gap is lock/GIL wait inside jobs -- the quantity
        # the scaling diagnostics exist to measure.
        self._worker_lock = threading.Lock()
        self._workers: dict[int, list] = {}
        self._memo = [0, 0]  # (hits, misses) summed over every job's delta
        # Queue-depth timeline: (perf_counter, depth) at every transition,
        # bounded so a long-lived engine cannot grow it without limit.
        self._depth_samples: deque[tuple[float, int]] = deque(maxlen=4096)
        self._closed = False
        self._backend = make_backend(self.backend, self, self.jobs)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "CompressionEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown(wait=exc == (None, None, None))
        return False

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) wait for in-flight ones.

        Always releases backend resources: the process backend's
        shared-memory segments are unlinked here, clean exit or not.
        """
        self._closed = True
        self._backend.shutdown(wait=wait)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Jobs currently queued or running (bounded by ``max_inflight``)."""
        with self._depth_lock:
            return self._depth

    def spare_capacity(self) -> int:
        """``max_inflight`` headroom right now (0 means :meth:`submit` would
        block).  The server's admission layer consults this so saturation
        becomes a 429 instead of a blocked event loop."""
        with self._depth_lock:
            return self.max_inflight - self._depth

    @property
    def queue_depth_max(self) -> int:
        """High-water mark of :attr:`queue_depth` over this engine's life."""
        with self._depth_lock:
            return self._depth_max

    @property
    def submit_wait_seconds(self) -> float:
        """Total producer time blocked on the ``max_inflight`` semaphore."""
        with self._depth_lock:
            return self._submit_wait

    def worker_stats(self) -> dict[int, dict]:
        """Per-worker accounting: wall/CPU seconds and job count.

        Keys are thread idents (serial/thread backends) or worker pids
        (process backend).
        """
        with self._worker_lock:
            return {
                tid: {"wall_seconds": w, "cpu_seconds": c, "jobs": n}
                for tid, (w, c, n) in self._workers.items()
            }

    def depth_timeline(self) -> list[tuple[float, int]]:
        """Recent (perf_counter, depth) transition samples, oldest first."""
        with self._depth_lock:
            return list(self._depth_samples)

    def diagnostics_snapshot(self) -> dict:
        """One JSON-serializable view of everything the engine measured.

        The scaling report (:mod:`repro.engine.diagnostics`) and the run
        ledger both consume this; keys are additive, never renamed.
        """
        workers = self.worker_stats()
        wall = sum(w["wall_seconds"] for w in workers.values())
        cpu = sum(w["cpu_seconds"] for w in workers.values())
        with self._worker_lock:
            hits, misses = self._memo
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "queue_depth_max": self.queue_depth_max,
            "submit_wait_seconds": self.submit_wait_seconds,
            "worker_wall_seconds": wall,
            "worker_cpu_seconds": cpu,
            "worker_wait_seconds": max(wall - cpu, 0.0),
            "n_worker_threads": len(workers),
            "jobs_completed": sum(w["jobs"] for w in workers.values()),
            "workers": [
                {"tid": tid, **stats} for tid, stats in sorted(workers.items())
            ],
            "cache": {"hits": hits, "misses": misses},
        }

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        data: np.ndarray,
        config: CompressorConfig | None = None,
        **overrides,
    ) -> "Future[CompressionResult]":
        """Schedule one compression job; blocks when the pool is saturated.

        The job runs :func:`repro.compress` on a worker.  Thread workers
        execute in a copy of the submitting context (so an open telemetry
        span in the caller becomes the parent of the worker's ``compress``
        span, and ``telemetry.scope`` overrides propagate); process workers
        re-apply the captured telemetry switch instead, and take the
        zero-copy shared-memory path for the field payload.
        """
        cfg = config or self.config
        if overrides:
            cfg = cfg.with_(**overrides)
        return self._schedule(compress, data, cfg)

    def run(self, fn, *args, **kwargs) -> "Future":
        """Schedule an arbitrary callable on the worker pool.

        The decode-side counterpart of :meth:`submit`, with the same
        backpressure, ordering, and accounting guarantees (decode tables a
        worker built for one chunk group or block are reused by the next
        through its process's memo).  ``decompress(jobs=...)`` uses
        this to fan chunk groups and blocks out across workers.  On the
        process backend the callable and its arguments must be picklable.
        """
        return self._schedule(fn, *args, **kwargs)

    def _schedule(self, fn, *args, **kwargs) -> "Future":
        if self._closed:
            raise ConfigError("engine is shut down; create a new CompressionEngine")
        # Backpressure: block the producer, not memory -- and account for
        # how long it blocked, the saturation signal the scaling report
        # and ledger surface.
        t0 = time.perf_counter()
        self._slots.acquire()
        waited = time.perf_counter() - t0
        with self._depth_lock:
            self._submit_wait += waited
        if _tel_enabled():
            ins.ENGINE_SUBMIT_WAIT.observe(waited)
        self._note_depth(+1)
        try:
            return self._backend.schedule(fn, args, kwargs)
        except BaseException:
            self._slots.release()
            self._note_depth(-1)
            raise

    def batch(
        self,
        fields,
        config: CompressorConfig | None = None,
        **overrides,
    ) -> "list[Future[CompressionResult]]":
        """Submit every field; futures are returned in submission order."""
        return [self.submit(field, config, **overrides) for field in fields]

    def map(
        self,
        fields,
        config: CompressorConfig | None = None,
        **overrides,
    ) -> list[CompressionResult]:
        """Compress every field, returning results in input order."""
        return [f.result() for f in self.batch(fields, config, **overrides)]

    # -- worker side --------------------------------------------------------

    def _call_in_ctx(self, fn, args, kwargs):
        # In-process job body (serial/thread backends).  The whole job --
        # including the completion accounting -- runs in the submit-time
        # context copy, so a caller's telemetry scope override governs the
        # engine counters too, not just the inner spans.
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        hits0, misses0 = memo_counts()
        try:
            return fn(*args, **kwargs)
        finally:
            hits, misses = memo_counts()
            self._finish_job(
                threading.get_ident(),
                time.perf_counter() - wall0,
                time.thread_time() - cpu0,
                (hits - hits0, misses - misses0),
                tel_on=_tel_enabled(),
            )

    def _finish_job(
        self,
        worker_id: int | None,
        wall: float,
        cpu: float,
        memo: tuple[int, int] = (0, 0),
        tel_on: bool = False,
    ) -> None:
        # Completion hook of every backend, run once per scheduled job: in
        # the job's own context for serial/thread jobs, on the pool's result
        # thread for process jobs (which has no submit-time context, so
        # telemetry intent was captured at submit as ``tel_on``).  ``memo``
        # is the job's (hits, misses) delta, measured where it ran.  A
        # failed process job has no worker frame: still release the slot so
        # the batch cannot hang, but skip the stats.
        if worker_id is not None:
            self._record_worker(worker_id, wall, cpu, memo)
        self._slots.release()
        self._note_depth(-1)
        if tel_on and worker_id is not None:
            ins.ENGINE_JOBS.inc()
            ins.ENGINE_WORKER_SECONDS.inc(wall, kind="wall")
            ins.ENGINE_WORKER_SECONDS.inc(cpu, kind="cpu")
            ins.ENGINE_CACHE_HITS.inc(memo[0])
            ins.ENGINE_CACHE_MISSES.inc(memo[1])

    def _record_worker(
        self, worker_id: int, wall: float, cpu: float, memo: tuple[int, int]
    ) -> None:
        with self._worker_lock:
            slot = self._workers.setdefault(worker_id, [0.0, 0.0, 0])
            slot[0] += wall
            slot[1] += cpu
            slot[2] += 1
            self._memo[0] += memo[0]
            self._memo[1] += memo[1]

    def _note_depth(self, delta: int) -> None:
        with self._depth_lock:
            self._depth += delta
            depth = self._depth
            if depth > self._depth_max:
                self._depth_max = depth
            depth_max = self._depth_max
            self._depth_samples.append((time.perf_counter(), depth))
        if _tel_enabled():
            ins.ENGINE_QUEUE_DEPTH.set_value(depth)
            ins.ENGINE_QUEUE_DEPTH_MAX.set_value(depth_max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressionEngine(backend={self.backend!r}, jobs={self.jobs}, "
            f"max_inflight={self.max_inflight}, depth={self.queue_depth})"
        )

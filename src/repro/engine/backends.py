"""Pluggable executor backends behind :class:`~repro.engine.CompressionEngine`.

The engine's scheduling contract (bounded in-flight backpressure, ordered
gathering, per-worker accounting) lives in :mod:`repro.engine.core`; *how*
jobs actually execute is delegated to one of three backends:

* ``serial`` -- jobs run inline in the submitting thread (already-resolved
  futures).  Zero scheduling overhead; the reference for byte-identity.
* ``thread`` -- the historical ``concurrent.futures`` thread pool.  Hot
  numpy kernels release the GIL, but the pure-Python stages between them
  serialize, which is why the committed baselines show jobs=4 no faster
  than jobs=1.
* ``process`` -- a ``ProcessPoolExecutor`` fed through a shared-memory
  arena.  Block payloads cross the process boundary as pickle-free
  ``memoryview`` slices over a :class:`multiprocessing.shared_memory`
  segment: the parent copies the field into the segment once, the worker
  maps it as a numpy view, compresses, writes the archive bytes back into
  the segment's output region, and returns a compact result frame (lengths
  + metadata only).  True multi-core scaling at the price of worker spawn
  and dispatch latency.

Backend resolution (:func:`resolve_backend_name`) is one path for the whole
library: an explicit argument wins, then the config's ``backend`` field,
then the ``REPRO_ENGINE_BACKEND`` environment variable, then ``thread``.
:func:`get_executor` turns that resolution into a ready engine, and
:func:`resolve_execution` is the internal front-door helper that decides
between inline-serial execution and a (possibly caller-owned) engine.

Worker-state re-initialization rules for the process backend: workers do
not inherit the parent's context variables, so each job ships the captured
effective telemetry switch and re-applies it around the job body; each
worker process has its own codebook and decode-table memo
(:func:`~repro.encoding.huffman.codebook_for`), whose hit/miss delta over
the job travels back in the result frame; and ledger writes inside workers
follow the job config's ``ledger`` path (the ledger format is append-only
JSONL and tolerant of concurrent writers) and are flushed at the end of
each job, since pool workers exit without running exit hooks.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.errors import ConfigError, EngineError
from ..encoding.huffman import memo_counts
from ..telemetry.context import enabled as _tel_enabled, scope as _tel_scope
from ..telemetry.ledger import flush_ledgers

__all__ = [
    "BACKEND_NAMES",
    "ENV_BACKEND",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ShmArena",
    "get_executor",
    "resolve_backend_name",
    "resolve_execution",
]

#: Every valid backend name, in documentation order.
BACKEND_NAMES = ("serial", "thread", "process")

#: Environment variable consulted when neither the call nor the config
#: names a backend.
ENV_BACKEND = "REPRO_ENGINE_BACKEND"

#: Shared-memory segment name prefix; tests assert that no ``/dev/shm``
#: entry with this prefix survives an engine's shutdown.
SHM_PREFIX = "repro-eng"


def resolve_backend_name(backend=None, config=None) -> str:
    """One resolution path: explicit arg > config field > env var > thread."""
    name = backend
    if name is None and config is not None:
        name = getattr(config, "backend", None)
    if name is None:
        name = os.environ.get(ENV_BACKEND) or None
    if name is None:
        return "thread"
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown engine backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def get_executor(
    backend=None,
    jobs: int | None = None,
    config=None,
    max_inflight: int | None = None,
):
    """Resolve to a ready :class:`~repro.engine.CompressionEngine`.

    ``backend`` may be a backend name, ``None`` (resolve via the config's
    ``backend`` field, then ``REPRO_ENGINE_BACKEND``, then ``thread``), or
    an existing engine -- which is returned unchanged, so callers can thread
    one pool through a whole pipeline.
    """
    from .core import CompressionEngine

    if isinstance(backend, CompressionEngine):
        return backend
    return CompressionEngine(
        config, jobs=jobs, max_inflight=max_inflight, backend=backend
    )


def resolve_execution(backend=None, jobs: int | None = None, config=None):
    """Front-door execution resolution: ``(engine | None, own_engine)``.

    ``None`` means "run inline, serially" -- the historical default when no
    parallelism was requested.  An engine is created (``own=True``) when the
    caller names a pool backend or asks for ``jobs>1``; a passed-in engine
    is reused (``own=False``).  A configured/environment backend only picks
    *which* pool serves a parallel request; it never turns a plain serial
    call into a pool dispatch on its own.
    """
    from .core import CompressionEngine

    if isinstance(backend, CompressionEngine):
        return backend, False
    explicit = backend is not None
    name = resolve_backend_name(backend, config)
    parallel = jobs is not None and int(jobs) != 1
    if name == "serial":
        if parallel and explicit:
            raise ConfigError(
                "backend='serial' is single-worker; drop jobs or pick thread/process"
            )
        return None, False
    if not parallel and not explicit:
        # Config/env backends are advisory: they pick *which* pool serves a
        # parallel request, they never promote a plain serial call.
        return None, False
    return CompressionEngine(config, jobs=jobs, backend=name), True


@runtime_checkable
class ExecutorBackend(Protocol):
    """What :class:`~repro.engine.CompressionEngine` needs from a backend.

    ``schedule`` receives the job *after* the engine has taken a
    backpressure slot; the backend must guarantee that exactly one of the
    engine's completion hooks runs per scheduled job (the thread/serial
    backends do this via :meth:`CompressionEngine._call_in_ctx`, the process
    backend via its done-callbacks), or the slot leaks.
    """

    name: str

    def schedule(self, fn, args: tuple, kwargs: dict) -> Future: ...

    def shutdown(self, wait: bool = True) -> None: ...


class SerialBackend:
    """Inline execution: jobs run in the submitting thread, futures arrive
    already resolved.  Byte-for-byte the reference the pool backends must
    reproduce."""

    name = "serial"

    def __init__(self, engine) -> None:
        self._engine = engine

    def schedule(self, fn, args, kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(self._engine._call_in_ctx(fn, args, kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class ThreadBackend:
    """The historical thread pool: shared-memory cheap, GIL-bound on the
    pure-Python stages between numpy kernels."""

    name = "thread"

    def __init__(self, engine, jobs: int) -> None:
        self._engine = engine
        self._pool = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-engine"
        )

    def schedule(self, fn, args, kwargs) -> Future:
        ctx = contextvars.copy_context()
        return self._pool.submit(ctx.run, self._engine._call_in_ctx, fn, args, kwargs)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# ---------------------------------------------------------------------------
# Process backend: shared-memory arena + compact result frames
# ---------------------------------------------------------------------------


def _round_up(nbytes: int, granule: int = 1 << 20) -> int:
    return max(((int(nbytes) + granule - 1) // granule) * granule, granule)


def _out_capacity(in_nbytes: int) -> int:
    """Output-region budget per job: archives are normally far smaller than
    the input, but an incompressible field plus section framing can exceed
    it, so budget input-size plus headroom (overflow falls back to an
    in-frame copy -- correct, just not zero-copy)."""
    return int(in_nbytes) + (int(in_nbytes) >> 3) + (64 << 10)


class ShmArena:
    """Parent-owned pool of reusable shared-memory segments.

    Every segment is created (and therefore unlinked) by the parent, named
    ``repro-eng-<pid>-<token>-<seq>``; :meth:`close` unconditionally unlinks
    every segment ever created, so an engine shutdown -- clean or via
    ``__exit__`` on an exception -- leaves no ``/dev/shm`` entries behind.
    Segments are leased per job and recycled through a free list (first fit
    by capacity) to amortize creation across a batch.
    """

    def __init__(self) -> None:
        self._prefix = f"{SHM_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._lock = threading.Lock()
        self._free: list = []
        self._all: list = []
        self._seq = 0
        self._closed = False

    def lease(self, nbytes: int):
        from multiprocessing import shared_memory

        size = _round_up(nbytes)
        with self._lock:
            if self._closed:
                raise EngineError("shared-memory arena is closed")
            for i, shm in enumerate(self._free):
                if shm.size >= size:
                    return self._free.pop(i)
            self._seq += 1
            name = f"{self._prefix}-{self._seq}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        with self._lock:
            if self._closed:
                _destroy_segment(shm)
                raise EngineError("shared-memory arena is closed")
            self._all.append(shm)
        return shm

    def release(self, shm) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(shm)
                return
        # Arena already closed (shutdown raced an in-flight completion):
        # close() unlinked the name; just drop the parent mapping.
        try:
            shm.close()
        except Exception:
            pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._all)
            self._all.clear()
            self._free.clear()
        for shm in segments:
            _destroy_segment(shm)


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


def _mp_context():
    """Start method for worker processes: ``forkserver`` where available.

    Plain ``fork`` from a multi-threaded parent is deprecated (and
    deadlock-prone); ``forkserver`` forks from a single-threaded server
    process instead, and preloading the compressor there makes every
    subsequent worker spawn a cheap warm fork.  ``spawn`` is the portable
    fallback; ``REPRO_ENGINE_MP_START`` overrides for debugging.
    """
    import multiprocessing as mp

    method = os.environ.get("REPRO_ENGINE_MP_START")
    if method is None:
        method = "forkserver" if "forkserver" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    if method == "forkserver":
        try:
            ctx.set_forkserver_preload(["repro.core.compressor"])
        except Exception:  # pragma: no cover - preload is an optimization
            pass
    return ctx


class ProcessBackend:
    """``ProcessPoolExecutor`` over a shared-memory block arena.

    Compression jobs take the zero-copy path: the parent leases a segment,
    copies the block in (the only copy on the way out), and the worker maps
    a ``memoryview``-backed numpy view -- nothing about the payload is ever
    pickled.  The worker writes the archive into the segment's output region
    and returns a frame of offsets plus metadata; the parent reassembles the
    :class:`~repro.core.compressor.CompressionResult`.  Arbitrary
    :meth:`~repro.engine.CompressionEngine.run` callables use plain pickling
    (decode fan-out payloads are compressed bytes -- already small).

    A worker death (``BrokenProcessPool``) marks the backend broken: every
    in-flight future fails with :class:`EngineError`, backpressure slots are
    released (no hang), and subsequent submissions fail fast.
    """

    name = "process"

    def __init__(self, engine, jobs: int) -> None:
        self._engine = engine
        self._pool = ProcessPoolExecutor(max_workers=jobs, mp_context=_mp_context())
        self._arena = ShmArena()
        self._broken = False

    def schedule(self, fn, args, kwargs) -> Future:
        if self._broken:
            raise EngineError(
                "engine worker process died; the process pool is broken "
                "(create a new CompressionEngine)"
            )
        from ..core.compressor import compress

        # Workers get none of the parent's context variables, so each job
        # carries the submit-side *effective* telemetry switch.
        tel_on = bool(_tel_enabled())
        if fn is compress and not kwargs and len(args) == 2:
            data = np.asarray(args[0])
            if data.size > 0 and np.issubdtype(data.dtype, np.floating):
                return self._schedule_compress(data, args[1], tel_on)
        return self._schedule_pickled(fn, args, kwargs, tel_on)

    def _schedule_compress(self, data, config, tel_on) -> Future:
        data = np.ascontiguousarray(data)
        out_off = _round_up(data.nbytes, 64)
        lease = self._arena.lease(out_off + _out_capacity(data.nbytes))
        try:
            view = np.frombuffer(lease.buf, dtype=data.dtype, count=data.size)
            np.copyto(view.reshape(data.shape), data)
            desc = {
                "shm": lease.name,
                "dtype": data.dtype.str,
                "shape": data.shape,
                "count": int(data.size),
                "out_off": out_off,
                "out_cap": lease.size - out_off,
                "config": config,
            }
            inner = self._pool.submit(_process_compress_job, desc, tel_on)
        except BaseException:
            self._arena.release(lease)
            raise
        outer: Future = Future()

        def finalize(frame):
            result = frame["result"]
            if frame["inline"] is not None:
                result.archive = frame["inline"]
            else:
                result.archive = bytes(
                    lease.buf[out_off : out_off + frame["alen"]]
                )
            return result

        inner.add_done_callback(
            lambda f: self._complete(f, outer, lease, tel_on, finalize)
        )
        return outer

    def _schedule_pickled(self, fn, args, kwargs, tel_on) -> Future:
        inner = self._pool.submit(_process_run_job, fn, args, kwargs, tel_on)
        outer: Future = Future()
        inner.add_done_callback(
            lambda f: self._complete(f, outer, None, tel_on, lambda fr: fr["result"])
        )
        return outer

    def _complete(self, inner: Future, outer: Future, lease, tel_on, finalize) -> None:
        """Runs on the pool's result thread: settle the outer future, return
        the lease, and release the engine's backpressure slot exactly once."""
        frame = None
        try:
            try:
                frame = inner.result()
            except BrokenProcessPool as exc:
                self._broken = True
                err = EngineError(
                    "engine worker process died mid-batch (killed or crashed); "
                    "in-flight jobs are lost and the engine must be recreated"
                )
                err.__cause__ = exc
                outer.set_exception(err)
                return
            except BaseException as exc:
                outer.set_exception(exc)
                return
            try:
                outer.set_result(finalize(frame))
            except BaseException as exc:
                outer.set_exception(exc)
        finally:
            if lease is not None:
                self._arena.release(lease)
            if frame is not None:
                self._engine._finish_job(
                    frame["pid"], frame["wall"], frame["cpu"], frame["memo"],
                    tel_on=tel_on,
                )
            else:
                self._engine._finish_job(None, 0.0, 0.0)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        self._arena.close()


def make_backend(name: str, engine, jobs: int):
    if name == "serial":
        return SerialBackend(engine)
    if name == "thread":
        return ThreadBackend(engine, jobs)
    if name == "process":
        return ProcessBackend(engine, jobs)
    raise ConfigError(
        f"unknown engine backend {name!r}; expected one of {BACKEND_NAMES}"
    )


# ---------------------------------------------------------------------------
# Worker-side plumbing (runs in the worker processes)
# ---------------------------------------------------------------------------


_ATTACHED: dict = {}


def _attach_shm(name: str):
    """Attach to a parent-owned segment without registering ownership.

    Attach-side resource-tracker registration (fixed by ``track=False`` in
    newer Pythons) would have the worker's tracker unlink segments the
    parent still owns; unregister right after attaching on interpreters
    that lack the parameter.  Attachments are cached per worker process --
    the arena recycles segment names across jobs.
    """
    shm = _ATTACHED.get(name)
    if shm is not None:
        return shm
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Older interpreters lack track= and register on *attach* too; under
        # forkserver the worker shares the parent's tracker process, so that
        # duplicate registration (and any compensating unregister) corrupts
        # the parent's bookkeeping.  Silence registration for the attach.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    _ATTACHED[name] = shm
    return shm


def _measured(tel_on: bool, body) -> dict:
    """Run one job body under the shipped telemetry switch and frame its
    result dict with what the parent's completion hook reads."""
    wall0 = time.perf_counter()
    cpu0 = time.thread_time()
    hits0, misses0 = memo_counts()
    with _tel_scope(tel_on):
        frame = body()
    # A pool worker exits without running exit hooks, so the job's ledger
    # records are written before its result goes back.
    flush_ledgers()
    hits, misses = memo_counts()
    frame.update(
        wall=time.perf_counter() - wall0,
        cpu=time.thread_time() - cpu0,
        pid=os.getpid(),
        memo=(hits - hits0, misses - misses0),
    )
    return frame


def _process_compress_job(desc: dict, tel_on: bool) -> dict:
    """Worker body for the zero-copy compress path: map, compress, write
    the archive into the segment's output region, frame the metadata."""
    from ..core.compressor import compress

    def body() -> dict:
        shm = _attach_shm(desc["shm"])
        view = np.frombuffer(
            shm.buf, dtype=np.dtype(desc["dtype"]), count=desc["count"]
        ).reshape(desc["shape"])
        result = compress(view, desc["config"])
        alen = len(result.archive)
        inline = None
        if alen <= desc["out_cap"]:
            out_off = desc["out_off"]
            shm.buf[out_off : out_off + alen] = result.archive
        else:  # pragma: no cover - output region is sized input+headroom
            inline = result.archive
        result.archive = b""
        return {"result": result, "alen": alen, "inline": inline}

    return _measured(tel_on, body)


def _process_run_job(fn, args: tuple, kwargs: dict, tel_on: bool) -> dict:
    """Worker body for arbitrary ``engine.run`` callables (pickled args)."""
    return _measured(tel_on, lambda: {"result": fn(*args, **kwargs)})


def _hard_exit(code: int = 3) -> None:  # pragma: no cover - dies in the worker
    """Worker-crash test hook: kills the worker process without cleanup."""
    os._exit(code)

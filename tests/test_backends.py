"""Tests for the pluggable executor backends (`repro.engine.backends`).

Covers the one-path backend resolution (argument > config > environment >
default), the ``backend=`` call sites raising no deprecation warning,
process-backend byte-identity against the serial reference, the
worker-crash failure mode (clean :class:`EngineError`, no hang), and the
shared-memory hygiene contract: no ``/dev/shm`` entry with the engine's
prefix survives a shutdown, clean or not.
"""

import glob
import os
import warnings

import numpy as np
import pytest

import repro
from repro.core.compressor import compress
from repro.core.config import CompressorConfig
from repro.core.errors import ConfigError, EngineError
from repro.core.streaming import compress_blocks, decompress_blocks
from repro.engine import CompressionEngine, get_executor, resolve_backend_name
from repro.engine.backends import (
    ENV_BACKEND,
    SHM_PREFIX,
    ShmArena,
    _hard_exit,
    resolve_execution,
)

HAS_DEV_SHM = os.path.isdir("/dev/shm")


def make_field(seed=0, shape=(48, 64)):
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 0.05, shape).astype(np.float32)
    base += np.sin(np.linspace(0.0, 6.0, shape[-1], dtype=np.float32))
    return base


def shm_leftovers():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


class TestResolution:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend_name() == "thread"

    def test_explicit_beats_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "process")
        assert resolve_backend_name() == "process"
        cfg = CompressorConfig(eb=1e-3, backend="serial")
        assert resolve_backend_name(config=cfg) == "serial"
        assert resolve_backend_name("thread", config=cfg) == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend_name("gpu")
        with pytest.raises(ConfigError):
            CompressorConfig(eb=1e-3, backend="gpu")

    def test_env_var_selects_engine_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "serial")
        with CompressionEngine(jobs=1) as eng:
            assert eng.backend == "serial"

    def test_serial_engine_rejects_parallel_jobs(self):
        with pytest.raises(ConfigError):
            CompressionEngine(jobs=4, backend="serial")

    def test_get_executor_passes_engine_through(self):
        with CompressionEngine(jobs=1, backend="serial") as eng:
            assert get_executor(eng) is eng

    def test_resolve_execution_serial_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_execution() == (None, False)
        assert resolve_execution(jobs=1) == (None, False)

    def test_resolve_execution_config_backend_is_advisory(self):
        # A configured pool backend must not promote a plain serial call
        # into a pool dispatch; it only picks the pool for parallel asks.
        cfg = CompressorConfig(eb=1e-3, backend="process")
        assert resolve_execution(config=cfg) == (None, False)
        eng, own = resolve_execution(jobs=2, config=cfg)
        try:
            assert own and eng.backend == "process" and eng.jobs == 2
        finally:
            eng.shutdown(wait=True)

    def test_resolve_execution_explicit_serial_with_jobs_rejected(self):
        with pytest.raises(ConfigError):
            resolve_execution(backend="serial", jobs=4)

    def test_resolve_execution_reuses_passed_engine(self):
        with CompressionEngine(jobs=1, backend="serial") as eng:
            assert resolve_execution(backend=eng, jobs=4) == (eng, False)


class TestDeprecationShims:
    def test_migrated_call_sites_raise_no_warnings(self):
        field = make_field(5, shape=(32, 32))
        cfg = CompressorConfig(eb=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blob = compress_blocks(field, cfg, max_block_bytes=2048, jobs=2,
                                   backend="thread")
            decompress_blocks(blob, jobs=2, backend="thread")


class TestProcessBackend:
    def test_blocks_byte_identical_across_backends(self):
        field = make_field(1, shape=(64, 64))
        cfg = CompressorConfig(eb=1e-3)
        reference = compress_blocks(field, cfg, max_block_bytes=4096)
        serial_out = decompress_blocks(reference)
        for backend in ("thread", "process"):
            blob = compress_blocks(field, cfg, max_block_bytes=4096,
                                   jobs=2, backend=backend)
            assert blob == reference, f"{backend} diverged from serial"
            np.testing.assert_array_equal(
                decompress_blocks(blob, jobs=2, backend=backend), serial_out
            )

    def test_submit_matches_serial_compress(self):
        field = make_field(2, shape=(48, 48))
        cfg = CompressorConfig(eb=1e-3)
        serial = compress(field, cfg)
        with CompressionEngine(cfg, jobs=1, backend="process") as eng:
            remote = eng.submit(field).result()
        assert remote.archive == serial.archive
        assert remote.workflow == serial.workflow
        assert remote.compression_ratio == serial.compression_ratio

    def test_diagnostics_report_worker_pids(self):
        field = make_field(6, shape=(32, 32))
        with CompressionEngine(jobs=1, backend="process") as eng:
            eng.map([field, field])
            snap = eng.diagnostics_snapshot()
        assert snap["backend"] == "process"
        assert snap["jobs_completed"] == 2
        # worker ids are pids measured inside the worker, not our threads
        assert all(w["tid"] != os.getpid() for w in snap["workers"])
        assert snap["worker_cpu_seconds"] > 0.0

    def test_all_nan_block_roundtrips(self):
        field = np.full((32, 32), np.nan, dtype=np.float32)
        cfg = CompressorConfig(eb=1e-3, eb_mode="abs")
        reference = compress_blocks(field, cfg, max_block_bytes=2048)
        blob = compress_blocks(field, cfg, max_block_bytes=2048,
                               jobs=2, backend="process")
        assert blob == reference
        out = decompress_blocks(blob)
        assert np.isnan(out).all() and out.shape == field.shape

    def test_zero_length_field_fails_cleanly(self):
        empty = np.array([], dtype=np.float32)
        cfg = CompressorConfig(eb=1e-3, eb_mode="abs")
        with CompressionEngine(cfg, jobs=1, backend="process") as eng:
            with pytest.raises(ConfigError, match="empty"):
                eng.submit(empty).result()
            # the pool survives a job-level error; later jobs still run
            result = eng.submit(make_field(7, shape=(16, 16))).result()
        assert len(result.archive) > 0

    def test_worker_crash_raises_engine_error_without_hang(self):
        with CompressionEngine(jobs=1, backend="process") as eng:
            future = eng.run(_hard_exit, 3)
            with pytest.raises(EngineError, match="worker process died"):
                future.result(timeout=60)
            with pytest.raises(EngineError):
                eng.run(os.getpid)
        if HAS_DEV_SHM:
            assert shm_leftovers() == []


@pytest.mark.skipif(not HAS_DEV_SHM, reason="no /dev/shm on this platform")
class TestShmHygiene:
    def test_clean_shutdown_unlinks_segments(self):
        field = make_field(8, shape=(48, 48))
        eng = CompressionEngine(jobs=1, backend="process")
        try:
            eng.map([field, field])
            assert shm_leftovers(), "zero-copy path must lease shm segments"
        finally:
            eng.shutdown(wait=True)
        assert shm_leftovers() == []

    def test_exit_on_exception_unlinks_segments(self):
        field = make_field(9, shape=(48, 48))
        with pytest.raises(RuntimeError, match="mid-batch failure"):
            with CompressionEngine(jobs=1, backend="process") as eng:
                eng.submit(field).result()
                raise RuntimeError("mid-batch failure")
        assert shm_leftovers() == []

    def test_arena_lease_release_close(self):
        arena = ShmArena()
        shm = arena.lease(1 << 16)
        name = shm.name
        assert os.path.exists(f"/dev/shm/{name}")
        arena.release(shm)
        assert arena.lease(1 << 12) is shm  # free list recycles by fit
        arena.release(shm)
        arena.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        with pytest.raises(EngineError):
            arena.lease(1 << 12)
        arena.close()  # idempotent


class TestPublicApiThreading:
    def test_top_level_decompress_accepts_backend(self):
        field = make_field(10, shape=(32, 32))
        cfg = CompressorConfig(eb=1e-3)
        blob = compress_blocks(field, cfg, max_block_bytes=2048)
        np.testing.assert_array_equal(
            repro.decompress(blob, jobs=2, backend="thread"),
            repro.decompress(blob),
        )

    def test_compressor_class_carries_backend(self):
        field = make_field(11, shape=(32, 32))
        with repro.Compressor(CompressorConfig(eb=1e-3), jobs=2,
                              backend="thread") as comp:
            assert comp.engine().backend == "thread"
            blob = comp.compress_blocks(field, max_block_bytes=2048)
            reference = compress_blocks(field, comp.config,
                                        max_block_bytes=2048)
        assert blob == reference

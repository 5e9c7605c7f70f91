"""Tests for the parallel batch-compression engine and the unified codec API.

Covers the engine's four guarantees (future semantics, backpressure,
deterministic ordering, shared codebook cache), the single ``decompress``
front door across all three container kinds, the ``mode=`` config alias,
and the pwrel path raising no deprecation warning.
"""

import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry as tel
from repro.core.archive import ArchiveReader
from repro.core.compressor import sniff_container
from repro.core.errors import ArchiveError, ConfigError
from repro.core.streaming import (
    StreamingCompressor,
    compress_blocks,
    decompress_blocks,
    decompress_blocks_with_stats,
)
from repro.engine import CompressionEngine
from repro.engine.cache import QuantCache, cache_scope, cached_codebook
from repro.telemetry import instruments as ins

VECTOR_DIR = Path(__file__).parent / "vectors"


def make_field(seed=0, shape=(96, 128)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32).cumsum(axis=1)


class TestEngineSemantics:
    def test_futures_resolve_in_submission_order(self):
        fields = [make_field(s) for s in range(5)]
        with CompressionEngine(repro.CompressorConfig(eb=1e-3), jobs=3) as eng:
            futures = eng.batch(fields)
            results = [f.result() for f in futures]
        expected = [repro.compress(f, eb=1e-3).archive for f in fields]
        assert [r.archive for r in results] == expected

    def test_map_matches_serial(self):
        fields = [make_field(s) for s in range(4)]
        with CompressionEngine(jobs=2) as eng:
            results = eng.map(fields, eb=1e-2, eb_mode="abs")
        for field, res in zip(fields, results):
            assert res.archive == repro.compress(field, eb=1e-2, mode="abs").archive

    def test_per_submit_overrides(self):
        field = make_field()
        with CompressionEngine(repro.CompressorConfig(eb=1e-3), jobs=2) as eng:
            loose = eng.submit(field, eb=1e-1).result()
            tight = eng.submit(field).result()
        assert len(loose.archive) < len(tight.archive)

    def test_submit_after_shutdown_raises(self):
        eng = CompressionEngine(jobs=1)
        eng.shutdown()
        assert eng.closed
        with pytest.raises(ConfigError, match="shut down"):
            eng.submit(make_field())

    def test_run_schedules_arbitrary_functions(self):
        with CompressionEngine(jobs=2) as eng:
            futures = [eng.run(lambda a, b: a + b, i, b=i * 10) for i in range(8)]
            assert [f.result() for f in futures] == [11 * i for i in range(8)]

    def test_run_executes_under_engine_cache_scope(self):
        from repro.engine.cache import active_cache

        with CompressionEngine(jobs=1) as eng:
            assert eng.run(lambda: active_cache() is eng.cache).result()

    def test_run_after_shutdown_raises(self):
        eng = CompressionEngine(jobs=1)
        eng.shutdown()
        with pytest.raises(ConfigError, match="shut down"):
            eng.run(int)

    def test_backpressure_bound_configuration(self):
        with pytest.raises(ConfigError, match="max_inflight"):
            CompressionEngine(jobs=4, max_inflight=2)

    def test_queue_depth_stays_within_inflight_bound(self, monkeypatch):
        """Backpressure, deterministically: park every worker on an Event so
        the inflight count is exact, then prove the next ``submit`` blocks
        until a slot frees.  No timing-sensitive sampling involved -- the
        only waits are ones that can end early iff backpressure is broken.
        """
        import repro.engine.core as engine_core

        gate = threading.Event()
        real_compress = engine_core.compress

        def gated_compress(data, cfg):
            assert gate.wait(timeout=30), "test gate never opened"
            return real_compress(data, cfg)

        monkeypatch.setattr(engine_core, "compress", gated_compress)
        fields = [make_field(s, shape=(16, 16)) for s in range(4)]
        eng = CompressionEngine(jobs=2, max_inflight=3)
        futures = []
        try:
            # Fill every backpressure slot; the workers are parked on the
            # gate, so depth is exactly max_inflight -- no race.
            for f in fields[:3]:
                futures.append(eng.submit(f, eb=1e-3))
            assert eng.queue_depth == 3

            # A fourth submit must block on the semaphore, not enqueue.
            unblocked = threading.Event()

            def submit_fourth():
                futures.append(eng.submit(fields[3], eb=1e-3))
                unblocked.set()

            producer = threading.Thread(target=submit_fourth, daemon=True)
            producer.start()
            assert not unblocked.wait(timeout=0.2), (
                "submit returned while all inflight slots were occupied"
            )
            assert eng.queue_depth == 3

            gate.set()  # release the workers; the blocked submit proceeds
            assert unblocked.wait(timeout=30), "submit never unblocked"
            producer.join(timeout=30)
            results = [f.result(timeout=30) for f in futures]
        finally:
            gate.set()
            eng.shutdown()
        assert len(results) == 4
        assert eng.queue_depth == 0

    def test_failed_job_releases_backpressure_slot_deterministically(
        self, monkeypatch
    ):
        """A worker that raises must free its slot: park one poisoned job on
        an Event, verify the slot is held, release it, and verify a new
        submit can claim the slot without blocking."""
        import repro.engine.core as engine_core

        gate = threading.Event()
        real_compress = engine_core.compress

        def poisoned_compress(data, cfg):
            assert gate.wait(timeout=30)
            if data.size == 1:
                raise ConfigError("poisoned job")
            return real_compress(data, cfg)

        monkeypatch.setattr(engine_core, "compress", poisoned_compress)
        eng = CompressionEngine(jobs=1, max_inflight=1)
        try:
            bad = eng.submit(np.zeros(1, dtype=np.float32), eb=1e-3, eb_mode="abs")
            assert eng.queue_depth == 1
            gate.set()
            with pytest.raises(ConfigError, match="poisoned"):
                bad.result(timeout=30)
            # The slot freed on failure: this submit must not deadlock.
            good = eng.submit(make_field(1, shape=(8, 8)), eb=1e-3)
            assert good.result(timeout=30).archive
        finally:
            gate.set()
            eng.shutdown()
        assert eng.queue_depth == 0

    def test_worker_error_surfaces_on_future(self):
        with CompressionEngine(jobs=1) as eng:
            fut = eng.submit(np.array([], dtype=np.float32))
            with pytest.raises(ConfigError):
                fut.result()
        # The failed job must have released its backpressure slot.
        assert eng.queue_depth == 0


class TestEngineTelemetry:
    def test_job_and_cache_counters(self):
        tel.reset_metrics()
        field = make_field()
        with tel.scope(True):
            with CompressionEngine(jobs=2) as eng:
                [f.result() for f in eng.batch([field, field, field], eb=1e-3)]
        assert ins.ENGINE_JOBS.value() == 3
        # Identical fields -> identical quant distributions -> cache hits.
        assert ins.ENGINE_CACHE_HITS.value() > 0
        assert ins.ENGINE_QUEUE_DEPTH.value() == 0.0

    def test_worker_spans_nest_under_caller_span(self):
        field = make_field(shape=(48, 48))
        with tel.scope(True), tel.trace("engine-test") as tr:
            with tel.span("batch_root"):
                with CompressionEngine(jobs=2) as eng:
                    [f.result() for f in eng.batch([field, field], eb=1e-3)]
        roots = [s for s in tr.roots if s.name == "batch_root"]
        assert len(roots) == 1
        compress_children = [c for c in roots[0].children if c.name == "compress"]
        assert len(compress_children) == 2


class TestEngineCache:
    def test_cache_reuses_codebooks(self):
        cache = QuantCache(16)
        freqs = np.array([5, 1, 0, 9, 3], dtype=np.int64)
        with cache_scope(cache):
            first = cached_codebook(freqs)
            second = cached_codebook(freqs.copy())
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cache_differentiates_distributions(self):
        cache = QuantCache(16)
        with cache_scope(cache):
            a = cached_codebook(np.array([5, 1, 9], dtype=np.int64))
            b = cached_codebook(np.array([5, 2, 9], dtype=np.int64))
        assert a is not b
        assert cache.stats.misses == 2

    def test_no_active_cache_falls_through(self):
        freqs = np.array([3, 3, 3], dtype=np.int64)
        a = cached_codebook(freqs)
        b = cached_codebook(freqs)
        assert a is not b  # no cache in scope: fresh construction each time

    def test_lru_eviction_bounds_memory(self):
        cache = QuantCache(2)
        with cache_scope(cache):
            for k in range(5):
                cached_codebook(np.array([1, k + 1], dtype=np.int64))
        assert len(cache) <= 2


class TestParallelByteIdentity:
    @pytest.mark.parametrize("workflow", ["huffman", "rle", "rle+vle"])
    def test_blocks_byte_identical_across_jobs(self, workflow):
        # FSDSC-like quantized-smooth data keeps RLE viable; huffman works
        # on anything.
        field = np.round(make_field(7, shape=(128, 96)), 1)
        config = repro.CompressorConfig(eb=1e-2, workflow=workflow)
        serial = compress_blocks(field, config, max_block_bytes=16384, jobs=1)
        for jobs in (2, 4):
            par = compress_blocks(field, config, max_block_bytes=16384, jobs=jobs)
            assert par == serial, f"jobs={jobs} container diverged"
        np.testing.assert_allclose(
            decompress_blocks(serial), field, atol=1e-2 * np.ptp(field)
        )

    def test_shared_engine_reuse_is_deterministic(self):
        field = make_field(9)
        config = repro.CompressorConfig(eb=1e-3)
        serial = compress_blocks(field, config, max_block_bytes=8192)
        with CompressionEngine(config, jobs=3) as eng:
            first = compress_blocks(field, config, max_block_bytes=8192, backend=eng)
            second = compress_blocks(field, config, max_block_bytes=8192, backend=eng)
        assert first == serial and second == serial

    def test_streaming_engine_matches_serial(self):
        config = repro.CompressorConfig(eb=1e-2, eb_mode="abs")
        chunks = [make_field(s, shape=(32, 64)) for s in range(6)]
        serial = StreamingCompressor(config)
        for c in chunks:
            serial.append(c)
        with StreamingCompressor(config, jobs=3) as parallel:
            for c in chunks:
                parallel.append(c)
        assert parallel.container == serial.finish()


class TestParallelDecode:
    """``decompress(jobs=N)`` fans v3 chunk groups / blocks across workers."""

    def _chunky_archive(self):
        # Small chunks so the single-field stream clears the chunk-group
        # dispatch threshold and actually splits.
        field = make_field(7, shape=(64, 64))
        res = repro.compress(field, eb=1e-3, huffman_chunk=128)
        return res.archive, field

    def test_jobs_decode_matches_serial(self):
        blob, _ = self._chunky_archive()
        serial = repro.decompress(blob)
        np.testing.assert_array_equal(repro.decompress(blob, jobs=2), serial)
        np.testing.assert_array_equal(repro.decompress(blob, jobs=4), serial)

    def test_shared_engine_decode_matches_serial(self):
        blob, _ = self._chunky_archive()
        serial = repro.decompress(blob)
        with CompressionEngine(jobs=2) as eng:
            np.testing.assert_array_equal(
                repro.decompress(blob, backend=eng), serial
            )
            assert not eng.closed  # caller-owned pools are left running

    def test_jobs_decode_blocks_container(self):
        field = make_field(3)
        blob = compress_blocks(field, repro.CompressorConfig(eb=1e-3),
                               max_block_bytes=16_000)
        np.testing.assert_array_equal(
            decompress_blocks(blob, jobs=2), decompress_blocks(blob)
        )

    def test_v2_archive_decodes_serially_under_jobs(self):
        # Pre-v3 payloads carry no sync points; jobs= must still give the
        # identical result (serial fallback), not an error.
        blob = (VECTOR_DIR / "v2-single-huff-f4-2d.rpsz").read_bytes()
        assert ArchiveReader(blob).version == 2
        np.testing.assert_array_equal(
            repro.decompress(blob, jobs=2), repro.decompress(blob)
        )


class TestUnifiedFrontDoor:
    def test_sniff_and_decompress_all_container_kinds(self):
        field = np.abs(make_field(11)) + 0.5
        single = repro.compress(field, eb=1e-3).archive
        blocks = compress_blocks(field, max_block_bytes=8192, eb=1e-3)
        pw = repro.compress(field, eb=1e-3, mode="pwrel").archive
        assert sniff_container(single) == "single"
        assert sniff_container(blocks) == "blocks"
        assert sniff_container(pw) == "pwrel"
        for blob in (single, blocks, pw):
            out = repro.decompress(blob)
            assert out.shape == field.shape

    def test_garbage_blob_raises_archive_error_with_hint(self):
        with pytest.raises(ArchiveError):
            repro.decompress(b"not an archive at all")

    def test_framed_but_empty_blob_names_missing_sections(self):
        from repro.core.archive import ArchiveBuilder

        builder = ArchiveBuilder()
        builder.add_bytes("junk", b"\x00" * 16)
        with pytest.raises(ArchiveError, match="meta"):
            repro.decompress(builder.to_bytes())

    def test_truncated_archive_not_struct_error(self):
        blob = repro.compress(make_field(), eb=1e-3).archive
        for cut in (len(blob) // 3, len(blob) - 7):
            with pytest.raises(ArchiveError):
                repro.decompress(blob[:cut])

    def test_block_container_stats_aggregate(self):
        field = make_field(13)
        blob = compress_blocks(field, max_block_bytes=8192, eb=1e-3)
        res = decompress_blocks_with_stats(blob)
        assert res.data.shape == field.shape
        assert res.workflow in ("huffman", "rle", "rle+vle", "mixed")
        assert res.n_outliers >= 0
        assert "bmeta" in res.section_sizes

    def test_mode_alias_drives_pwrel(self):
        field = np.abs(make_field(17)) + 1.0
        cfg = repro.CompressorConfig(mode="pwrel", eb=1e-3)
        assert cfg.eb_mode == "pwrel"
        out = repro.decompress(repro.compress(field, cfg).archive)
        rel = np.abs(out - field) / np.abs(field)
        assert float(rel.max()) <= 1e-3

    def test_pwrel_mode_validation(self):
        with pytest.raises(ConfigError):
            repro.CompressorConfig(mode="pwrel", eb=1.5)
        with pytest.raises(ConfigError, match="absolute equivalent"):
            repro.CompressorConfig(mode="pwrel", eb=1e-3).absolute_bound(1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            repro.CompressorConfig(mode="chebyshev")


class TestCompressorClass:
    def test_batch_futures_match_single_calls(self):
        fields = [make_field(s) for s in range(3)]
        with repro.Compressor(eb=1e-3, jobs=2) as comp:
            futures = comp.batch(fields)
            archives = [f.result().archive for f in futures]
        assert archives == [repro.compress(f, eb=1e-3).archive for f in fields]

    def test_compress_blocks_binds_config(self):
        field = make_field(4)
        comp = repro.Compressor(eb=1e-2, mode="abs", jobs=2)
        try:
            blob = comp.compress_blocks(field, max_block_bytes=8192)
        finally:
            comp.close()
        assert blob == compress_blocks(field, eb=1e-2, mode="abs", max_block_bytes=8192)

    def test_stream_context_manager(self):
        comp = repro.Compressor(eb=1e-2, mode="abs")
        with comp.stream() as stream:
            stream.append(make_field(1, shape=(16, 32)))
            stream.append(make_field(2, shape=(16, 32)))
        out = repro.decompress(stream.container)
        assert out.shape == (32, 32)

    def test_stream_rejects_range_relative_bound(self):
        with pytest.raises(ConfigError, match="range"):
            repro.Compressor(eb=1e-3).stream()

    def test_decompress_front_door_on_class(self):
        field = make_field(5)
        comp = repro.Compressor(eb=1e-3)
        res = comp.decompress_with_stats(comp.compress(field).archive)
        assert res.data.shape == field.shape


class TestDeprecatedShims:
    def test_internal_paths_do_not_warn(self):
        field = np.abs(make_field(23)) + 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blob = repro.compress(field, eb=1e-3, mode="pwrel").archive
            repro.decompress(blob)

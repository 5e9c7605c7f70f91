"""Tests for the parallel batch-compression engine and the unified codec API.

Covers the engine's four guarantees (future semantics, backpressure,
deterministic ordering, memo accounting), the process-wide codebook and
decode-table memo every backend shares, the single ``decompress`` front door
across all three container kinds, the ``mode=`` config alias, and the pwrel
path raising no deprecation warning.
"""

import itertools
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
from repro.encoding import huffman
from repro.encoding.huffman import (
    MEMO_BYTES,
    DecodeTable,
    build_codebook,
    build_decode_table,
    codebook_for,
    decode_table_for,
    memo_counts,
)
from repro.engine import CompressionEngine
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


#: Alphabet sizes no other test histograms: each call of
#: :func:`unique_freqs` gives a histogram, codebook and length table the
#: process-wide memo has not seen in this session.
_UNSEEN_SIZES = itertools.count(3001)


def unique_freqs():
    freqs = np.full(next(_UNSEEN_SIZES), 3, dtype=np.int64)
    freqs[:3] = (50, 20, 9)
    return freqs


def memo_delta(before):
    hits, misses = memo_counts()
    return hits - before[0], misses - before[1]


class TestEngineCache:
    """The process-wide codebook and decode-table memo."""

    def test_cache_reuses_codebooks(self):
        freqs = unique_freqs()
        before = memo_counts()
        first = codebook_for(freqs)
        second = codebook_for(freqs.copy())
        assert first is second
        assert memo_delta(before) == (1, 1)
        assert decode_table_for(first) is decode_table_for(build_codebook(freqs))
        assert memo_delta(before) == (2, 2)

    def test_cache_differentiates_distributions(self):
        freqs = unique_freqs()
        other = freqs.copy()
        other[-1] += 1
        before = memo_counts()
        a = codebook_for(freqs)
        b = codebook_for(other)
        assert a is not b
        assert memo_delta(before) == (0, 2)
        np.testing.assert_array_equal(a.lengths, build_codebook(freqs).lengths)

    def test_lru_eviction_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(huffman, "_BOOKS", huffman._Memo(build_codebook))
        keep, drop = unique_freqs(), unique_freqs()
        codebook_for(keep)
        one_book = huffman._BOOKS.nbytes
        # Room for four of these books (each later one is a few bytes larger).
        monkeypatch.setattr(huffman, "MEMO_BYTES", 4 * one_book + one_book // 2)
        codebook_for(drop)
        for _ in range(2):
            codebook_for(unique_freqs())
        codebook_for(keep)  # now the most recently used
        codebook_for(unique_freqs())  # over budget: evicts the least recently used
        assert len(huffman._BOOKS) == 4
        assert huffman._BOOKS.nbytes <= huffman.MEMO_BYTES
        before = memo_counts()
        codebook_for(keep)
        assert memo_delta(before) == (1, 0)
        codebook_for(drop)
        assert memo_delta(before) == (1, 1)

    def test_decode_table_eviction_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(huffman, "_TABLES", huffman._Memo(build_decode_table))
        books = [build_codebook(unique_freqs()) for _ in range(3)]
        decode_table_for(books[0])
        one_table = huffman._TABLES.nbytes
        monkeypatch.setattr(huffman, "MEMO_BYTES", 2 * one_table + one_table // 2)
        for book in books[1:]:
            decode_table_for(book)
        assert len(huffman._TABLES) == 2
        assert huffman._TABLES.nbytes <= huffman.MEMO_BYTES
        before = memo_counts()
        decode_table_for(books[-1])
        decode_table_for(books[0])
        assert memo_delta(before) == (1, 1)

    def test_byte_budget_holds_for_a_large_alphabet(self):
        # A 2 Mi-symbol alphabet: the book's code array alone is 16 MiB, more
        # than the whole budget, so it is built but not kept.
        freqs = np.zeros(1 << 21, dtype=np.int64)
        freqs[[0, 7, 1 << 20, (1 << 21) - 1]] = (5, 3, 2, 1)
        before = memo_counts()
        book = codebook_for(freqs)
        decode_table_for(book)
        assert huffman._BOOKS.nbytes <= MEMO_BYTES
        assert huffman._TABLES.nbytes <= MEMO_BYTES
        assert codebook_for(freqs) is not book
        assert memo_delta(before) == (0, 3)

    def test_memoized_books_and_tables_are_read_only(self):
        book = codebook_for(unique_freqs())
        table = decode_table_for(book)
        for array in (
            book.lengths, book.codes, book.sorted_symbols, book.first_code,
            book.first_index, table.nsym, table.syms, table.cumlen,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_library_compress_and_decompress_share_the_memo(self):
        field = make_field(31)
        repro.compress(field, eb=1e-3, workflow="huffman")
        before = memo_counts()
        blob = repro.compress(field, eb=1e-3, workflow="huffman").archive
        assert memo_delta(before) == (1, 0)
        repro.decompress(blob)
        before = memo_counts()
        repro.decompress(blob)
        assert memo_delta(before) == (1, 0)


class TestNoDecodeTableRebuild:
    """A second ``decompress`` of one archive builds no decode table, on
    every backend -- a single v3 archive's chunk groups included."""

    def _count_builds(self, monkeypatch):
        builds = []
        real_init = DecodeTable.__init__

        def counting_init(table, *args, **kwargs):
            builds.append(threading.get_ident())
            real_init(table, *args, **kwargs)

        monkeypatch.setattr(DecodeTable, "__init__", counting_init)
        return builds

    def test_serial(self, monkeypatch):
        blob, _ = TestParallelDecode._chunky_archive()
        first = repro.decompress(blob)
        builds = self._count_builds(monkeypatch)
        np.testing.assert_array_equal(repro.decompress(blob), first)
        assert builds == []

    def test_thread_engine_chunk_groups(self, monkeypatch):
        blob, _ = TestParallelDecode._chunky_archive()
        with CompressionEngine(jobs=2, backend="thread") as eng:
            first = repro.decompress(blob, backend=eng)
            builds = self._count_builds(monkeypatch)
            snap0 = eng.diagnostics_snapshot()["cache"]
            np.testing.assert_array_equal(repro.decompress(blob, backend=eng), first)
            snap1 = eng.diagnostics_snapshot()["cache"]
        assert builds == []
        # Both chunk groups looked the table up inside engine jobs.
        assert snap1["hits"] - snap0["hits"] == 2
        assert snap1["misses"] == snap0["misses"]

    def test_process_engine_chunk_groups(self):
        blob, _ = TestParallelDecode._chunky_archive()
        rounds = 4
        with CompressionEngine(jobs=2, backend="process") as eng:
            first = repro.decompress(blob, backend=eng)
            for _ in range(rounds - 1):
                np.testing.assert_array_equal(repro.decompress(blob, backend=eng), first)
            cache = eng.diagnostics_snapshot()["cache"]
        # Two chunk groups per round, each looked up in its worker's memo;
        # each of the two workers builds the table at most once.
        assert cache["hits"] + cache["misses"] == 2 * rounds
        assert 1 <= cache["misses"] <= eng.jobs

    def test_process_engine_reports_hits_for_a_repeated_field(self):
        field = make_field(32)
        with CompressionEngine(jobs=1, backend="process") as eng:
            eng.map([field, field], eb=1e-3, workflow="huffman")
            cache = eng.diagnostics_snapshot()["cache"]
        # One codebook lookup per compress: built by the first, reused by
        # the second.
        assert cache == {"hits": 1, "misses": 1}


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

    @staticmethod
    def _chunky_archive():
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

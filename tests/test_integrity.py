"""Unit tests for archive format v2, checksums, and deep verification."""

import struct
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.archive import ArchiveBuilder, ArchiveReader, VERSION
from repro.core.errors import ArchiveError, IntegrityError
from repro.core.integrity import (
    ALGO_CRC32,
    ALGO_CRC32C,
    ALGO_NAMES,
    IntegrityReport,
    _crc32c_software,
    checksum,
    crc32c,
    flip_bit,
    verify_archive,
)

#: A committed format-v1 vector (no writer for v1 is left).
V1_VECTOR = Path(__file__).parent / "vectors" / "v1-single-huff-f4-2d.rpsz"

_HEADER = struct.Struct("<8sHIBB2xQ")  # magic, version, n_sections, algo, flags, total
_ENTRY = struct.Struct("<16s8sQI")  # name, dtype, length, payload checksum


def restamped(blob: bytes, algo: int) -> bytes:
    """``blob`` (a v2/v3 archive) with its header's algorithm id, every
    section checksum and the header digest recomputed under ``algo``."""
    magic, version, n_sections, _, flags, total = _HEADER.unpack_from(blob, 0)
    out = bytearray(blob)
    _HEADER.pack_into(out, 0, magic, version, n_sections, algo, flags, total)
    table_end = _HEADER.size + _ENTRY.size * n_sections
    payload_off = table_end + 4
    for k in range(n_sections):
        off = _HEADER.size + k * _ENTRY.size
        name, dtype, length, _ = _ENTRY.unpack_from(blob, off)
        payload = blob[payload_off : payload_off + length]
        _ENTRY.pack_into(out, off, name, dtype, length, checksum(payload, algo))
        payload_off += length
    struct.pack_into("<I", out, table_end, checksum(bytes(out[:table_end]), algo))
    return bytes(out)


class TestCrc32c:
    """Known-answer vectors for the CRC-32C (Castagnoli) implementation."""

    VECTORS = [
        (b"", 0x00000000),
        (b"123456789", 0xE3069283),  # the classic check value
        (b"a", 0xC1D04330),
        (b"The quick brown fox jumps over the lazy dog", 0x22620404),
        (b"\x00" * 32, 0x8A9136AA),
        (b"\xff" * 32, 0x62A8AB43),
    ]

    @pytest.mark.parametrize("data,expected", VECTORS)
    def test_software_vectors(self, data, expected):
        assert _crc32c_software(data) == expected

    @pytest.mark.parametrize("data,expected", VECTORS)
    def test_dispatch_matches_software(self, data, expected):
        assert crc32c(data) == expected

    def test_incremental_matches_oneshot(self):
        data = bytes(range(256)) * 7
        # Software path supports chaining through the crc argument.
        part = _crc32c_software(data[100:], _crc32c_software(data[:100]))
        assert part == _crc32c_software(data)

    def test_unaligned_tail(self):
        for n in range(1, 24):
            data = bytes(range(n))
            assert crc32c(data) == _crc32c_software(data)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ArchiveError):
            checksum(b"x", 99)


class TestV2Format:
    def test_default_version_is_3(self):
        blob = ArchiveBuilder().add_bytes("a", b"x").to_bytes()
        reader = ArchiveReader(blob)
        assert reader.version == VERSION == 3
        assert reader.checksum_algo == ALGO_CRC32

    def test_v1_still_writable_and_readable(self):
        # v1 is read-only now: a committed vector stands in for the writer.
        blob = V1_VECTOR.read_bytes()
        reader = ArchiveReader(blob)
        assert reader.version == 1 and reader.checksum_algo == 0
        assert reader.has("meta") and reader.get_array("q.cbits").size > 0
        reader.verify_all()  # no checksums to check; must not raise
        assert repro.decompress(blob).shape == (8, 8)

    def test_v1_report_has_no_checksums(self):
        report = verify_archive(V1_VECTOR.read_bytes())
        assert report.version == 1 and report.checksum_algo == "none"

    def test_v2_smaller_overhead_is_accounted(self):
        b = ArchiveBuilder().add_bytes("a", b"x" * 10).add_bytes("b", b"y" * 5)
        blob = b.to_bytes()
        assert len(blob) == b.overhead_bytes + 15

    def test_explicit_algo_roundtrip(self):
        # Writers stamp CRC-32; readers verify archives stamped with either.
        written = ArchiveBuilder().add_bytes("a", b"data").add_bytes("b", b"").to_bytes()
        for algo in (ALGO_CRC32, ALGO_CRC32C):
            blob = restamped(written, algo)
            reader = ArchiveReader(blob)
            assert reader.checksum_algo == algo
            assert reader.get_bytes("a") == b"data"
            reader.verify_all()
            assert verify_archive(blob).checksum_algo == ALGO_NAMES[algo]
        assert restamped(written, ALGO_CRC32) == written
        corrupt = flip_bit(restamped(written, ALGO_CRC32C), 8 * (len(written) - 1))
        with pytest.raises(IntegrityError):
            ArchiveReader(corrupt).get_bytes("a")

    def test_bad_version_rejected(self):
        # No writer takes a version; the reader rejects a header naming one
        # it does not know.
        blob = bytearray(ArchiveBuilder().add_bytes("a", b"x").to_bytes())
        struct.pack_into("<H", blob, 8, 4)
        with pytest.raises(ArchiveError, match="unsupported archive version 4"):
            ArchiveReader(bytes(blob))

    def test_bad_algo_rejected(self):
        blob = bytearray(ArchiveBuilder().add_bytes("a", b"x").to_bytes())
        blob[14] = 42  # the header's checksum-algorithm id
        with pytest.raises(ArchiveError, match="unknown checksum algorithm id 42"):
            ArchiveReader(bytes(blob))

    def test_payload_flip_raises_integrity_error(self):
        blob = ArchiveBuilder().add_bytes("a", b"sensitive-payload").to_bytes()
        bad = flip_bit(blob, 8 * (len(blob) - 4))
        with pytest.raises(IntegrityError):
            ArchiveReader(bad).get_bytes("a")

    def test_header_flip_raises_integrity_error(self):
        blob = ArchiveBuilder().add_bytes("abc", b"x" * 50).to_bytes()
        bad = flip_bit(blob, 8 * 30)  # inside the section table
        with pytest.raises(ArchiveError):
            ArchiveReader(bad)

    def test_truncation_and_extension_rejected(self):
        blob = ArchiveBuilder().add_bytes("a", b"0123456789").to_bytes()
        with pytest.raises(ArchiveError):
            ArchiveReader(blob[:-1])
        with pytest.raises(ArchiveError):
            ArchiveReader(blob + b"j")

    def test_misaligned_array_section_rejected(self):
        blob = ArchiveBuilder().add_bytes("x", b"12345").to_bytes()
        reader = ArchiveReader(blob)
        # Rewrite the dtype tag to u4 via a rebuilt v1 archive so only the
        # alignment check (5 % 4 != 0) can fire.
        from repro.core.archive import _ENTRY_V1, _HEADER_V1, MAGIC
        import struct

        v1 = struct.pack("<8sHI", MAGIC, 1, 1) + _ENTRY_V1.pack(
            b"x".ljust(16, b"\x00"), b"<u4".ljust(8, b"\x00"), 5
        ) + b"12345"
        with pytest.raises(ArchiveError, match="not a multiple"):
            ArchiveReader(v1).get_array("x")
        assert reader.get_bytes("x") == b"12345"

    def test_aligned_array_readback_unchanged(self):
        arr = np.linspace(0, 1, 33, dtype=np.float32)
        blob = ArchiveBuilder().add_array("f", arr).to_bytes()
        np.testing.assert_array_equal(ArchiveReader(blob).get_array("f"), arr)


class TestVerifyArchive:
    def test_single_field_report(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3)
        report = verify_archive(res.archive)
        assert isinstance(report, IntegrityReport)
        assert report.kind == "single-field"
        assert report.section_bytes == res.section_sizes
        assert "integrity OK" not in report.summary()  # summary is structural

    def test_blocks_report_recurses(self, field_2d):
        from repro.core.streaming import compress_blocks

        blob = compress_blocks(field_2d, eb=1e-3, max_block_bytes=16_000)
        report = verify_archive(blob, deep=True)
        assert report.kind == "blocks"
        assert len(report.nested) >= 2
        assert all(r.kind == "single-field" for r in report.nested.values())
        shallow = verify_archive(blob, deep=False)
        assert shallow.nested == {}

    def test_checkpoint_report_recurses(self, field_2d):
        from repro.core.config import CompressorConfig
        from repro.parallel import run_spmd, slab_for_rank, write_checkpoint

        config = CompressorConfig(eb=1e-3)
        blob = run_spmd(
            2,
            lambda c: write_checkpoint(
                c, slab_for_rank(field_2d, 2, c.rank).copy(), config
            ),
        )[0]
        report = verify_archive(blob, deep=True)
        assert report.kind == "checkpoint"
        assert set(report.nested) == {"r0", "r1"}

    def test_pwrel_report_recurses(self):
        data = np.geomspace(1e-3, 1e3, 2048).astype(np.float32)
        res = repro.compress(data, eb=1e-3, mode="pwrel")
        report = verify_archive(res.archive, deep=True)
        assert report.kind == "pwrel"
        assert "pw.inner" in report.nested

    def test_missing_block_detected(self, field_2d):
        from repro.core.streaming import compress_blocks

        blob = compress_blocks(field_2d, eb=1e-3, max_block_bytes=16_000)
        reader = ArchiveReader(blob)
        builder = ArchiveBuilder()
        for name in reader.names():
            if name == "blk1":
                continue
            builder.add_bytes(name, reader.get_bytes(name))
        with pytest.raises(ArchiveError, match="blk1"):
            verify_archive(builder.to_bytes())

    def test_verify_does_not_decompress(self, field_2d, monkeypatch):
        import repro.core.compressor as comp

        res = repro.compress(field_2d, eb=1e-3)
        monkeypatch.setattr(
            comp, "decompress", lambda *a, **k: pytest.fail("decompress called")
        )
        monkeypatch.setattr(
            comp, "_decompress_impl", lambda *a, **k: pytest.fail("decode called")
        )
        verify_archive(res.archive, deep=True)


class TestOutlierIndexRange:
    """Outlier indices must address the field: a crafted archive with valid
    CRCs but an index outside ``[0, n)`` is an ArchiveError in both
    ``decompress`` and ``verify --deep``, never an IndexError or a silent
    write through a negative index."""

    @staticmethod
    def _with_outlier_index(blob: bytes, index: int, dtype) -> bytes:
        reader = ArchiveReader(blob)
        builder = ArchiveBuilder()
        for name in reader.names():
            try:
                arr = reader.get_array(name)
            except ArchiveError:  # an untyped byte section
                builder.add_bytes(name, reader.get_bytes(name))
                continue
            if name == "o.idx":
                arr = arr.astype(dtype)
                arr[0] = index
            builder.add_array(name, arr)
        return builder.to_bytes()

    @pytest.fixture(scope="class")
    def archive(self):
        rng = np.random.default_rng(0)
        walk = np.cumsum(rng.normal(0, 1, 4096)).astype(np.float32)
        res = repro.compress(walk, eb=1e-4, dict_size=64)
        assert res.n_outliers > 0
        assert ArchiveReader(res.archive).get_array("o.idx").dtype == np.uint32
        return res.archive

    @pytest.mark.parametrize("index,dtype", [
        (10**6, np.uint32),  # past the 4,096 elements
        (4096, np.uint32),  # one past the last element
        (-1, np.int64),  # the int64 layout of fields above 2^32 elements
    ], ids=["far", "one_past", "negative"])
    def test_rejected_by_decompress_and_deep_verify(self, archive, index, dtype):
        crafted = self._with_outlier_index(archive, index, dtype)
        with pytest.raises(ArchiveError, match="outlier index"):
            repro.decompress(crafted)
        with pytest.raises(ArchiveError, match="outlier index"):
            verify_archive(crafted, deep=True)

    def test_last_element_index_accepted(self, archive):
        """The check is exact: index n - 1 stays valid."""
        crafted = self._with_outlier_index(archive, 4095, np.uint32)
        verify_archive(crafted, deep=True)
        assert repro.decompress(crafted).shape == (4096,)

"""Archive integrity: checksums, deep verification, and fault injection.

Three concerns live here, all about the same contract -- *the archive that
reaches the decompressor must be exactly the archive that was written, or
the failure must be loud and typed*:

* **Checksums.**  Format v2 stamps every section payload with a CRC and
  digests the header + section table.  The algorithm is recorded per
  archive.  Writers stamp zlib's CRC-32; readers verify CRC-32 and CRC-32C
  (Castagnoli) alike -- the latter natively when a module is importable,
  else through a pure-Python fallback, so archives stamped with either
  verify everywhere.
* **Deep verification.**  :func:`verify_archive` walks a container --
  including nested block / rank / point-wise-relative archives -- and
  validates framing, checksums, and metadata plausibility *without
  decompressing any payload*.  This is what ``repro verify --deep`` runs.
* **Fault injection.**  :func:`iter_corruptions` and the mutators under it
  produce systematically corrupted variants of an archive (bit-flips,
  truncations, section-table swaps, length mutations) for the fuzz suite,
  which asserts every one of them raises :class:`~repro.core.errors.ArchiveError`
  / :class:`~repro.core.errors.IntegrityError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ArchiveError, IntegrityError

__all__ = [
    "ALGO_CRC32",
    "ALGO_CRC32C",
    "ALGO_NAMES",
    "crc32c",
    "checksum",
    "IntegrityReport",
    "verify_archive",
    "flip_bit",
    "with_swapped_table_entries",
    "with_mutated_section_length",
    "iter_corruptions",
]

#: Checksum algorithm ids recorded in the v2 archive header.
ALGO_CRC32 = 1   # zlib.crc32 (CRC-32/ISO-HDLC) -- always available, C speed
ALGO_CRC32C = 2  # CRC-32C (Castagnoli) -- native module when installed
ALGO_NAMES = {ALGO_CRC32: "crc32", ALGO_CRC32C: "crc32c"}

_CASTAGNOLI = 0x82F63B78  # reflected CRC-32C polynomial


def _build_crc32c_tables(n: int = 8) -> list[list[int]]:
    """Slicing-by-``n`` lookup tables for the software CRC-32C path."""
    t0 = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _CASTAGNOLI if c & 1 else c >> 1
        t0.append(c)
    tables = [t0]
    for _ in range(1, n):
        prev = tables[-1]
        tables.append([t0[v & 0xFF] ^ (v >> 8) for v in prev])
    return tables


_CRC32C_TABLES: list[list[int]] | None = None


def _crc32c_software(data: bytes, crc: int = 0) -> int:
    """Pure-Python CRC-32C, slicing-by-8 (tables built on first use)."""
    global _CRC32C_TABLES
    if _CRC32C_TABLES is None:
        _CRC32C_TABLES = _build_crc32c_tables()
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC32C_TABLES
    crc = ~crc & 0xFFFFFFFF
    n8 = len(data) - len(data) % 8
    i = 0
    while i < n8:
        crc ^= data[i] | data[i + 1] << 8 | data[i + 2] << 16 | data[i + 3] << 24
        crc = (
            t7[crc & 0xFF]
            ^ t6[(crc >> 8) & 0xFF]
            ^ t5[(crc >> 16) & 0xFF]
            ^ t4[crc >> 24]
            ^ t3[data[i + 4]]
            ^ t2[data[i + 5]]
            ^ t1[data[i + 6]]
            ^ t0[data[i + 7]]
        )
        i += 8
    for b in data[n8:]:
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return ~crc & 0xFFFFFFFF


def _find_native_crc32c():
    """A C-speed CRC-32C if one is installed; None otherwise."""
    try:  # pragma: no cover - depends on environment
        import crc32c as _m

        return _m.crc32c
    except ImportError:
        pass
    try:  # pragma: no cover - depends on environment
        import google_crc32c as _m

        return lambda data, crc=0: _m.extend(crc, bytes(data))
    except ImportError:
        return None


_NATIVE_CRC32C = _find_native_crc32c()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data``, native when available."""
    if _NATIVE_CRC32C is not None:
        return _NATIVE_CRC32C(data, crc) & 0xFFFFFFFF
    return _crc32c_software(bytes(data), crc)


def checksum(data: bytes, algo: int) -> int:
    """Checksum ``data`` with the algorithm recorded in an archive header."""
    if algo == ALGO_CRC32:
        return zlib.crc32(data) & 0xFFFFFFFF
    if algo == ALGO_CRC32C:
        return crc32c(data)
    raise ArchiveError(f"unknown checksum algorithm id {algo}")


# ---------------------------------------------------------------------------
# Deep verification
# ---------------------------------------------------------------------------


@dataclass
class IntegrityReport:
    """What :func:`verify_archive` validated, for reporting."""

    version: int
    checksum_algo: str
    n_sections: int
    section_bytes: dict[str, int] = field(default_factory=dict)
    kind: str = "sections"  # single-field | blocks | checkpoint | pwrel | sections
    nested: dict[str, "IntegrityReport"] = field(default_factory=dict)

    @property
    def total_sections_checked(self) -> int:
        return self.n_sections + sum(r.total_sections_checked for r in self.nested.values())

    def summary(self) -> str:
        lines = [
            f"format v{self.version} ({self.checksum_algo}"
            f"{'' if self.version >= 2 else ', no checksums'}), kind={self.kind}",
            f"sections verified: {self.total_sections_checked}"
            f" ({len(self.nested)} nested archive(s))",
        ]
        return "\n".join(lines)


def verify_archive(blob: bytes, deep: bool = True) -> IntegrityReport:
    """Validate an archive without decompressing it.

    Checks framing, the v2 header digest and every section checksum, the
    plausibility of the ``meta``/``bmeta``/``cmeta``/``pw.meta`` metadata,
    and -- when ``deep`` -- recurses into nested block / rank / point-wise
    archives.  Raises :class:`ArchiveError` (or the narrower
    :class:`IntegrityError`) on the first violation; returns an
    :class:`IntegrityReport` when the archive is sound.
    """
    from .archive import ArchiveReader

    reader = ArchiveReader(blob)  # framing + header digest
    reader.verify_all()  # every section checksum (v2; no-op for v1)
    report = IntegrityReport(
        version=reader.version,
        checksum_algo=ALGO_NAMES.get(reader.checksum_algo, "none"),
        n_sections=len(reader.names()),
        section_bytes=reader.section_sizes(),
    )

    if reader.has("meta"):
        report.kind = "single-field"
        _verify_single_field(reader)
    elif reader.has("bmeta"):
        report.kind = "blocks"
        _verify_nested(reader, blob, report, "bmeta", "blk", deep)
    elif reader.has("cmeta"):
        report.kind = "checkpoint"
        _verify_nested(reader, blob, report, "cmeta", "r", deep)
    elif reader.has("pw.inner"):
        report.kind = "pwrel"
        if len(reader.get_bytes("pw.meta")) != 17:
            raise ArchiveError("pwrel metadata malformed")
        if deep:
            report.nested["pw.inner"] = verify_archive(reader.get_bytes("pw.inner"), deep)
    return report


def _verify_single_field(reader) -> None:
    """Metadata/section cross-checks for one compressed field (no decode)."""
    from .compressor import _check_outlier_indices, _unpack_meta

    meta = _unpack_meta(reader.get_bytes("meta"))
    for name in ("o.idx", "o.val"):
        arr = reader.get_array(name)
        if arr.size != meta["n_outliers"]:
            raise ArchiveError(
                f"outlier section {name!r} holds {arr.size} entries, "
                f"header says {meta['n_outliers']}"
            )
    _check_outlier_indices(reader.get_array("o.idx"), meta["n_symbols"])
    if meta["workflow"] in ("rle", "rle+vle") and reader.has("r.len"):
        n_lens = reader.get_array("r.len").size
        if n_lens != meta["n_runs"]:
            raise ArchiveError(
                f"RLE length section holds {n_lens} runs, header says {meta['n_runs']}"
            )


def _verify_nested(reader, blob, report, meta_name: str, prefix: str, deep: bool) -> None:
    """Shared manifest walk for block and checkpoint containers."""
    if meta_name == "bmeta":
        from .streaming import _unpack_manifest

        n = _unpack_manifest(reader.get_bytes(meta_name)).n_blocks
    else:
        from ..parallel.checkpoint import _unpack_cmeta

        n = _unpack_cmeta(reader.get_bytes(meta_name)).n_ranks
    for k in range(n):
        name = f"{prefix}{k}"
        if not reader.has(name):
            raise ArchiveError(f"container manifest lists {name!r} but section is missing")
        if deep:
            report.nested[name] = verify_archive(reader.get_bytes(name), deep)


# ---------------------------------------------------------------------------
# Fault injection (consumed by tests/fuzz)
# ---------------------------------------------------------------------------


def flip_bit(blob: bytes, bit_index: int) -> bytes:
    """Return ``blob`` with exactly one bit flipped."""
    if not 0 <= bit_index < 8 * len(blob):
        raise ValueError(f"bit {bit_index} outside blob of {len(blob)} bytes")
    out = bytearray(blob)
    out[bit_index >> 3] ^= 1 << (bit_index & 7)
    return bytes(out)


def _v2_table_span(blob: bytes) -> tuple[int, int, int]:
    """(table_offset, entry_size, n_sections) of a v2/v3 archive's section
    table (v3 shares the v2 container layout)."""
    from .archive import _ENTRY_V2, _HEADER_V2, MAGIC

    magic, version, n_sections = struct.unpack_from("<8sHI", blob, 0)
    if magic != MAGIC or version not in (2, 3):
        raise ArchiveError("not a v2/v3 archive")
    return _HEADER_V2.size, _ENTRY_V2.size, n_sections


def with_swapped_table_entries(blob: bytes, i: int = 0, j: int = 1) -> bytes:
    """Swap two v2 section-table entries in place (digest left stale)."""
    off, esz, n = _v2_table_span(blob)
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"cannot swap entries {i},{j} of {n}")
    out = bytearray(blob)
    a, b = off + i * esz, off + j * esz
    out[a : a + esz], out[b : b + esz] = blob[b : b + esz], blob[a : a + esz]
    return bytes(out)


def with_mutated_section_length(blob: bytes, index: int, delta: int) -> bytes:
    """Add ``delta`` to one v2 table entry's recorded payload length."""
    off, esz, n = _v2_table_span(blob)
    if not 0 <= index < n:
        raise ValueError(f"entry {index} outside table of {n}")
    pos = off + index * esz + 24  # past name[16] + dtype[8]
    (length,) = struct.unpack_from("<Q", blob, pos)
    out = bytearray(blob)
    struct.pack_into("<Q", out, pos, max(length + delta, 0))
    return bytes(out)


def iter_corruptions(
    blob: bytes,
    *,
    bit_positions: int = 64,
    truncation_points: int = 32,
    seed: int = 0,
) -> Iterator[tuple[str, bytes]]:
    """Yield ``(label, corrupted_blob)`` variants of a v2 archive.

    Covers the fault classes the format must detect: single-bit flips
    spread over the whole blob (header, table, digest, and every payload
    region), truncation at sampled boundaries plus the exact section
    boundaries, swapped section-table entries, and over/under-stated
    section lengths.  Deterministic for a given ``seed``.
    """
    import numpy as np

    n = len(blob)
    rng = np.random.default_rng(seed)
    for bit in sorted(rng.choice(8 * n, size=min(bit_positions, 8 * n), replace=False)):
        yield f"bitflip@{int(bit)}", flip_bit(blob, int(bit))
    cuts = set(np.linspace(1, n - 1, min(truncation_points, n - 1), dtype=int).tolist())
    try:
        off, esz, n_sections = _v2_table_span(blob)
        cuts.update(off + k * esz for k in range(n_sections + 1))
        for index in range(n_sections):
            for delta in (-1, 1, 4096):
                bad = with_mutated_section_length(blob, index, delta)
                if bad != blob:  # shrinking a zero-length entry is a no-op
                    yield f"length{delta:+d}@entry{index}", bad
        if n_sections >= 2:
            yield "table-swap", with_swapped_table_entries(blob, 0, n_sections - 1)
    except ArchiveError:
        pass  # not v2: bit-flips and truncations still apply
    for cut in sorted(c for c in cuts if 0 < c < n):
        yield f"truncate@{cut}", blob[:cut]
    yield "empty", b""

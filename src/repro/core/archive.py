"""Self-describing binary archive for compressed fields.

The archive is a small sectioned container: a fixed header, a section table
(name, dtype, byte length), and the concatenated section payloads.  Every
byte the decompressor needs is inside, so compression-ratio accounting is
honest: ``CR = original_bytes / len(archive)`` includes codebooks, chunk
metadata, outliers, and the header itself (the paper's Table IV note about
chunkwise metadata overhead).

Format **v2** adds verifiable framing: the header records the
whole-archive byte count and a checksum algorithm id, every section-table
entry carries a checksum of its payload, and a digest of the header +
section table follows the table.  A flipped bit or truncated payload is
therefore detected *before* it reaches Huffman decode and raises a typed
:class:`IntegrityError`/:class:`ArchiveError` instead of silently decoding
to garbage.

Format **v3** keeps the v2 container byte layout unchanged -- only the
header's version field differs -- and signals *indexed Huffman payloads*:
every Huffman chunk starts at a byte boundary and a sync-point section
(``<prefix>.idx``, per-chunk byte offsets) accompanies each bitstream, so
chunk groups decode independently and in parallel (arXiv:2201.09118's gap
array).  :class:`ArchiveBuilder` writes v3 with CRC-32 and nothing else;
v1 and v2 archives are read-only (:class:`ArchiveReader` still parses and
verifies them).

The layout is deliberately explicit (struct-packed, little-endian) rather
than pickle/JSON so archives are portable and their size is deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArchiveError, IntegrityError
from .integrity import ALGO_CRC32, ALGO_NAMES, checksum

__all__ = [
    "ArchiveBuilder",
    "ArchiveReader",
    "MAGIC",
    "VERSION",
]

MAGIC = b"RPRSZP1\x00"
VERSION = 3

#: v1 layout: header (magic, version, n_sections) + per-section
#: (name, dtype, length) entries + concatenated payloads.
_HEADER_V1 = struct.Struct("<8sHI")
_ENTRY_V1 = struct.Struct("<16s8sQ")

#: v2 layout: header additionally records the checksum algorithm id, a
#: reserved flags byte, and the total archive byte count; each entry gains
#: a payload checksum; a u32 digest of header+table sits after the table.
_HEADER_V2 = struct.Struct("<8sHIBB2xQ")  # magic, version, n_sections, algo, flags, total
_ENTRY_V2 = struct.Struct("<16s8sQI")  # name, dtype, length, payload checksum
_DIGEST = struct.Struct("<I")

#: dtype tag for raw (untyped) byte sections.
_RAW = b"raw"


def _dtype_tag(dtype: np.dtype) -> bytes:
    tag = np.dtype(dtype).str.encode()  # e.g. b"<u2", b"<f4"
    if len(tag) > 8:
        raise ArchiveError(f"dtype tag too long: {tag!r}")
    return tag


def _note_corruption(kind: str) -> None:
    """Count a detected-corruption event (telemetry; no-op when disabled)."""
    from .. import telemetry as tel
    from ..telemetry import instruments as ins

    if tel.enabled():
        ins.INTEGRITY_FAILURES.inc(kind=kind)


@dataclass
class _Section:
    name: str
    dtype: bytes
    payload: bytes


class ArchiveBuilder:
    """Accumulate named sections and serialize to one byte blob.

    Always writes format v3 with CRC-32 section checksums and header digest,
    so an archive's bytes depend only on its sections, never on the host.
    """

    def __init__(self) -> None:
        self._sections: list[_Section] = []
        self._names: set[str] = set()

    def add_bytes(self, name: str, payload: bytes) -> "ArchiveBuilder":
        """Add an untyped byte section."""
        self._add(name, _RAW, bytes(payload))
        return self

    def add_array(self, name: str, arr: np.ndarray) -> "ArchiveBuilder":
        """Add a 1-D typed array section (dtype is recorded for the reader)."""
        arr = np.ascontiguousarray(arr)
        self._add(name, _dtype_tag(arr.dtype), arr.tobytes())
        return self

    def _add(self, name: str, dtype: bytes, payload: bytes) -> None:
        if not name:
            raise ArchiveError("section name must be non-empty")
        if len(name.encode()) > 16:
            raise ArchiveError(f"section name too long: {name!r}")
        if name in self._names:
            raise ArchiveError(f"duplicate section {name!r}")
        self._names.add(name)
        self._sections.append(_Section(name, dtype, payload))

    def to_bytes(self) -> bytes:
        """Serialize header + section table + digest + payloads."""
        payload_total = sum(len(s.payload) for s in self._sections)
        total = (
            _HEADER_V2.size
            + _ENTRY_V2.size * len(self._sections)
            + _DIGEST.size
            + payload_total
        )
        parts = [
            _HEADER_V2.pack(MAGIC, VERSION, len(self._sections), ALGO_CRC32, 0, total)
        ]
        for s in self._sections:
            parts.append(
                _ENTRY_V2.pack(
                    s.name.encode().ljust(16, b"\x00"),
                    s.dtype.ljust(8, b"\x00"),
                    len(s.payload),
                    checksum(s.payload, ALGO_CRC32),
                )
            )
        head_and_table = b"".join(parts)
        parts.append(_DIGEST.pack(checksum(head_and_table, ALGO_CRC32)))
        for s in self._sections:
            parts.append(s.payload)
        return b"".join(parts)

    def section_sizes(self) -> dict[str, int]:
        """Per-section payload byte counts (for size breakdowns)."""
        return {s.name: len(s.payload) for s in self._sections}

    @property
    def overhead_bytes(self) -> int:
        """Header + section-table + digest bytes: the container's footprint."""
        return _HEADER_V2.size + _ENTRY_V2.size * len(self._sections) + _DIGEST.size


class ArchiveReader:
    """Parse an archive blob and expose sections by name.

    Reads v1, v2 and v3.  For v2/v3 the constructor validates framing (declared
    total size) and the header/table digest; each section's payload checksum
    is validated on first access (:meth:`get_bytes` / :meth:`get_array`), and
    :meth:`verify_all` forces validation of every section up front.
    """

    def __init__(self, blob: bytes) -> None:
        blob = bytes(blob)
        if len(blob) < _HEADER_V1.size:
            raise ArchiveError("archive truncated: missing header")
        magic, version = struct.unpack_from("<8sH", blob, 0)
        if magic != MAGIC:
            raise ArchiveError(f"bad magic {magic!r}; not a repro archive")
        self._blob = blob
        self.version = int(version)
        self.checksum_algo = 0
        #: name -> (dtype tag, payload offset, length, checksum or None)
        self._sections: dict[str, tuple[bytes, int, int, int | None]] = {}
        self._verified: set[str] = set()
        if version == 1:
            self._parse_v1(blob)
        elif version in (2, 3):
            # v3 shares the v2 container layout byte-for-byte; the version
            # field only signals indexed (byte-aligned) Huffman payloads.
            self._parse_v2(blob)
        else:
            raise ArchiveError(f"unsupported archive version {version}")

    # -- parsing ----------------------------------------------------------

    def _parse_v1(self, blob: bytes) -> None:
        _, _, n_sections = _HEADER_V1.unpack_from(blob, 0)
        table_end = _HEADER_V1.size + _ENTRY_V1.size * n_sections
        if len(blob) < table_end:
            raise ArchiveError("archive truncated: incomplete section table")
        offset, payload_off = _HEADER_V1.size, table_end
        for _ in range(n_sections):
            raw_name, raw_dtype, length = _ENTRY_V1.unpack_from(blob, offset)
            offset += _ENTRY_V1.size
            name = self._decode_name(raw_name)
            if payload_off + length > len(blob):
                raise ArchiveError(f"archive truncated: section {name!r} payload")
            self._sections[name] = (raw_dtype.rstrip(b"\x00"), payload_off, int(length), None)
            payload_off += length

    def _parse_v2(self, blob: bytes) -> None:
        if len(blob) < _HEADER_V2.size:
            raise ArchiveError("archive truncated: missing v2 header")
        _, _, n_sections, algo, flags, total = _HEADER_V2.unpack_from(blob, 0)
        if flags != 0:
            raise ArchiveError(f"unsupported archive flags 0x{flags:02x}")
        if algo not in ALGO_NAMES:
            raise ArchiveError(f"unknown checksum algorithm id {algo}")
        self.checksum_algo = int(algo)
        table_end = _HEADER_V2.size + _ENTRY_V2.size * n_sections
        digest_end = table_end + _DIGEST.size
        if len(blob) < digest_end:
            raise ArchiveError("archive truncated: incomplete section table")
        if total != len(blob):
            _note_corruption("framing")
            raise ArchiveError(
                f"archive framing mismatch: header declares {total} bytes, got {len(blob)}"
            )
        (stored_digest,) = _DIGEST.unpack_from(blob, table_end)
        if checksum(blob[:table_end], algo) != stored_digest:
            _note_corruption("header_digest")
            raise IntegrityError(
                "archive header/section-table digest mismatch (corrupt header)"
            )
        offset, payload_off = _HEADER_V2.size, digest_end
        for _ in range(n_sections):
            raw_name, raw_dtype, length, crc = _ENTRY_V2.unpack_from(blob, offset)
            offset += _ENTRY_V2.size
            name = self._decode_name(raw_name)
            if payload_off + length > len(blob):
                raise ArchiveError(f"archive truncated: section {name!r} payload")
            self._sections[name] = (
                raw_dtype.rstrip(b"\x00"), payload_off, int(length), int(crc),
            )
            payload_off += length
        if payload_off != len(blob):
            _note_corruption("framing")
            raise ArchiveError(
                f"archive has {len(blob) - payload_off} trailing bytes past the last section"
            )

    def _decode_name(self, raw_name: bytes) -> str:
        try:
            name = raw_name.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError:
            raise ArchiveError("corrupt section table: non-ASCII section name") from None
        if not name:
            raise ArchiveError("corrupt section table: empty section name")
        if name in self._sections:
            raise ArchiveError(f"corrupt section table: duplicate section {name!r}")
        return name

    # -- access -----------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._sections)

    def section_sizes(self) -> dict[str, int]:
        """Payload bytes per section, in archive order."""
        return {name: length for name, (_, _, length, _) in self._sections.items()}

    def section_spans(self) -> dict[str, tuple[int, int]]:
        """``name -> (payload byte offset, length)``, in archive order.

        Lets tooling (the conformance checker's diff report) map a raw byte
        offset in the blob back to the section it lands in.
        """
        return {name: (off, length) for name, (_, off, length, _) in self._sections.items()}

    def has(self, name: str) -> bool:
        return name in self._sections

    def get_bytes(self, name: str) -> bytes:
        _, off, length, crc = self._entry(name)
        payload = self._blob[off : off + length]
        if crc is not None and name not in self._verified:
            if checksum(payload, self.checksum_algo) != crc:
                _note_corruption("section_checksum")
                raise IntegrityError(
                    f"section {name!r} checksum mismatch (corrupt payload)"
                )
            self._verified.add(name)
        return payload

    def get_array(self, name: str) -> np.ndarray:
        """Read back a typed array section (1-D, recorded dtype)."""
        raw_dtype = self._entry(name)[0]
        if raw_dtype == _RAW:
            raise ArchiveError(f"section {name!r} is raw bytes, not an array")
        try:
            dtype = np.dtype(raw_dtype.decode("ascii"))
        except (TypeError, UnicodeDecodeError):
            raise ArchiveError(
                f"section {name!r} has a corrupt dtype tag {raw_dtype!r}"
            ) from None
        payload = self.get_bytes(name)
        if len(payload) % dtype.itemsize:
            raise ArchiveError(
                f"section {name!r} holds {len(payload)} bytes, not a multiple of "
                f"dtype {dtype} itemsize {dtype.itemsize}"
            )
        return np.frombuffer(payload, dtype=dtype)

    def verify_all(self) -> None:
        """Validate every section's checksum now (v2; no-op for v1)."""
        for name in self._sections:
            self.get_bytes(name)

    def _entry(self, name: str) -> tuple[bytes, int, int, int | None]:
        try:
            return self._sections[name]
        except KeyError:
            raise ArchiveError(f"archive has no section {name!r}") from None

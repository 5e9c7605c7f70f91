"""Vectorized variable-length bit packing and unpacking.

GPU Huffman encoders write each symbol's codeword at a data-dependent bit
offset computed with a prefix sum over the code lengths, and cuSZ+ stores an
output word to DRAM only once it is complete (arXiv:2105.12912 §IV).  This
module packs the same way with NumPy, a 64-bit word at a time: each codeword
is left-aligned in a ``uint64`` (``code << (64 - length)``) and shifted to
its bit phase inside the word its span starts in; the codes that start in
one word are OR-ed together with one ``np.bitwise_or.reduceat`` over the
ascending word indices, and the at-most-one code that crosses each word
boundary ORs its spilled low bits into the next word.  Words are stored
big-endian, so the bytes are MSB-first -- the layout ``np.packbits`` gives a
bit array.  Temporaries are a few arrays with one element per codeword, no
Python-level loop and nothing per coded bit.

Bit order is MSB-first within each codeword and within each byte, matching
the canonical-Huffman decode tables in :mod:`repro.encoding.huffman`.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import EncodingError

__all__ = [
    "pack_codes",
    "pack_codes_at",
    "pack_words_into",
    "unpack_to_bits",
    "peek_bits",
    "peek_bits_prepadded",
    "bits_to_bytes",
]


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Concatenate variable-length codewords into a dense bitstream.

    Parameters
    ----------
    codes:
        Per-symbol codewords, right-aligned in a ``uint64`` (the codeword's
        most significant bit is bit ``length - 1``; bits above it are
        ignored).
    lengths:
        Per-symbol codeword bit lengths (1..64).

    Returns
    -------
    (packed, total_bits):
        ``packed`` is a ``uint8`` array (MSB-first; final byte zero-padded),
        ``total_bits`` the exact number of meaningful bits.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1]) if ends.size else 0
    return pack_codes_at(codes, lengths, ends - lengths, total_bits), total_bits


def pack_codes_at(
    codes: np.ndarray, lengths: np.ndarray, starts: np.ndarray, total_bits: int
) -> np.ndarray:
    """Place variable-length codewords at explicit bit offsets.

    Like :func:`pack_codes` but each codeword lands at its own ``starts[i]``
    bit position instead of being densely concatenated; unwritten gaps stay
    zero.  This is how the format-v3 indexed payload byte-aligns every
    chunk: the caller computes per-chunk byte offsets and passes absolute
    per-symbol bit positions.

    The spans ``[starts[i], starts[i] + lengths[i])`` must lie inside
    ``total_bits``, in ascending order and without overlap (adjacent spans
    may touch); anything else raises :class:`EncodingError`.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    if not (codes.shape == lengths.shape == starts.shape):
        raise EncodingError("codes, lengths and starts must have identical shapes")
    codes, lengths, starts = codes.reshape(-1), lengths.reshape(-1), starts.reshape(-1)
    if total_bits < 0:
        raise EncodingError(f"total_bits must be >= 0, got {total_bits}")
    words = np.zeros(-(-total_bits // 64), dtype=">u8")
    if codes.size:
        if lengths.min() < 1 or lengths.max() > 64:
            raise EncodingError("code lengths must be in 1..64")
        if starts.min() < 0 or int((starts + lengths).max()) > total_bits:
            raise EncodingError("codeword bit span falls outside total_bits")
        if np.any(starts[1:] < starts[:-1] + lengths[:-1]):
            raise EncodingError(
                "codeword spans must be in ascending order and must not overlap"
            )
        left = codes << (np.uint64(64) - lengths.astype(np.uint64))
        pack_words_into(words, left, lengths, starts)
    return words.view(np.uint8)[: bits_to_bytes(total_bits)]


def pack_words_into(
    words: np.ndarray, left: np.ndarray, lengths: np.ndarray, starts: np.ndarray
) -> None:
    """OR codewords into a word buffer at the given bit offsets.

    ``words`` is a ``uint64`` buffer (big-endian ``">u8"`` for MSB-first
    bytes) whose bit ``b`` is bit ``63 - b % 64`` of word ``b // 64``.
    ``left`` holds the codewords left-aligned (``code << (64 - length)``,
    ``uint64``), ``lengths`` their lengths (1..64, ``uint8`` or ``int64``)
    and ``starts`` their first bits (``int64``).  The spans must be ascending,
    non-overlapping and inside the buffer -- unchecked here;
    :func:`pack_codes_at` validates them for outside callers.  Bits already
    set in ``words`` are kept, so consecutive calls over adjacent runs of
    codes may share a boundary word.
    """
    word = starts >> 6
    phase = starts & 63
    # Each code's bits that fall inside the word its span starts in.
    head = left >> phase.view(np.uint64)
    first = np.flatnonzero(word[1:] != word[:-1])
    first += 1
    first = np.concatenate(([0], first))
    words[word[first]] |= np.bitwise_or.reduceat(head, first)
    # A span crossing a word boundary spills its low bits into the next
    # word; spans do not overlap, so at most one spills into each word.
    spill = np.flatnonzero(phase + lengths > 64)
    if spill.size:
        words[word[spill] + 1] |= left[spill] << (64 - phase[spill]).view(np.uint64)


def unpack_to_bits(packed: np.ndarray, total_bits: int) -> np.ndarray:
    """Expand a packed byte stream back to a 0/1 ``uint8`` bit array."""
    packed = np.asarray(packed, dtype=np.uint8)
    if total_bits < 0 or total_bits > packed.size * 8:
        raise EncodingError(
            f"total_bits {total_bits} inconsistent with {packed.size} packed bytes"
        )
    return np.unpackbits(packed, count=total_bits)


def peek_bits(bits: np.ndarray, positions: np.ndarray, width: int) -> np.ndarray:
    """Read ``width`` bits starting at each of ``positions``, as integers.

    Reads past the end of the stream are zero-padded, mirroring how a GPU
    decoder over-fetches its last word.  Vectorized over positions; the
    bit-array counterpart of :func:`peek_bits_prepadded`, and the reference
    it is tested against.
    """
    if not 1 <= width <= 63:
        raise EncodingError(f"peek width must be 1..63, got {width}")
    positions = np.asarray(positions, dtype=np.int64)
    n = bits.shape[0]
    if n == 0:
        # An empty stream is all padding: every window reads as zero.
        return np.zeros(positions.shape, dtype=np.int64)
    idx = positions[:, None] + np.arange(width, dtype=np.int64)[None, :]
    valid = idx < n
    window = np.where(valid, bits[np.minimum(idx, n - 1)], 0).astype(np.int64)
    weights = (np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64))
    return window @ weights


def peek_bits_prepadded(padded: np.ndarray, positions: np.ndarray, width: int) -> np.ndarray:
    """Read ``width`` (1..63) bits at each bit ``position`` of packed bytes.

    The caller pads the stream with 9 zero bytes, once, so repeated peeks
    cost no copy and every window at or one bit past the payload reads
    zeros there -- how a GPU decoder over-fetches its last word.  Instead
    of gathering ``width`` single bits it gathers the bytes covering the
    window and shifts, the word-at-a-time read a GPU decoder performs.  A
    ``width``-bit read at any bit phase spans ``ceil((width + 7) / 8)``
    bytes, so narrow peeks (the decode table's fast level) cost 2-3 gathers.
    Windows of 58 to 63 bits span nine bytes: the 8-byte word at the byte
    index is shifted left by the bit phase and the ninth byte's top bits
    are OR-ed in below it.
    """
    if not 1 <= width <= 63:
        raise EncodingError(f"peek width must be 1..63, got {width}")
    positions = np.asarray(positions, dtype=np.int64)
    byte_idx = positions >> 3
    phase = (positions & 7).astype(np.uint64)
    nbytes = (width + 14) // 8  # covers width bits at any of the 8 phases
    acc = np.zeros(positions.shape, dtype=np.uint64)
    for k in range(min(nbytes, 8)):
        acc = (acc << np.uint64(8)) | padded[byte_idx + k].astype(np.uint64)
    if nbytes > 8:
        ninth = padded[byte_idx + 8].astype(np.uint64)
        acc = (acc << phase) | (ninth >> (np.uint64(8) - phase))
        return (acc >> np.uint64(64 - width)).astype(np.int64)
    shift = np.uint64(nbytes * 8 - width) - phase
    mask = np.uint64((1 << width) - 1)
    return ((acc >> shift) & mask).astype(np.int64)


def bits_to_bytes(total_bits: int) -> int:
    """Number of bytes needed to hold ``total_bits`` bits."""
    return (int(total_bits) + 7) // 8

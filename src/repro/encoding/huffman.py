"""Canonical Huffman codebooks over multi-byte quant-code symbols.

cuSZ builds a *canonical* Huffman codebook (compression Step-6) so that the
decoder needs only the code-length sequence, not the tree: canonical codes
of the same length are consecutive integers, assigned in symbol order.  That
property is what makes the GPU decoder a table lookup (and our vectorized
decoder a ``searchsorted``): reading ``max_length`` bits ahead, the numeric
value alone determines both the code length and the symbol index.

The alphabet is the quant-code dictionary (typically 1024 symbols, i.e.
"multi-byte symbols" -- wider than one byte), which is the paper's ``h``
stage as opposed to byte-oriented gzip (``g``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..core.errors import CodebookOverflowError, EncodingError

__all__ = [
    "CanonicalCodebook",
    "DecodeTable",
    "build_code_lengths",
    "build_codebook",
    "build_decode_table",
]


def build_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code lengths from symbol frequencies.

    Standard two-queue/heap construction.  Symbols with zero frequency get
    length 0 (absent from the codebook).  A degenerate one-symbol alphabet
    gets length 1.  Ties are broken deterministically by symbol order so the
    codebook is reproducible across runs.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    nonzero = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nonzero.size == 0:
        raise EncodingError("cannot build a codebook from an all-zero histogram")
    if nonzero.size == 1:
        lengths[nonzero[0]] = 1
        return lengths
    # Heap of (frequency, tiebreak, node).  Leaves are symbol ids; internal
    # nodes are lists of their leaf symbols.
    heap: list[tuple[int, int, list[int]]] = [
        (int(freqs[s]), int(s), [int(s)]) for s in nonzero
    ]
    heapq.heapify(heap)
    tiebreak = int(freqs.size)
    depth = np.zeros(freqs.size, dtype=np.int64)
    while len(heap) > 1:
        fa, _, leaves_a = heapq.heappop(heap)
        fb, _, leaves_b = heapq.heappop(heap)
        merged = leaves_a + leaves_b
        depth[merged] += 1
        heapq.heappush(heap, (fa + fb, tiebreak, merged))
        tiebreak += 1
    if depth.max() > 63:
        # Astronomically skewed inputs could exceed the 64-bit codeword; the
        # practical alphabets here (<= 64k symbols) cannot, but guard anyway.
        raise EncodingError("Huffman code length exceeds 63 bits")
    lengths[nonzero] = depth[nonzero]
    return lengths


@dataclass
class CanonicalCodebook:
    """A canonical Huffman codebook over a fixed-size alphabet.

    Attributes
    ----------
    lengths:
        Per-symbol code length (0 = symbol absent).  This array alone fully
        determines the codebook and is what the archive serializes.
    codes:
        Per-symbol canonical codeword, right-aligned ``uint64``.
    max_length:
        Longest code length.
    sorted_symbols:
        Symbols sorted by (length, symbol) -- the canonical order; decoding
        maps a codeword index straight into this array.
    first_code:
        ``first_code[L]`` = numeric value of the first (smallest) codeword of
        length ``L``.
    first_index:
        ``first_index[L]`` = position in ``sorted_symbols`` of that codeword.
    """

    lengths: np.ndarray
    codes: np.ndarray
    max_length: int
    sorted_symbols: np.ndarray
    first_code: np.ndarray
    first_index: np.ndarray

    @property
    def alphabet_size(self) -> int:
        return int(self.lengths.size)

    def average_bit_length(self, freqs: np.ndarray) -> float:
        """Frequency-weighted mean codeword length ⟨b⟩ for this book."""
        freqs = np.asarray(freqs, dtype=np.float64)
        total = freqs.sum()
        if total <= 0:
            raise EncodingError("empty frequency vector")
        return float((freqs * self.lengths).sum() / total)

    def encoded_bits(self, freqs: np.ndarray) -> int:
        """Exact payload size in bits for data with these frequencies."""
        return int((np.asarray(freqs, dtype=np.int64) * self.lengths).sum())

    def serialized(self) -> bytes:
        """Serialize (just the length table -- canonical codes are implied)."""
        return self.lengths.astype(np.uint8).tobytes()

    @classmethod
    def deserialized(cls, raw: bytes) -> "CanonicalCodebook":
        lengths = np.frombuffer(raw, dtype=np.uint8)
        return _from_lengths(lengths.copy())

    def serialized_sparse(self) -> bytes:
        """Sparse serialization: (alphabet u32, count u32, [symbol u32,
        length u8] pairs).  Wins when few symbols of a large alphabet are
        present -- e.g. Huffman over 16-bit RLE run lengths, where a dense
        64 KiB table would dwarf the payload."""
        symbols = np.flatnonzero(self.lengths > 0).astype(np.uint32)
        header = np.array([self.alphabet_size, symbols.size], dtype=np.uint32)
        return (
            header.tobytes()
            + symbols.tobytes()
            + self.lengths[symbols].astype(np.uint8).tobytes()
        )

    @classmethod
    def deserialized_sparse(cls, raw: bytes) -> "CanonicalCodebook":
        if len(raw) < 8:
            raise EncodingError("sparse codebook truncated")
        alphabet, count = np.frombuffer(raw[:8], dtype=np.uint32)
        expected = 8 + 4 * int(count) + int(count)
        if len(raw) != expected:
            raise EncodingError(
                f"sparse codebook has {len(raw)} bytes, expected {expected}"
            )
        symbols = np.frombuffer(raw[8 : 8 + 4 * int(count)], dtype=np.uint32)
        lens = np.frombuffer(raw[8 + 4 * int(count) :], dtype=np.uint8)
        if int(alphabet) < 1 or int(alphabet) > 1 << 24:
            raise EncodingError(f"sparse codebook: implausible alphabet {alphabet}")
        if symbols.size and int(symbols.max()) >= int(alphabet):
            raise EncodingError("sparse codebook: symbol outside its alphabet")
        if np.unique(symbols).size != symbols.size:
            # Last-write-wins scatter would silently drop entries, yielding a
            # codebook whose length table no longer matches the serialized
            # bytes -- a crafted archive must fail loudly instead.
            raise EncodingError("sparse codebook: duplicate symbol entries")
        lengths = np.zeros(int(alphabet), dtype=np.uint8)
        lengths[symbols.astype(np.int64)] = lens
        return _from_lengths(lengths)

    # -- decode-side helpers -------------------------------------------------

    def decode_boundaries(self, peek_width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed tables for value-based decoding at ``peek_width`` bits.

        Returns ``(boundaries, lengths_per_bucket, index_bias)`` where a
        peeked value ``v`` falls in bucket
        ``searchsorted(boundaries, v, 'right') - 1``; the bucket gives the
        code length ``L`` and ``sorted_symbols[(v >> (peek_width - L)) -
        first_code[L] + first_index[L]]`` is the symbol.
        """
        if peek_width < self.max_length:
            raise EncodingError("peek width shorter than the longest code")
        present = np.flatnonzero(
            np.bincount(self.lengths[self.lengths > 0], minlength=self.max_length + 1)
        )
        shifted = [int(self.first_code[L]) << (peek_width - int(L)) for L in present]
        if any(b >= 1 << 63 for b in shifted):
            # Cannot happen for a per-level-valid table (first_code[L] <
            # 2**L and peek_width <= 63), but a guard beats an int64
            # overflow for pathological near-63-bit codebooks.
            raise EncodingError(
                f"codebook too deep for a {peek_width}-bit decode boundary table"
            )
        boundaries = np.array(shifted, dtype=np.int64)
        return boundaries, present.astype(np.int64), self.first_index[present].astype(np.int64)


def _from_lengths(lengths: np.ndarray) -> CanonicalCodebook:
    """Materialize canonical codes from a length table."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    used = lengths > 0
    if not used.any():
        raise EncodingError("length table has no symbols")
    max_len = int(lengths.max())
    if max_len > 63:
        raise EncodingError(f"invalid length table: {max_len}-bit codes exceed 63")
    # Canonical order: by (length, symbol id).
    symbols = np.flatnonzero(used)
    order = np.lexsort((symbols, lengths[symbols]))
    sorted_symbols = symbols[order].astype(np.int64)
    sorted_lengths = lengths[sorted_symbols].astype(np.int64)
    # first_code per length via the standard canonical recurrence:
    #   code(L) starts at (code(L-1) + count(L-1)) << 1
    counts = np.bincount(sorted_lengths, minlength=max_len + 1)
    first_code = np.zeros(max_len + 1, dtype=np.int64)
    first_index = np.zeros(max_len + 1, dtype=np.int64)
    code = 0
    index = 0
    for L in range(1, max_len + 1):
        # Per-level Kraft check *before* the int64 store: a table that is
        # over-full at an intermediate level (e.g. three 1-bit codes plus a
        # deep tail) would otherwise push ``code`` past 2**63 and crash with
        # an uncaught OverflowError instead of a typed error.
        if code + int(counts[L]) > (1 << L):
            raise EncodingError("invalid (over-full) canonical length table")
        first_code[L] = code
        first_index[L] = index
        code = (code + int(counts[L])) << 1
        index += int(counts[L])
    # Assign per-symbol codes.
    codes = np.zeros(lengths.size, dtype=np.uint64)
    within = np.arange(sorted_symbols.size, dtype=np.int64) - first_index[sorted_lengths]
    codes[sorted_symbols] = (first_code[sorted_lengths] + within).astype(np.uint64)
    return CanonicalCodebook(
        lengths=lengths,
        codes=codes,
        max_length=max_len,
        sorted_symbols=sorted_symbols,
        first_code=first_code,
        first_index=first_index,
    )


def build_codebook(freqs: np.ndarray) -> CanonicalCodebook:
    """Build a canonical codebook straight from a frequency histogram."""
    return _from_lengths(build_code_lengths(freqs))


#: Fast-level index width bounds: at least 12 bits so highly-compressible
#: streams pack many short codes per window, at most 14 to bound the dense
#: table at 16 Ki entries.  Books whose longest code fits the window get no
#: slow level at all.
_FAST_BITS_MIN = 12
_FAST_BITS_MAX = 14

#: Max symbols resolved by a single fast-table hit.
_MAX_PACK = 8


@dataclass
class DecodeTable:
    """Two-level lookup table for canonical-Huffman decoding.

    The *fast* level is a dense table indexed by the top ``fast_bits`` of
    the peeked window.  Canonical codes of the same length are consecutive,
    so left-aligned at ``fast_bits`` they tile a prefix of the table; each
    entry resolves every whole codeword inside the window -- up to
    ``max_pack`` symbols with their cumulative bit lengths -- in one gather.
    Entries whose window starts a code longer than ``fast_bits`` carry
    ``nsym == 0`` and fall through to the *slow* level, a compact
    ``searchsorted`` boundary table restricted to the long code lengths
    (the pre-existing lockstep decode path, now only for rare codes).

    Attributes
    ----------
    fast_bits:
        Fast-level index width F (bits peeked per fast step).
    max_pack:
        Symbol capacity K of one fast entry.
    nsym:
        ``(2**F,)`` whole codewords resolved by each entry (0 = slow path).
    syms:
        ``(2**F, K)`` decoded symbols (columns past ``nsym`` are padding).
    cumlen:
        ``(2**F, K)`` bits consumed after the first ``k + 1`` symbols.
    slow_boundaries / slow_lengths / slow_bias:
        ``decode_boundaries``-style tables covering only lengths > F,
        left-aligned at ``max_length`` (all empty when every code fits).
    """

    fast_bits: int
    max_pack: int
    nsym: np.ndarray
    syms: np.ndarray
    cumlen: np.ndarray
    slow_boundaries: np.ndarray
    slow_lengths: np.ndarray
    slow_bias: np.ndarray

    @property
    def has_slow_level(self) -> bool:
        return bool(self.slow_boundaries.size)


def build_decode_table(book: CanonicalCodebook, fast_bits: int | None = None) -> DecodeTable:
    """Build the two-level decode table for ``book``.

    Built once per codebook (and cached through the engine's
    :class:`~repro.engine.cache.QuantCache` by the archive read path); the
    construction is fully vectorized over the table.
    """
    if fast_bits is None:
        fast_bits = min(max(book.max_length, _FAST_BITS_MIN), _FAST_BITS_MAX)
    if not 1 <= fast_bits <= 24:
        raise EncodingError(f"fast table width must be 1..24, got {fast_bits}")
    F = int(fast_bits)
    size = 1 << F
    sorted_lengths = book.lengths[book.sorted_symbols].astype(np.int64)

    # Fast level, one symbol deep: canonical codes of length L <= F,
    # left-aligned at F bits, tile [0, S) contiguously in canonical order.
    short = sorted_lengths <= F
    ssym = book.sorted_symbols[short].astype(np.int32)
    slen = sorted_lengths[short]
    spans = (np.int64(1) << (F - slen)).astype(np.int64)
    coverage = int(spans.sum())
    sym1 = np.zeros(size, dtype=np.int32)
    len1 = np.zeros(size, dtype=np.uint8)
    sym1[:coverage] = np.repeat(ssym, spans)
    len1[:coverage] = np.repeat(slen, spans)

    # Pack follow-on symbols: a window's remaining bits (zero-extended) are
    # themselves a fast-table index, and a candidate continuation is real
    # exactly when its code length fits the bits actually peeked.
    K = _MAX_PACK
    nsym = (len1 > 0).astype(np.uint8)
    syms = np.zeros((size, K), dtype=np.int32)
    cumlen = np.zeros((size, K), dtype=np.uint8)
    syms[:, 0] = sym1
    cumlen[:, 0] = len1
    tot = len1.astype(np.int64)
    v = np.arange(size, dtype=np.int64)
    for k in range(1, K):
        alive = nsym == k
        if not alive.any():
            break
        rem = (v << tot) & (size - 1)
        ln2 = len1[rem].astype(np.int64)
        can = alive & (ln2 > 0) & (tot + ln2 <= F)
        if not can.any():
            break
        syms[can, k] = sym1[rem[can]]
        tot[can] += ln2[can]
        cumlen[can, k] = tot[can]
        nsym[can] += 1

    if book.max_length > F:
        boundaries, lengths_per_bucket, bias = book.decode_boundaries(book.max_length)
        deep = lengths_per_bucket > F
        slow_boundaries = boundaries[deep]
        slow_lengths = lengths_per_bucket[deep]
        slow_bias = bias[deep]
    else:
        slow_boundaries = np.zeros(0, dtype=np.int64)
        slow_lengths = np.zeros(0, dtype=np.int64)
        slow_bias = np.zeros(0, dtype=np.int64)
    return DecodeTable(
        fast_bits=F,
        max_pack=K,
        nsym=nsym,
        syms=syms,
        cumlen=cumlen,
        slow_boundaries=slow_boundaries,
        slow_lengths=slow_lengths,
        slow_bias=slow_bias,
    )


#: :func:`lookup_lengths` gathers this many symbols at a time (the slab size
#: the encoder packs over).
_LOOKUP_SLAB_SYMBOLS = 1 << 16


def lookup_lengths(book: CanonicalCodebook, symbols: np.ndarray) -> np.ndarray:
    """Per-symbol code lengths (``uint8``); raises if a symbol is absent.

    The codewords are ``book.codes[symbols]``, safe to gather once the
    symbols have passed this check.  The gather runs ``_LOOKUP_SLAB_SYMBOLS``
    symbols at a time from an ``intp`` copy of the slab: numpy converts
    narrower indices to ``intp`` anyway, and a slab's copy stays in cache
    (a 2 Mi-symbol uint16 stream: 1.9 ms against 4.2 ms in one gather).
    """
    symbols = np.asarray(symbols)
    if symbols.size and (int(symbols.min()) < 0 or int(symbols.max()) >= book.alphabet_size):
        raise CodebookOverflowError("symbol outside the codebook alphabet")
    flat = symbols.reshape(-1)
    lengths = np.empty(flat.size, dtype=book.lengths.dtype)
    for a in range(0, flat.size, _LOOKUP_SLAB_SYMBOLS):
        b = a + _LOOKUP_SLAB_SYMBOLS
        np.take(book.lengths, flat[a:b].astype(np.intp), out=lengths[a:b])
    if symbols.size and int(lengths.min()) == 0:
        raise CodebookOverflowError("symbol with no assigned code in the stream")
    return lengths.reshape(symbols.shape)

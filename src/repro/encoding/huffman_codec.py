"""Chunked Huffman encoding/decoding (cuSZ Steps 7-8 and their inverse).

cuSZ Huffman-encodes quant-codes in fixed-size chunks and then "deflates"
(densely concatenates) the per-chunk bitstreams, recording each chunk's bit
length.  The chunk structure is not an implementation detail -- it is what
makes GPU decoding parallel: each thread decodes one chunk independently.

The encoder (:func:`encode`) packs codewords a 64-bit word at a time
(:func:`~repro.encoding.bitio.pack_words_into`, the host form of the cuSZ+
encoder's store-on-completion) over slabs of whole chunks, so its scratch
memory is one byte per symbol plus the payload plus one cache-sized slab.

The primary decoder (:func:`decode`) resolves symbols through a two-level
canonical lookup table (:class:`~repro.encoding.huffman.DecodeTable`): one
gather of the dense fast level yields a *window* of up to ``max_pack``
whole symbols and their cumulative bit lengths.  Codes longer than the fast
index fall back to a compact ``searchsorted`` over the long-code boundaries
-- the same value-based rule the table-free reference decoder
(:func:`decode_lockstep`) applies to every symbol.  Each chunk decodes as a
chain of windows, walked in one of two regimes picked from the stream's
chunk count and payload bits:

* **many chunks** (:func:`decode_lut_lockstep`): every chunk is a lane and
  all lanes advance one window per Python-level step, in lockstep like the
  GPU kernel, so the step count is the chunk size over the packing factor
  however few lanes there are;
* **few chunks** (:func:`decode_lut_jump`): the window starting at every
  bit position is tabulated once, and pointer jumping enumerates each
  chunk's chain in log2(windows) vectorized gathers, so the cost follows
  the payload bits.

Measured on a 2-core host with 4096-symbol chunks, pointer jumping is the
faster regime up to between 32 and 64 chunks; its per-bit arrays take 32
bytes per payload bit, so it is also capped by payload size.  Both regimes
visit the same windows, apply the same checks and return the same symbols,
and chunks stay independent in both.

Format v3 archives byte-align every chunk ("indexed payload"): the encoder
pads each chunk to a byte boundary and records per-chunk byte offsets
(``chunk_offsets``), the gap-array sync points of arXiv:2201.09118.  Chunks
then decode independently -- :func:`split_chunk_groups` partitions a stream
into self-contained sub-streams for parallel workers.

A plain sequential decoder is provided as the correctness reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import EncodingError
from .bitio import (
    bits_to_bytes,
    pack_words_into,
    peek_bits,
    peek_bits_prepadded,
    unpack_to_bits,
)
from .huffman import CanonicalCodebook, DecodeTable, build_decode_table, lookup_lengths

__all__ = [
    "HuffmanEncoded",
    "encode",
    "decode",
    "decode_lut_jump",
    "decode_lut_lockstep",
    "decode_lockstep",
    "decode_sequential",
    "split_chunk_groups",
]

#: Longest code the packed word-at-a-time peek can read; deeper books use
#: the bit-array fallback inside :func:`decode_lockstep`.
_PACKED_PEEK_MAX = 56

#: :func:`encode` packs whole chunks about this many symbols at a time, so a
#: slab's per-symbol temporaries (a few 8-byte arrays) stay in cache.
_ENCODE_SLAB_SYMBOLS = 1 << 16

#: :func:`decode` picks the pointer-jumping regime for streams of at most
#: this many chunks (the measured crossover against the lockstep lanes lies
#: between 32 and 64 chunks of 4096 symbols) ...
_JUMP_MAX_CHUNKS = 32

#: ... and at most this many payload bits, which bounds the regime's
#: per-bit arrays (four int64 arrays) at 32 MiB.
_JUMP_MAX_BITS = 1 << 20


@dataclass
class HuffmanEncoded:
    """A deflated chunked Huffman stream.

    Attributes
    ----------
    payload:
        Dense bitstream bytes.  Without ``chunk_offsets`` the chunks are
        concatenated with no padding; with them every chunk starts at a
        byte boundary (format v3's indexed payload).
    chunk_bits:
        Bit length of each chunk's sub-stream (the deflate metadata).
    n_symbols:
        Total number of encoded symbols.
    chunk_size:
        Symbols per chunk (last chunk may be short).
    chunk_offsets:
        Per-chunk byte offsets into ``payload`` (``uint64``), or ``None``
        for the dense v1/v2 layout.  These are the sync points that let
        chunks decode independently.
    """

    payload: np.ndarray
    chunk_bits: np.ndarray
    n_symbols: int
    chunk_size: int
    chunk_offsets: np.ndarray | None = None

    @property
    def total_bits(self) -> int:
        return int(self.chunk_bits.sum())

    @property
    def payload_bytes(self) -> int:
        return int(self.payload.size)

    @property
    def metadata_bytes(self) -> int:
        """Bytes of deflate metadata (per-chunk bit lengths as uint32, plus
        the sync-point offsets as uint64 for the indexed layout)."""
        n_chunks = int(self.chunk_bits.size)
        return n_chunks * 4 + (n_chunks * 8 if self.chunk_offsets is not None else 0)


def encode(
    symbols: np.ndarray,
    book: CanonicalCodebook,
    chunk_size: int,
    aligned: bool = False,
) -> HuffmanEncoded:
    """Encode a symbol stream into a deflated chunked Huffman bitstream.

    ``aligned`` pads every chunk to a byte boundary and records the
    per-chunk byte offsets (the format-v3 indexed payload); the default
    dense layout concatenates chunks with no padding.

    One pass gathers every symbol's code length (one byte per symbol),
    from which the per-chunk bit lengths, the chunk start bits and the
    payload size follow.  The codewords are then packed a 64-bit word at a
    time (:func:`~repro.encoding.bitio.pack_words_into`) over slabs of whole
    chunks of about ``_ENCODE_SLAB_SYMBOLS`` symbols, straight into the
    payload's word buffer, so scratch memory is the length array, the
    payload and one slab's temporaries, whatever the stream's size.
    """
    symbols = np.asarray(symbols).reshape(-1)
    if symbols.size == 0:
        raise EncodingError("cannot Huffman-encode an empty stream")
    if chunk_size < 1:
        raise EncodingError(f"chunk_size must be >= 1, got {chunk_size}")
    n = symbols.size
    lengths = lookup_lengths(book, symbols)
    # Summed with an int64 accumulator, not by casting the uint8 lengths.
    n_full = n // chunk_size
    chunk_bits = lengths[: n_full * chunk_size].reshape(n_full, chunk_size).sum(
        axis=1, dtype=np.int64
    )
    if n % chunk_size:
        chunk_bits = np.append(chunk_bits, lengths[n_full * chunk_size :].sum(dtype=np.int64))
    offsets = None
    if aligned:
        byte_lens = (chunk_bits + 7) >> 3
        offsets = np.concatenate(([0], np.cumsum(byte_lens)[:-1]))
        chunk_starts = offsets * 8
        total_bits = int(byte_lens.sum()) * 8
    else:
        chunk_starts = np.concatenate(([0], np.cumsum(chunk_bits)[:-1]))
        total_bits = int(chunk_bits.sum())
    words = np.zeros(-(-total_bits // 64), dtype=">u8")
    left_codes = book.codes << (np.uint64(64) - book.lengths)
    slab = max(1, _ENCODE_SLAB_SYMBOLS // chunk_size) * chunk_size
    for a in range(0, n, slab):
        sym = symbols[a : a + slab].astype(np.intp)
        lens = lengths[a : a + slab]
        m = sym.size
        # Bit start of each symbol: its offset inside the slab (an
        # exclusive prefix sum), moved so each chunk begins at its start bit.
        starts = np.empty(m + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = lens
        starts = np.cumsum(starts, out=starts)[:m]
        c0 = a // chunk_size
        shift = chunk_starts[c0 : c0 + -(-m // chunk_size)] - starts[::chunk_size]
        starts += np.repeat(shift, chunk_size)[:m]
        pack_words_into(words, left_codes[sym], lens, starts)
    return HuffmanEncoded(
        payload=words.view(np.uint8)[: bits_to_bytes(total_bits)],
        chunk_bits=chunk_bits.astype(np.uint32),
        n_symbols=int(n),
        chunk_size=int(chunk_size),
        chunk_offsets=None if offsets is None else offsets.astype(np.uint64),
    )


def _chunk_layout(encoded: HuffmanEncoded) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (start_bits, chunk_bits, per_chunk_symbols) for a stream."""
    chunk_bits = encoded.chunk_bits.astype(np.int64)
    n_chunks = int(chunk_bits.size)
    expected_chunks = -(-encoded.n_symbols // encoded.chunk_size)
    if n_chunks != expected_chunks:
        raise EncodingError(
            f"corrupt Huffman stream: {n_chunks} chunks recorded, "
            f"{expected_chunks} expected"
        )
    if encoded.chunk_offsets is not None:
        offsets = np.asarray(encoded.chunk_offsets, dtype=np.int64)
        if offsets.size != n_chunks:
            raise EncodingError(
                "corrupt Huffman stream: sync-point count mismatch"
            )
        if offsets.size and (int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0)):
            raise EncodingError("corrupt Huffman stream: unordered sync points")
        starts = offsets * 8
    else:
        starts = np.concatenate(([0], np.cumsum(chunk_bits)[:-1]))
    bit_limit = encoded.payload_bytes * 8
    if n_chunks and int((starts + chunk_bits).max()) > bit_limit:
        raise EncodingError("corrupt Huffman stream: chunk span outside payload")
    per_chunk = np.full(n_chunks, encoded.chunk_size, dtype=np.int64)
    if n_chunks:
        per_chunk[-1] = encoded.n_symbols - encoded.chunk_size * (n_chunks - 1)
    return starts, chunk_bits, per_chunk


def decode(
    encoded: HuffmanEncoded,
    book: CanonicalCodebook,
    out_dtype=np.uint16,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """Decode via the two-level lookup table (the fast path).

    Picks the regime from the stream's shape: pointer jumping
    (:func:`decode_lut_jump`) for streams of at most ``_JUMP_MAX_CHUNKS``
    chunks and ``_JUMP_MAX_BITS`` payload bits, whose cost follows the
    payload bits; the cross-chunk lockstep (:func:`decode_lut_lockstep`)
    otherwise, whose cost is the chunk size over the packing factor in
    Python-level steps.  Both return identical symbols and raise on the
    same corrupt streams.  ``table`` is built from ``book`` when not
    supplied (the archive read path passes a cached one).
    """
    return _decode_lut(encoded, book, out_dtype, table, regime=None)


def decode_lut_lockstep(
    encoded: HuffmanEncoded,
    book: CanonicalCodebook,
    out_dtype=np.uint16,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """:func:`decode`'s many-chunk regime, whatever the stream's shape.

    Every chunk is a lane advancing in lockstep; one fast-table gather
    resolves up to ``table.max_pack`` symbols per lane per step, so the
    step count is the chunk size over the packing factor however few lanes
    there are.
    """
    return _decode_lut(encoded, book, out_dtype, table, regime=_lockstep_windows)


def decode_lut_jump(
    encoded: HuffmanEncoded,
    book: CanonicalCodebook,
    out_dtype=np.uint16,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """:func:`decode`'s few-chunk regime, whatever the stream's shape.

    Tabulates the next window of every bit position, enumerates each
    chunk's window chain by pointer jumping (log2(windows) vectorized
    gathers over the per-bit arrays) and scatters all symbols at once.
    Scratch memory is 32 bytes per payload bit; :func:`decode` only picks
    this regime up to ``_JUMP_MAX_BITS``.
    """
    return _decode_lut(encoded, book, out_dtype, table, regime=_jump_windows)


@dataclass
class _LutStream:
    """A validated stream staged for the table decoders."""

    starts: np.ndarray  # first bit of each chunk
    ends: np.ndarray  # bit each chunk's decode must end on
    per_chunk: np.ndarray  # symbols in each chunk
    padded: np.ndarray  # payload plus 8 zero bytes of peek overrun
    win: np.ndarray  # big-endian 32-bit window at every byte offset
    bit_limit: int
    chunk_size: int
    n_symbols: int

    @property
    def overrun(self) -> int:
        """Where a cursor that runs past the payload parks: one bit beyond
        it, so the chunk's end-bit check fails instead of matching a chunk
        that ends on the payload's last bit."""
        return self.bit_limit + 1

    def fast_index(self, pos: np.ndarray, fast_bits: int) -> np.ndarray:
        """The fast-table index (top ``fast_bits`` bits) at each bit position."""
        shift = (32 - fast_bits) - (pos & 7)
        return (self.win[pos >> 3] >> shift) & ((1 << fast_bits) - 1)


def _decode_lut(encoded, book, out_dtype, table, regime):
    """Stage ``encoded`` and decode it with ``regime`` (``None``: pick one)."""
    if encoded.n_symbols == 0:
        return np.zeros(0, dtype=out_dtype)
    if book.max_length > _PACKED_PEEK_MAX:
        # Pathological (>56-bit) books: the fast window cannot hold a whole
        # long code; use the reference lockstep decoder's bit-array path.
        return decode_lockstep(encoded, book, out_dtype=out_dtype)
    if table is None:
        table = build_decode_table(book)
    starts, chunk_bits, per_chunk = _chunk_layout(encoded)
    payload = np.asarray(encoded.payload, dtype=np.uint8)
    padded = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])
    # Big-endian 32-bit window at every byte offset: one gather + one shift
    # peeks the fast index at any bit phase (fast_bits <= 24).
    pb = padded.astype(np.uint32)
    win = (
        (pb[:-3] << np.uint32(24))
        | (pb[1:-2] << np.uint32(16))
        | (pb[2:-1] << np.uint32(8))
        | pb[3:]
    )
    stream = _LutStream(
        starts=starts,
        ends=starts + chunk_bits,
        per_chunk=per_chunk,
        padded=padded,
        win=win,
        bit_limit=payload.size * 8,
        chunk_size=encoded.chunk_size,
        n_symbols=encoded.n_symbols,
    )
    if regime is None:
        few = starts.size <= _JUMP_MAX_CHUNKS and stream.bit_limit <= _JUMP_MAX_BITS
        regime = _jump_windows if few else _lockstep_windows
    return regime(stream, book, table, out_dtype)


def _decode_slow(
    s: _LutStream, book: CanonicalCodebook, table: DecodeTable, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, lengths) of the long codes starting at ``pos``.

    Value-based decode at full peek width, restricted to the lengths past
    the fast level; raises on windows that start no code.
    """
    if not table.has_slow_level:
        raise EncodingError("corrupt Huffman stream: value below first code")
    W = book.max_length
    vw = peek_bits_prepadded(s.padded, pos, W)
    bucket = np.searchsorted(table.slow_boundaries, vw, side="right") - 1
    if int(bucket.min()) < 0:
        raise EncodingError("corrupt Huffman stream: value below first code")
    lens = table.slow_lengths[bucket]
    idx = (vw >> (W - lens)) - book.first_code[lens] + table.slow_bias[bucket]
    if int(idx.max()) >= book.sorted_symbols.size or int(idx.min()) < 0:
        raise EncodingError("corrupt Huffman stream: symbol index out of range")
    return book.sorted_symbols[idx], lens


def _lockstep_windows(s: _LutStream, book, table: DecodeTable, out_dtype) -> np.ndarray:
    """Advance every chunk one window per step until all are done."""
    F = table.fast_bits
    K = table.max_pack
    koff = np.arange(K, dtype=np.int64)
    nsym_tab, syms_tab, cumlen_tab = table.nsym, table.syms, table.cumlen
    n_chunks = s.starts.size

    # Per-chunk scratch rows padded by K: a fast hit writes all K candidate
    # symbols unconditionally; columns past the accepted count are junk that
    # the next step (or the final trim) overwrites.
    row_w = s.chunk_size + K
    scratch = np.empty(n_chunks * row_w, dtype=out_dtype)
    cursors = s.starts.copy()
    exp_end = s.ends
    overrun = s.overrun
    budget = s.per_chunk.copy()
    dst = np.arange(n_chunks, dtype=np.int64) * row_w

    while cursors.size:
        v = s.fast_index(cursors, F)
        ns = nsym_tab[v].astype(np.int64)
        slow = ns == 0
        scratch[dst[:, None] + koff] = syms_tab[v]
        allowed = np.minimum(np.maximum(ns, 1), budget)
        consumed = cumlen_tab[v, allowed - 1].astype(np.int64)
        if slow.any():
            # Rare long codes (or corrupt windows).
            syms, lens = _decode_slow(s, book, table, cursors[slow])
            scratch[dst[slow]] = syms
            consumed[slow] = lens
        cursors = np.minimum(cursors + consumed, overrun)
        dst += allowed
        budget -= allowed
        if int(budget.min()) == 0:
            done = budget == 0
            if not np.array_equal(cursors[done], exp_end[done]):
                raise EncodingError(
                    "corrupt Huffman stream: chunk length mismatch"
                )
            keep = ~done
            cursors = cursors[keep]
            exp_end = exp_end[keep]
            budget = budget[keep]
            dst = dst[keep]

    return scratch.reshape(n_chunks, row_w)[:, : s.chunk_size].reshape(-1)[: s.n_symbols]


def _jump_windows(s: _LutStream, book, table: DecodeTable, out_dtype) -> np.ndarray:
    """Enumerate every chunk's windows by pointer jumping, then scatter once."""
    F = table.fast_bits
    K = table.max_pack
    nsym_tab, syms_tab, cumlen_tab = table.nsym, table.syms, table.cumlen
    n_chunks = s.starts.size

    # Link of every bit position as a window start: the position after its
    # whole window (nxt) and the symbols the window yields (cnt).  Positions
    # up to s.overrun are included: it is the sink clamped links park on.
    nb = s.overrun + 1
    phases = np.arange(32 - F, 24 - F, -1, dtype=np.int64)
    v = ((s.win[: (nb + 7) >> 3, None] >> phases) & ((1 << F) - 1)).reshape(-1)[:nb]
    cnt_tab = np.maximum(nsym_tab, 1).astype(np.int64)
    adv_tab = cumlen_tab[np.arange(cnt_tab.size), cnt_tab - 1].astype(np.int64)
    nxt = adv_tab[v]
    cnt = cnt_tab[v]
    del v
    # No fast entry: a long code, or no code at all.  A window that starts
    # no code needs only some advance here, since a chain that visits it
    # raises in the scatter pass below.
    slow = np.flatnonzero(nxt == 0)
    if slow.size:
        if table.has_slow_level:
            vw = peek_bits_prepadded(s.padded, slow, book.max_length)
            bucket = np.searchsorted(table.slow_boundaries, vw, side="right") - 1
            nxt[slow] = table.slow_lengths[np.maximum(bucket, 0)]
        else:
            nxt[slow] = 1
    nxt += np.arange(nb, dtype=np.int64)
    np.minimum(nxt, s.overrun, out=nxt)

    # Pointer jumping.  At level k, nxt/cnt span 2**k windows, and the
    # chain set holds each chunk's first 2**k windows (pos, symbol offset
    # off, chunk cid); jumping from every member appends the next 2**k.
    # Stop once each chunk's windows cover its symbols.
    pos = s.starts
    off = np.zeros(n_chunks, dtype=np.int64)
    cid = np.arange(n_chunks, dtype=np.int64)
    covered = cnt[s.starts]
    nxt2, cnt2 = np.empty_like(nxt), np.empty_like(cnt)
    while bool((covered < s.per_chunk).any()):
        far = off + cnt[pos]
        keep = far < s.per_chunk[cid]
        pos = np.concatenate([pos, nxt[pos][keep]])
        off = np.concatenate([off, far[keep]])
        cid = np.concatenate([cid, cid[keep]])
        covered = covered + cnt[nxt[s.starts]]
        if bool((covered < s.per_chunk).any()):
            # mode="clip" (a no-op: every link is in range) lets take
            # write straight into the reused buffer.
            np.take(cnt, nxt, out=cnt2, mode="clip")
            cnt2 += cnt
            np.take(nxt, nxt, out=nxt2, mode="clip")
            nxt, nxt2 = nxt2, nxt
            cnt, cnt2 = cnt2, cnt
    del nxt, cnt, nxt2, cnt2

    # One scatter over the chains: exactly the windows the lockstep regime
    # visits, with the same checks.  A chunk's last window may pack more
    # symbols than remain; it takes only what the chunk holds.
    v = s.fast_index(pos, F)
    ns = nsym_tab[v].astype(np.int64)
    take = np.minimum(np.maximum(ns, 1), s.per_chunk[cid] - off)
    used = cumlen_tab[v, take - 1].astype(np.int64)
    dest = cid * s.chunk_size + off
    koff = np.arange(K, dtype=np.int64)
    cols = koff < take[:, None]
    out = np.empty(s.n_symbols, dtype=out_dtype)
    out[(dest[:, None] + koff)[cols]] = syms_tab[v][cols]
    slow = ns == 0
    if slow.any():
        syms, lens = _decode_slow(s, book, table, pos[slow])
        out[dest[slow]] = syms
        used[slow] = lens
    last = off + take == s.per_chunk[cid]
    ends = np.full(n_chunks, -1, dtype=np.int64)
    ends[cid[last]] = np.minimum(pos[last] + used[last], s.overrun)
    if not np.array_equal(ends, s.ends):
        raise EncodingError("corrupt Huffman stream: chunk length mismatch")
    return out


def decode_lockstep(
    encoded: HuffmanEncoded, book: CanonicalCodebook, out_dtype=np.uint16
) -> np.ndarray:
    """Decode one symbol per chunk per step (the previous primary decoder).

    Kept as the table-free reference: every step advances all cursors by
    one symbol with a single peek + ``searchsorted`` over the canonical
    boundaries.  The metamorphic suite pins :func:`decode` against it.
    """
    n = encoded.n_symbols
    if n == 0:
        return np.zeros(0, dtype=out_dtype)
    width = book.max_length
    # Word-at-a-time peeks straight from the packed stream when the longest
    # code fits the 64-bit window; pathological (>56-bit) books fall back to
    # the bit-array path.
    if width <= _PACKED_PEEK_MAX:
        padded = np.concatenate(
            [np.asarray(encoded.payload, dtype=np.uint8), np.zeros(8, dtype=np.uint8)]
        )

        def peek(pos):
            return peek_bits_prepadded(padded, pos, width)
    else:
        bits = unpack_to_bits(
            encoded.payload, encoded.payload_bytes * 8
        )

        def peek(pos):
            return peek_bits(bits, pos, width)
    boundaries, bucket_lengths, bucket_bias = book.decode_boundaries(width)
    first_code = book.first_code
    sorted_symbols = book.sorted_symbols

    starts, chunk_bits, per_chunk = _chunk_layout(encoded)
    cursors = starts.copy()
    n_chunks = cursors.size
    # A cursor that runs past the payload parks one bit beyond it (so the
    # end-bit check fails) instead of peeking past the zero padding.
    overrun = encoded.payload_bytes * 8 + 1
    out = np.empty(n, dtype=out_dtype)
    out_base = np.arange(n_chunks, dtype=np.int64) * encoded.chunk_size

    active = np.arange(n_chunks, dtype=np.int64)
    step = 0
    max_steps = int(per_chunk.max())
    while step < max_steps:
        if step > 0:
            active = active[per_chunk[active] > step]
        pos = cursors[active]
        v = peek(pos)
        bucket = np.searchsorted(boundaries, v, side="right") - 1
        if bucket.size and int(bucket.min()) < 0:
            raise EncodingError("corrupt Huffman stream: value below first code")
        lens = bucket_lengths[bucket]
        idx = (v >> (width - lens)) - first_code[lens] + bucket_bias[bucket]
        if idx.size and (int(idx.max()) >= sorted_symbols.size or int(idx.min()) < 0):
            raise EncodingError("corrupt Huffman stream: symbol index out of range")
        out[out_base[active] + step] = sorted_symbols[idx].astype(out_dtype)
        cursors[active] = np.minimum(pos + lens, overrun)
        step += 1
    # Every cursor must land exactly on its chunk's end bit.
    if not np.array_equal(cursors, starts + chunk_bits):
        raise EncodingError("corrupt Huffman stream: chunk length mismatch")
    return out


def decode_sequential(
    encoded: HuffmanEncoded, book: CanonicalCodebook, out_dtype=np.uint16
) -> np.ndarray:
    """Bit-by-bit reference decoder (slow; for validation only).

    Raises :class:`EncodingError` on a code that runs past the payload or a
    chunk that does not end on its recorded end bit, like the fast decoders.
    """
    bits = unpack_to_bits(encoded.payload, encoded.payload_bytes * 8)
    starts, chunk_bits, per_chunk = _chunk_layout(encoded)
    out = np.empty(encoded.n_symbols, dtype=out_dtype)
    lengths = book.lengths
    codes = book.codes
    # Invert (code, length) -> symbol into a dict for the reference path.
    table = {
        (int(lengths[s]), int(codes[s])): int(s)
        for s in np.flatnonzero(lengths > 0)
    }
    i = 0
    for c in range(starts.size):
        pos = int(starts[c])
        for _ in range(int(per_chunk[c])):
            acc = 0
            ln = 0
            while True:
                if pos >= bits.size:
                    raise EncodingError(
                        "corrupt Huffman stream (sequential decode): code runs "
                        "past the payload"
                    )
                acc = (acc << 1) | int(bits[pos])
                pos += 1
                ln += 1
                sym = table.get((ln, acc))
                if sym is not None:
                    out[i] = sym
                    i += 1
                    break
                if ln > book.max_length:
                    raise EncodingError("corrupt Huffman stream (sequential decode)")
        if pos != int(starts[c] + chunk_bits[c]):
            raise EncodingError(
                "corrupt Huffman stream (sequential decode): chunk length mismatch"
            )
    return out


def split_chunk_groups(encoded: HuffmanEncoded, n_groups: int) -> list[HuffmanEncoded]:
    """Partition an indexed stream into independent contiguous sub-streams.

    Requires ``chunk_offsets`` (the format-v3 sync points): each group's
    payload slice starts at its first chunk's byte offset, so every group
    is a fully self-contained :class:`HuffmanEncoded` that decodes on its
    own worker.  Concatenating the groups' outputs in order reproduces the
    serial decode exactly.
    """
    if encoded.chunk_offsets is None:
        raise EncodingError("cannot split a stream without sync points")
    offsets = np.asarray(encoded.chunk_offsets, dtype=np.int64)
    n_chunks = int(offsets.size)
    n_groups = max(1, min(int(n_groups), n_chunks))
    edges = np.linspace(0, n_chunks, n_groups + 1, dtype=np.int64)
    payload = np.asarray(encoded.payload, dtype=np.uint8)
    groups = []
    for g in range(n_groups):
        a, b = int(edges[g]), int(edges[g + 1])
        if a == b:
            continue
        byte0 = int(offsets[a])
        byte1 = int(offsets[b]) if b < n_chunks else payload.size
        if b < n_chunks:
            n_sub = (b - a) * encoded.chunk_size
        else:
            n_sub = encoded.n_symbols - a * encoded.chunk_size
        groups.append(
            HuffmanEncoded(
                payload=payload[byte0:byte1],
                chunk_bits=encoded.chunk_bits[a:b],
                n_symbols=int(n_sub),
                chunk_size=encoded.chunk_size,
                chunk_offsets=(offsets[a:b] - byte0).astype(np.uint64),
            )
        )
    return groups

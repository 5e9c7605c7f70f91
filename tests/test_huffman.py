"""Tests for canonical Huffman codebooks and the chunked codec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.entropy import shannon_entropy
from repro.core.errors import CodebookOverflowError, EncodingError
from repro.encoding.histogram import histogram
from repro.encoding.huffman import (
    CanonicalCodebook,
    build_code_lengths,
    build_codebook,
    build_decode_table,
    lookup_lengths,
)
from repro.encoding import huffman_codec
from repro.encoding.huffman_codec import (
    decode,
    decode_lut_jump,
    decode_lut_lockstep,
    decode_sequential,
    encode,
    split_chunk_groups,
)

#: ``decode`` and the two regimes it picks between; each entry point must
#: detect the same corruptions.
ENTRY_POINTS = [decode, decode_lut_lockstep, decode_lut_jump]

#: Every decoder, the sequential oracle included.
ALL_DECODERS = ENTRY_POINTS + [decode_sequential]


def random_symbols(rng, n, alphabet, skew=1.5):
    """Zipf-ish symbol stream over [0, alphabet)."""
    p = 1.0 / np.arange(1, alphabet + 1) ** skew
    p /= p.sum()
    return rng.choice(alphabet, size=n, p=p).astype(np.uint16)


class TestHistogram:
    def test_counts_every_code(self):
        codes = np.array([0, 3, 3, 7, 0, 3], dtype=np.uint16)
        freqs = histogram(codes, 8)
        assert freqs.dtype == np.int64
        np.testing.assert_array_equal(freqs, [2, 0, 0, 3, 0, 0, 0, 1])

    def test_empty_stream_counts_nothing(self):
        np.testing.assert_array_equal(histogram(np.zeros(0, np.uint16), 4), [0] * 4)

    def test_code_equal_to_dict_size_raises(self):
        with pytest.raises(EncodingError, match="outside"):
            histogram(np.array([0, 1, 8], dtype=np.uint16), 8)

    def test_negative_code_raises(self):
        with pytest.raises(EncodingError, match="outside"):
            histogram(np.array([0, -1, 2], dtype=np.int32), 8)


class TestCodeLengths:
    def test_kraft_equality(self):
        """Huffman codes are complete: sum 2^-L == 1."""
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 1000, 64)
        lengths = build_code_lengths(freqs)
        assert abs(sum(2.0 ** -int(l) for l in lengths if l > 0) - 1.0) < 1e-12

    def test_single_symbol(self):
        lengths = build_code_lengths(np.array([0, 5, 0]))
        np.testing.assert_array_equal(lengths, [0, 1, 0])

    def test_two_symbols(self):
        lengths = build_code_lengths(np.array([3, 7]))
        np.testing.assert_array_equal(lengths, [1, 1])

    def test_zero_histogram_raises(self):
        with pytest.raises(EncodingError):
            build_code_lengths(np.zeros(8, dtype=np.int64))

    def test_rarer_symbols_get_longer_codes(self):
        freqs = np.array([1000, 100, 10, 1])
        lengths = build_code_lengths(freqs)
        assert lengths[0] <= lengths[1] <= lengths[2] <= lengths[3]

    def test_optimality_vs_entropy(self):
        """Average length within [H, H+1) (Huffman's classical guarantee)."""
        rng = np.random.default_rng(1)
        freqs = rng.integers(1, 10_000, 256)
        book = build_codebook(freqs)
        h = shannon_entropy(freqs)
        avg = book.average_bit_length(freqs)
        assert h - 1e-9 <= avg < h + 1.0

    def test_deterministic(self):
        freqs = np.array([5, 5, 5, 5, 2, 2])
        a = build_code_lengths(freqs)
        b = build_code_lengths(freqs)
        np.testing.assert_array_equal(a, b)


class TestCanonicalCodebook:
    def test_prefix_free(self):
        rng = np.random.default_rng(2)
        freqs = rng.integers(0, 500, 128)
        freqs[::7] = 0
        book = build_codebook(freqs)
        entries = [
            (int(book.lengths[s]), int(book.codes[s]))
            for s in np.flatnonzero(book.lengths > 0)
        ]
        for la, ca in entries:
            for lb, cb in entries:
                if (la, ca) == (lb, cb):
                    continue
                if la <= lb:
                    assert (cb >> (lb - la)) != ca, "prefix violation"

    def test_canonical_same_length_consecutive(self):
        freqs = np.array([10, 10, 10, 10])
        book = build_codebook(freqs)
        codes = sorted(int(c) for c in book.codes)
        assert codes == [0, 1, 2, 3]

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(3)
        freqs = rng.integers(0, 100, 1024)
        book = build_codebook(freqs)
        restored = CanonicalCodebook.deserialized(book.serialized())
        np.testing.assert_array_equal(restored.lengths, book.lengths)
        np.testing.assert_array_equal(restored.codes, book.codes)
        assert restored.max_length == book.max_length

    def test_serialized_size_is_alphabet_bytes(self):
        book = build_codebook(np.ones(1024, dtype=np.int64))
        assert len(book.serialized()) == 1024

    def test_lookup_rejects_unknown_symbol(self):
        book = build_codebook(np.array([1, 1, 0, 0]))
        with pytest.raises(CodebookOverflowError):
            lookup_lengths(book, np.array([2], dtype=np.uint16))
        with pytest.raises(CodebookOverflowError):
            encode(np.array([0, 2], dtype=np.uint16), book, 8)

    def test_lookup_rejects_out_of_alphabet(self):
        book = build_codebook(np.array([1, 1]))
        with pytest.raises(CodebookOverflowError):
            lookup_lengths(book, np.array([17], dtype=np.uint16))
        with pytest.raises(CodebookOverflowError):
            encode(np.array([1, -1]), book, 8)


class TestCodecRoundtrip:
    @pytest.mark.parametrize("n,alphabet,chunk", [
        (1, 4, 8),
        (100, 16, 32),
        (10_000, 1024, 1024),
        (5_000, 1024, 4096),   # single partial chunk
        (4096, 8, 4096),       # exactly one chunk
        (4097, 8, 4096),       # one full + one singleton chunk
    ])
    def test_roundtrip(self, n, alphabet, chunk):
        rng = np.random.default_rng(n)
        syms = random_symbols(rng, n, alphabet)
        freqs = np.bincount(syms, minlength=alphabet)
        book = build_codebook(freqs)
        enc = encode(syms, book, chunk)
        np.testing.assert_array_equal(decode(enc, book), syms)

    def test_lockstep_matches_sequential(self):
        rng = np.random.default_rng(9)
        syms = random_symbols(rng, 3000, 64)
        book = build_codebook(np.bincount(syms, minlength=64))
        enc = encode(syms, book, 256)
        np.testing.assert_array_equal(decode(enc, book), decode_sequential(enc, book))

    def test_payload_bits_match_codebook_estimate(self):
        rng = np.random.default_rng(4)
        syms = random_symbols(rng, 2000, 32)
        freqs = np.bincount(syms, minlength=32)
        book = build_codebook(freqs)
        enc = encode(syms, book, 512)
        assert enc.total_bits == book.encoded_bits(freqs)

    def test_single_symbol_stream(self):
        syms = np.full(500, 3, dtype=np.uint16)
        book = build_codebook(np.bincount(syms, minlength=8))
        enc = encode(syms, book, 64)
        assert enc.total_bits == 500  # 1 bit per symbol
        np.testing.assert_array_equal(decode(enc, book), syms)

    def test_empty_stream_raises(self):
        book = build_codebook(np.array([1, 1]))
        with pytest.raises(EncodingError):
            encode(np.zeros(0, dtype=np.uint16), book, 8)

    def test_corrupt_chunk_bits_detected(self):
        rng = np.random.default_rng(5)
        syms = random_symbols(rng, 1000, 16)
        book = build_codebook(np.bincount(syms, minlength=16))
        enc = encode(syms, book, 128)
        enc.chunk_bits = enc.chunk_bits.copy()
        enc.chunk_bits[0] += 3
        for entry in ENTRY_POINTS:
            with pytest.raises(EncodingError):
                entry(enc, book)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 800))
        alphabet = data.draw(st.integers(2, 64))
        chunk = data.draw(st.integers(1, 900))
        syms = data.draw(
            st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n)
        )
        syms = np.array(syms, dtype=np.uint16)
        book = build_codebook(np.bincount(syms, minlength=alphabet))
        enc = encode(syms, book, chunk)
        np.testing.assert_array_equal(decode(enc, book), syms)


class TestLengthTableValidation:
    def test_overfull_first_level_rejected(self):
        # Three 1-bit codes cannot exist; a crafted length table must fail
        # with a typed error, not assign colliding codewords.
        with pytest.raises(EncodingError, match="over-full"):
            CanonicalCodebook.deserialized(bytes([1, 1, 1]))

    def test_overfull_intermediate_level_rejected(self):
        # Two 1-bit codes fill the tree; any deeper entry overflows level 2.
        with pytest.raises(EncodingError, match="over-full"):
            CanonicalCodebook.deserialized(bytes([1, 1, 2, 2, 2]))

    def test_incomplete_table_still_accepted(self):
        # Under-full (non-Kraft-complete) tables are legal: they decode, the
        # unused value range is simply never produced by an honest encoder.
        book = CanonicalCodebook.deserialized(bytes([2, 2, 2]))
        assert book.max_length == 2

    def test_boundary_table_overflow_guarded(self):
        # first_code[2] == 2 shifted to a 70-bit peek exceeds int64; the
        # typed guard must fire instead of an uncaught OverflowError.
        book = CanonicalCodebook.deserialized(bytes([1, 2, 2]))
        with pytest.raises(EncodingError, match="too deep"):
            book.decode_boundaries(70)

    def test_deepest_valid_chain_has_monotone_boundaries(self):
        # A 63-deep Kraft-complete chain is the worst legal case for the
        # int64 boundary table: it must build with ascending boundaries.
        lengths = list(range(1, 63)) + [63, 63]
        book = CanonicalCodebook.deserialized(bytes(lengths))
        boundaries, _, _ = book.decode_boundaries(63)
        assert np.all(np.diff(boundaries) > 0)


class TestDeepCodebookFallback:
    """Books deeper than 56 bits, whose long codes span nine payload bytes
    at some bit phases, decode through the same table path."""

    LENGTHS = list(range(1, 58)) + [58, 58]  # Kraft-complete chain, depth 58

    def _book(self):
        return CanonicalCodebook.deserialized(bytes(self.LENGTHS))

    def test_decode_falls_back_and_roundtrips(self):
        book = self._book()
        assert book.max_length == 58  # wider than one 8-byte word at phase 7
        syms = np.array([0, 1, 0, 57, 58, 2, 0, 0, 1, 56], dtype=np.uint16)
        enc = encode(syms, book, 3)
        for entry in ALL_DECODERS:
            np.testing.assert_array_equal(entry(enc, book), syms)

    def test_corruption_still_detected_on_fallback_path(self):
        book = self._book()
        syms = np.array([0, 57, 0, 58], dtype=np.uint16)
        enc = encode(syms, book, 2)
        enc.chunk_bits = enc.chunk_bits.copy()
        enc.chunk_bits[-1] += 1
        for entry in ENTRY_POINTS:
            with pytest.raises(EncodingError):
                entry(enc, book)


class TestDecodeRegimes:
    """Both regimes of :func:`decode` -- cross-chunk lockstep and pointer
    jumping -- return the sequential oracle's symbols on dense and aligned
    payloads, whatever the stream's shape."""

    @staticmethod
    def _case(name):
        rng = np.random.default_rng(31)
        if name == "few_chunks":
            syms = random_symbols(rng, 5000, 256)
            return syms, build_codebook(np.bincount(syms, minlength=256)), 512
        if name == "many_chunks":  # more chunks than decode's jump regime takes
            syms = random_symbols(rng, 40 * 50, 64)
            return syms, build_codebook(np.bincount(syms, minlength=64)), 50
        if name == "deep_book":  # a 1..20-bit chain: long codes hit the slow level
            book = CanonicalCodebook.deserialized(bytes(list(range(1, 20)) + [20, 20]))
            return rng.integers(0, 21, 600).astype(np.uint16), book, 37
        if name == "deepest_book":  # a 1..63-bit chain, the deepest legal book
            book = CanonicalCodebook.deserialized(bytes(list(range(1, 63)) + [63, 63]))
            return rng.integers(0, 64, 300).astype(np.uint16), book, 37
        if name == "single_symbol":  # 1-bit code, 8 per window, 13 per chunk
            syms = np.full(500, 3, dtype=np.uint16)
            return syms, build_codebook(np.bincount(syms, minlength=8)), 13
        raise ValueError(name)

    def test_cases_reach_their_edges(self):
        # decode itself dispatches the few-chunk case to pointer jumping and
        # the many-chunk case to the lockstep lanes.
        for case, jumps in (("few_chunks", True), ("many_chunks", False)):
            syms, _, chunk = self._case(case)
            n_chunks = -(-syms.size // chunk)
            assert (n_chunks <= huffman_codec._JUMP_MAX_CHUNKS) == jumps
        _, book, _ = self._case("deep_book")
        assert build_decode_table(book).has_slow_level
        _, book, chunk = self._case("single_symbol")
        pack = int(build_decode_table(book).nsym[0])
        # Each chunk's last window packs more symbols than remain.
        assert pack > 1 and chunk % pack != 0

    @pytest.mark.parametrize(
        "regime", [decode_lut_lockstep, decode_lut_jump], ids=["lockstep", "jump"]
    )
    @pytest.mark.parametrize("aligned", [False, True], ids=["dense", "aligned"])
    @pytest.mark.parametrize(
        "case",
        ["few_chunks", "many_chunks", "deep_book", "deepest_book", "single_symbol"],
    )
    def test_regime_matches_sequential(self, case, aligned, regime):
        syms, book, chunk = self._case(case)
        enc = encode(syms, book, chunk, aligned=aligned)
        expected = decode_sequential(enc, book)
        np.testing.assert_array_equal(expected, syms)
        out = regime(enc, book, table=build_decode_table(book))
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert decode(enc, book).tobytes() == expected.tobytes()


class TestAlignedLayout:
    """Format-v3 indexed payload: byte-aligned chunks with sync points."""

    def _stream(self, n=2000, alphabet=64, chunk=128, seed=21):
        rng = np.random.default_rng(seed)
        syms = random_symbols(rng, n, alphabet)
        book = build_codebook(np.bincount(syms, minlength=alphabet))
        return syms, book, encode(syms, book, chunk, aligned=True)

    def test_offsets_are_exclusive_byte_cumsum(self):
        _, _, enc = self._stream()
        byte_lens = (enc.chunk_bits.astype(np.int64) + 7) >> 3
        expected = np.concatenate(([0], np.cumsum(byte_lens)[:-1]))
        np.testing.assert_array_equal(enc.chunk_offsets.astype(np.int64), expected)
        assert enc.payload_bytes == int(byte_lens.sum())

    def test_all_decoders_agree_on_aligned_payload(self):
        syms, book, enc = self._stream()
        table = build_decode_table(book)
        np.testing.assert_array_equal(decode(enc, book, table=table), syms)
        np.testing.assert_array_equal(decode_sequential(enc, book), syms)

    def test_aligned_metadata_accounts_for_offsets(self):
        _, _, enc = self._stream()
        n_chunks = enc.chunk_bits.size
        assert enc.metadata_bytes == n_chunks * 4 + n_chunks * 8

    @pytest.mark.parametrize("n_groups", [1, 2, 3, 7, 100])
    def test_split_groups_concat_reproduces_serial(self, n_groups):
        syms, book, enc = self._stream(n=1111, chunk=64)
        groups = split_chunk_groups(enc, n_groups)
        assert len(groups) <= max(1, min(n_groups, enc.chunk_bits.size))
        parts = [decode(g, book) for g in groups]
        np.testing.assert_array_equal(np.concatenate(parts), syms)

    def test_split_requires_sync_points(self):
        rng = np.random.default_rng(5)
        syms = random_symbols(rng, 500, 16)
        book = build_codebook(np.bincount(syms, minlength=16))
        enc = encode(syms, book, 64)  # dense layout, no offsets
        with pytest.raises(EncodingError, match="sync points"):
            split_chunk_groups(enc, 2)

    def test_unordered_sync_points_rejected(self):
        _, book, enc = self._stream()
        bad = enc.chunk_offsets.astype(np.int64)
        bad[1], bad[2] = bad[2], bad[1]
        enc.chunk_offsets = bad.astype(np.uint64)
        with pytest.raises(EncodingError, match="sync points"):
            decode(enc, book)


def encode_reference(syms, book, chunk, aligned):
    """(payload bytes, chunk bits) by concatenating codeword bit strings."""
    strs = {
        int(sym): format(int(book.codes[sym]), f"0{int(book.lengths[sym])}b")
        for sym in np.flatnonzero(book.lengths)
    }
    chunks = [
        "".join(strs[int(sym)] for sym in syms[a : a + chunk])
        for a in range(0, len(syms), chunk)
    ]

    def pad(bits):
        return bits + "0" * (-len(bits) % 8)

    bits = "".join(pad(c) for c in chunks) if aligned else pad("".join(chunks))
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return payload, [len(c) for c in chunks]


class TestSlabbedEncode:
    """``encode`` packs slabs of whole chunks; every slab shape writes the
    reference bytes and round-trips through the sequential oracle."""

    @pytest.mark.parametrize("aligned", [False, True], ids=["dense", "aligned"])
    @pytest.mark.parametrize("slab,n,chunk,book_kind", [
        (64, 1000, 16, "zipf"),   # 4-chunk slabs, short last slab
        (64, 1000, 24, "zipf"),   # short last chunk
        (64, 1000, 10, "zipf"),   # chunk size does not divide the slab
        (64, 1000, 150, "zipf"),  # chunk larger than a slab
        (64, 700, 33, "deep"),    # codes of 1..63 bits crossing words
        (None, 70_000, 3000, "zipf"),  # the module's own slab size
    ], ids=["whole", "short_last", "no_divide", "big_chunk", "deep", "default"])
    def test_matches_reference(self, monkeypatch, slab, n, chunk, book_kind, aligned):
        if slab is not None:
            monkeypatch.setattr(huffman_codec, "_ENCODE_SLAB_SYMBOLS", slab)
        rng = np.random.default_rng(n + chunk)
        if book_kind == "deep":
            book = CanonicalCodebook.deserialized(bytes(list(range(1, 63)) + [63, 63]))
            syms = rng.integers(0, 64, n).astype(np.uint16)
        else:
            syms = random_symbols(rng, n, 256)
            book = build_codebook(np.bincount(syms, minlength=256))
        assert n > huffman_codec._ENCODE_SLAB_SYMBOLS
        enc = encode(syms, book, chunk, aligned=aligned)
        payload, chunk_bits = encode_reference(syms, book, chunk, aligned)
        assert enc.payload.dtype == np.uint8
        assert enc.payload.tobytes() == payload
        np.testing.assert_array_equal(enc.chunk_bits, chunk_bits)
        assert enc.chunk_bits.dtype == np.uint32
        if aligned:
            byte_lens = (np.array(chunk_bits) + 7) // 8
            np.testing.assert_array_equal(
                enc.chunk_offsets, np.concatenate(([0], np.cumsum(byte_lens)[:-1]))
            )
            assert enc.chunk_offsets.dtype == np.uint64
        else:
            assert enc.chunk_offsets is None
        np.testing.assert_array_equal(decode_sequential(enc, book), syms)

    @pytest.mark.parametrize("aligned", [False, True], ids=["dense", "aligned"])
    def test_peak_memory_is_bounded(self, aligned):
        # 2**20 symbols at about 3.5 bits each: scratch is one byte per
        # symbol, the 450 KB payload and one slab, not a few arrays per
        # coded bit.
        rng = np.random.default_rng(3)
        syms = random_symbols(rng, 1 << 20, 64)
        book = build_codebook(np.bincount(syms, minlength=64))
        tracemalloc.start()
        try:
            enc = encode(syms, book, 4096, aligned=aligned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 <= enc.total_bits / syms.size <= 4
        assert peak < 32 << 20


class TestOverDeclaredStream:
    """A stream declaring more symbols than its bits hold is rejected, also
    when its last chunk ends exactly on the payload's last bit, so the extra
    symbols would decode from zero padding."""

    @pytest.mark.parametrize("extra", [1, 16, 976])
    @pytest.mark.parametrize("aligned", [False, True], ids=["dense", "aligned"])
    @pytest.mark.parametrize(
        "decoder", ALL_DECODERS, ids=lambda f: f.__name__
    )
    def test_rejected(self, decoder, aligned, extra):
        book = build_codebook(np.ones(4, dtype=np.int64))  # four 2-bit codes
        syms = np.random.default_rng(0).integers(0, 4, 48).astype(np.uint16)
        enc = encode(syms, book, 1024, aligned=aligned)
        assert enc.total_bits == enc.payload_bytes * 8 == 96
        np.testing.assert_array_equal(decoder(enc, book), syms)
        enc.n_symbols += extra
        with pytest.raises(EncodingError):
            decoder(enc, book)

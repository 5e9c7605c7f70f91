"""Tests for vectorized bit packing/unpacking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EncodingError
from repro.encoding.bitio import (
    bits_to_bytes,
    pack_codes,
    pack_codes_at,
    peek_bits,
    unpack_to_bits,
)


def pack_reference(codes, lengths, starts, total_bits):
    """Bit-by-bit reference packer: the plain loop the word packer replaces.

    Writes the low ``lengths[i]`` bits of ``codes[i]`` MSB-first at bit
    ``starts[i]``; bits above a code's length are ignored.
    """
    out = bytearray(bits_to_bytes(total_bits))
    for code, length, start in zip(codes, lengths, starts):
        code, length, start = int(code), int(length), int(start)
        for k in range(length):
            if (code >> (length - 1 - k)) & 1:
                pos = start + k
                out[pos >> 3] |= 0x80 >> (pos & 7)
    return bytes(out)


@st.composite
def code_spans(draw):
    """Codes of length 1..64 with junk above their length, at ascending,
    non-overlapping starts with random gaps (often none, so spans cross
    64-bit word boundaries at every phase)."""
    n = draw(st.integers(0, 80))
    lengths = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    gaps = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, 140)), min_size=n, max_size=n,
    ))
    starts, pos = [], draw(st.integers(0, 70))
    for gap, length in zip(gaps, lengths):
        pos += gap
        starts.append(pos)
        pos += length
    total_bits = pos + draw(st.integers(0, 70))
    return (
        np.array(codes, dtype=np.uint64),
        np.array(lengths, dtype=np.int64),
        np.array(starts, dtype=np.int64),
        total_bits,
    )


class TestWordPackerMatchesReference:
    """The word-at-a-time packer writes exactly the reference loop's bytes."""

    @given(code_spans())
    @settings(max_examples=300, deadline=None)
    def test_pack_codes_at_property(self, case):
        codes, lengths, starts, total_bits = case
        packed = pack_codes_at(codes, lengths, starts, total_bits)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == pack_reference(codes, lengths, starts, total_bits)

    @given(code_spans())
    @settings(max_examples=100, deadline=None)
    def test_pack_codes_property(self, case):
        codes, lengths, _, _ = case
        packed, total = pack_codes(codes, lengths)
        dense = np.cumsum(lengths) - lengths
        assert total == int(lengths.sum())
        assert packed.tobytes() == pack_reference(codes, lengths, dense, total)

    @pytest.mark.parametrize("length", [1, 2, 33, 63, 64])
    def test_every_phase_of_a_word(self, length):
        # One code per bit phase 0..63, each alone in its own word pair, so
        # every code that reaches past its word spills at its own phase.
        phases = np.arange(64, dtype=np.int64)
        starts = phases * 128 + phases
        codes = np.full(64, 0xDEADBEEFCAFEF00D, dtype=np.uint64)
        lengths = np.full(64, length, dtype=np.int64)
        total = int(starts[-1]) + length
        packed = pack_codes_at(codes, lengths, starts, total)
        assert packed.tobytes() == pack_reference(codes, lengths, starts, total)

    def test_empty_input(self):
        packed, total = pack_codes(np.zeros(0, np.uint64), np.zeros(0, np.int64))
        assert total == 0 and packed.size == 0
        packed = pack_codes_at(
            np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.int64), 0
        )
        assert packed.size == 0

    def test_single_64_bit_code(self):
        code = 0x0123456789ABCDEF
        packed, total = pack_codes(np.array([code], dtype=np.uint64), np.array([64]))
        assert total == 64
        assert packed.tobytes() == code.to_bytes(8, "big")
        packed = pack_codes_at(
            np.array([code], dtype=np.uint64), np.array([64]), np.array([5]), 75
        )
        assert packed.tobytes() == pack_reference([code], [64], [5], 75)


class TestPackCodes:
    def test_single_code(self):
        packed, total = pack_codes(np.array([0b101], dtype=np.uint64), np.array([3]))
        assert total == 3
        assert packed[0] == 0b10100000

    def test_concatenation_order_msb_first(self):
        # 0b1 then 0b01 then 0b0011 -> bits 1 01 0011 -> byte 1010011 0
        packed, total = pack_codes(
            np.array([1, 1, 3], dtype=np.uint64), np.array([1, 2, 4])
        )
        assert total == 7
        assert packed[0] == 0b10100110

    def test_empty(self):
        packed, total = pack_codes(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert total == 0 and packed.size == 0

    def test_mismatched_shapes_raise(self):
        with pytest.raises(EncodingError):
            pack_codes(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64))

    def test_invalid_length_raises(self):
        with pytest.raises(EncodingError):
            pack_codes(np.array([1], dtype=np.uint64), np.array([0]))
        with pytest.raises(EncodingError):
            pack_codes(np.array([1], dtype=np.uint64), np.array([65]))

    def test_unpack_inverts_pack(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 20, 100)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        packed, total = pack_codes(codes, lengths)
        bits = unpack_to_bits(packed, total)
        # Re-read each code by its offset.
        offsets = np.cumsum(lengths) - lengths
        for code, length, off in zip(codes, lengths, offsets):
            val = 0
            for b in bits[off : off + length]:
                val = (val << 1) | int(b)
            assert val == int(code)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_total_bits_property(self, data):
        n = data.draw(st.integers(1, 60))
        lengths = np.array(data.draw(st.lists(st.integers(1, 64), min_size=n, max_size=n)))
        codes = np.zeros(n, dtype=np.uint64)
        packed, total = pack_codes(codes, lengths)
        assert total == lengths.sum()
        assert packed.size == bits_to_bytes(total)


class TestPeekBits:
    def test_basic_peek(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        vals = peek_bits(bits, np.array([0, 2, 4]), 3)
        np.testing.assert_array_equal(vals, [0b101, 0b110, 0b001])

    def test_peek_past_end_zero_pads(self):
        bits = np.array([1, 1], dtype=np.uint8)
        vals = peek_bits(bits, np.array([1]), 4)
        assert vals[0] == 0b1000

    def test_invalid_width(self):
        bits = np.zeros(8, dtype=np.uint8)
        with pytest.raises(EncodingError):
            peek_bits(bits, np.array([0]), 0)
        with pytest.raises(EncodingError):
            peek_bits(bits, np.array([0]), 64)

    def test_unpack_bounds_check(self):
        with pytest.raises(EncodingError):
            unpack_to_bits(np.zeros(1, dtype=np.uint8), 9)

    def test_empty_stream_returns_zeros(self):
        # Regression: the clamped gather (`bits[min(idx, n-1)]`) indexed at
        # -1 on an empty stream and raised IndexError; an empty stream is
        # all padding, so every window must read as zero.
        vals = peek_bits(np.zeros(0, dtype=np.uint8), np.array([0, 3, 11]), 5)
        np.testing.assert_array_equal(vals, [0, 0, 0])

    def test_empty_stream_empty_positions(self):
        vals = peek_bits(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), 7)
        assert vals.size == 0


class TestPackCodesAt:
    def test_dense_starts_match_pack_codes(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(1, 24, 64)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        dense, total = pack_codes(codes, lengths)
        starts = np.cumsum(lengths) - lengths
        scattered = pack_codes_at(codes, lengths, starts, total)
        np.testing.assert_array_equal(scattered, dense)

    def test_gap_bits_stay_zero(self):
        # Two one-bit codes of value 1 scattered a byte apart: only the
        # addressed bits may be set.
        packed = pack_codes_at(
            np.array([1, 1], dtype=np.uint64),
            np.array([1, 1]),
            np.array([0, 8]),
            16,
        )
        np.testing.assert_array_equal(packed, [0b10000000, 0b10000000])

    def test_span_outside_total_bits_raises(self):
        with pytest.raises(EncodingError):
            pack_codes_at(
                np.array([1], dtype=np.uint64), np.array([4]), np.array([5]), 8
            )
        with pytest.raises(EncodingError):
            pack_codes_at(
                np.array([1], dtype=np.uint64), np.array([1]), np.array([-1]), 8
            )

    def test_unsorted_spans_raise(self):
        with pytest.raises(EncodingError, match="ascending"):
            pack_codes_at(
                np.array([1, 1], dtype=np.uint64), np.array([2, 2]),
                np.array([8, 0]), 16,
            )

    def test_overlapping_spans_raise(self):
        # The second span starts inside the first; the bit scatter this
        # packer replaced let the later code win there.
        with pytest.raises(EncodingError, match="overlap"):
            pack_codes_at(
                np.array([0b111, 0b1], dtype=np.uint64), np.array([3, 2]),
                np.array([0, 2]), 8,
            )

    def test_touching_spans_accepted(self):
        packed = pack_codes_at(
            np.array([0b111, 0b01], dtype=np.uint64), np.array([3, 2]),
            np.array([0, 3]), 8,
        )
        np.testing.assert_array_equal(packed, [0b11101000])

    def test_empty_codes_give_zeroed_buffer(self):
        packed = pack_codes_at(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), 12,
        )
        assert packed.size == 2 and not packed.any()


class TestPeekBitsPacked:
    def test_matches_bit_array_peek(self):
        from repro.encoding.bitio import peek_bits_packed

        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        packed = np.packbits(bits)
        positions = rng.integers(0, 360, 50)
        for width in (1, 7, 13, 24, 56):
            a = peek_bits(bits, positions, min(width, 63))
            b = peek_bits_packed(packed, positions, width)
            np.testing.assert_array_equal(a[: b.size], b)

    def test_past_end_zero_padded(self):
        from repro.encoding.bitio import peek_bits_packed

        packed = np.array([0b10000000], dtype=np.uint8)
        v = peek_bits_packed(packed, np.array([0]), 16)
        assert v[0] == 0b1000000000000000

    def test_width_limits(self):
        from repro.encoding.bitio import peek_bits_packed

        with pytest.raises(EncodingError):
            peek_bits_packed(np.zeros(4, np.uint8), np.array([0]), 57)
        with pytest.raises(EncodingError):
            peek_bits_packed(np.zeros(4, np.uint8), np.array([0]), 0)

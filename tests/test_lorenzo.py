"""Tests for Lorenzo construction/reconstruction and the partial-sum theorem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import DimensionalityError
from repro.core.lorenzo import (
    _LONG_CHUNK,
    chunked_cumsum,
    chunked_diff,
    lorenzo_construct,
    lorenzo_predict_sequential,
    lorenzo_reconstruct,
    lorenzo_reconstruct_sequential,
)

#: Largest extent drawn per axis, innermost last: the innermost axis reaches
#: past two chunks of ``_LONG_CHUNK`` so its long form runs with a tail, and
#: the oracles stay fast on the other axes.
_EXTENTS = {1: (60,), 2: (12, 30), 3: (6, 6, 30), 4: (4, 4, 4, 30)}


@st.composite
def ragged_cases(draw):
    """(int64 array, chunks, layout): 1-4D, any extents, chunks from 1 to
    past the extent, so each axis takes the slice form, the long form and
    the tail path across draws."""
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, top)) for top in _EXTENTS[ndim])
    chunks = tuple(draw(st.integers(1, n + 3)) for n in shape)
    x = draw(hnp.arrays(np.int64, shape, elements=st.integers(-10**6, 10**6)))
    return x, chunks, draw(st.sampled_from(["C", "F", "negative"]))


def with_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """The values of ``x`` in C order, Fortran order, or as a view with a
    negative stride on every axis."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "negative":
        return np.flip(np.flip(x).copy())
    return np.ascontiguousarray(x)


class TestChunkedDiffCumsum:
    def test_diff_no_chunking_matches_numpy(self):
        x = np.arange(10, dtype=np.int64) ** 2
        out = chunked_diff(x, axis=0, chunk=100)
        expected = np.diff(x, prepend=0)
        np.testing.assert_array_equal(out, expected)

    def test_cumsum_no_chunking_matches_numpy(self):
        x = np.arange(10, dtype=np.int64)
        np.testing.assert_array_equal(chunked_cumsum(x, 0, 100), np.cumsum(x))

    def test_diff_restarts_at_chunk_boundary(self):
        x = np.array([5, 6, 7, 8], dtype=np.int64)
        out = chunked_diff(x, axis=0, chunk=2)
        # positions 0 and 2 are chunk starts: keep raw value
        np.testing.assert_array_equal(out, [5, 1, 7, 1])

    def test_cumsum_restarts_at_chunk_boundary(self):
        x = np.array([5, 1, 7, 1], dtype=np.int64)
        out = chunked_cumsum(x, axis=0, chunk=2)
        np.testing.assert_array_equal(out, [5, 6, 7, 8])

    def test_cumsum_inverts_diff_uneven_tail(self):
        x = np.arange(17, dtype=np.int64) * 3 - 20
        d = chunked_diff(x, 0, 5)
        np.testing.assert_array_equal(chunked_cumsum(d, 0, 5), x)

    def test_2d_axis_independence(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-50, 50, (13, 9)).astype(np.int64)
        d = chunked_diff(x, axis=1, chunk=4)
        np.testing.assert_array_equal(chunked_cumsum(d, axis=1, chunk=4), x)

    def test_invalid_chunk_raises(self):
        with pytest.raises(ValueError):
            chunked_diff(np.zeros(4, dtype=np.int64), 0, 0)
        with pytest.raises(ValueError):
            chunked_cumsum(np.zeros(4, dtype=np.int64), 0, -1)

    @given(
        x=hnp.arrays(np.int64, st.integers(1, 60), elements=st.integers(-1000, 1000)),
        chunk=st.integers(1, 70),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_1d(self, x, chunk):
        d = chunked_diff(x, 0, chunk)
        np.testing.assert_array_equal(chunked_cumsum(d, 0, chunk), x)


class TestLorenzoConstructReconstruct:
    @pytest.mark.parametrize(
        "shape,chunks",
        [
            ((64,), (16,)),
            ((64,), (64,)),
            ((17,), (5,)),
            ((12, 10), (4, 4)),
            ((16, 16), (16, 16)),
            ((9, 7, 5), (4, 4, 4)),
            ((8, 8, 8), (8, 8, 8)),
            ((3, 4, 5, 6), (2, 2, 2, 2)),
            ((1000,), (256,)),
            ((37, 50), (16, 16)),
        ],
    )
    def test_roundtrip_exact(self, shape, chunks):
        rng = np.random.default_rng(42)
        x = rng.integers(-10_000, 10_000, shape).astype(np.int64)
        delta = lorenzo_construct(x, chunks)
        np.testing.assert_array_equal(lorenzo_reconstruct(delta, chunks), x)

    @pytest.mark.parametrize(
        "shape,chunks",
        [
            ((20,), (8,)),
            ((7, 9), (4, 4)),
            ((5, 6, 4), (4, 4, 4)),
            ((40,), (_LONG_CHUNK,)),  # long form with a tail of 4
            ((5, 29), (2, _LONG_CHUNK + 1)),  # slice form, long form, both tails
            ((3, 4, 3, 26), (2, 3, 5, _LONG_CHUNK)),  # 4-D, chunk past an extent
        ],
    )
    def test_construct_matches_sequential_reference(self, shape, chunks):
        """The vectorized N-pass diff equals the explicit Lorenzo formula."""
        rng = np.random.default_rng(7)
        x = rng.integers(-100, 100, shape).astype(np.int64)
        np.testing.assert_array_equal(
            lorenzo_construct(x, chunks), lorenzo_predict_sequential(x, chunks)
        )

    @pytest.mark.parametrize(
        "shape,chunks",
        [
            ((20,), (8,)),
            ((7, 9), (4, 4)),
            ((5, 6, 4), (4, 4, 4)),
            ((40,), (_LONG_CHUNK,)),
            ((5, 29), (2, _LONG_CHUNK + 1)),
            ((3, 4, 3, 26), (2, 3, 5, _LONG_CHUNK)),
        ],
    )
    def test_partial_sum_theorem(self, shape, chunks):
        """Paper Section IV-B.2: partial-sum == sequential Lorenzo reconstruction."""
        rng = np.random.default_rng(9)
        delta = rng.integers(-5, 5, shape).astype(np.int64)
        np.testing.assert_array_equal(
            lorenzo_reconstruct(delta, chunks),
            lorenzo_reconstruct_sequential(delta, chunks),
        )

    def test_axis_order_commutes(self):
        """Integer addition commutativity lets passes run in any order."""
        rng = np.random.default_rng(3)
        delta = rng.integers(-9, 9, (6, 7, 8)).astype(np.int64)
        a = chunked_cumsum(chunked_cumsum(chunked_cumsum(delta, 0, 4), 1, 4), 2, 4)
        b = chunked_cumsum(chunked_cumsum(chunked_cumsum(delta, 2, 4), 0, 4), 1, 4)
        np.testing.assert_array_equal(a, b)

    def test_chunk_mismatch_raises(self):
        with pytest.raises(DimensionalityError):
            lorenzo_construct(np.zeros((4, 4), dtype=np.int64), (4,))
        with pytest.raises(DimensionalityError):
            lorenzo_reconstruct(np.zeros(4, dtype=np.int64), (2, 2))

    def test_unsupported_ndim_raises(self):
        with pytest.raises(DimensionalityError):
            lorenzo_construct(np.zeros((2,) * 5, dtype=np.int64), (2,) * 5)

    def test_first_element_is_raw_value(self):
        """Prediction from zeros: delta[0...] == x[0...]."""
        x = np.full((5, 5), 37, dtype=np.int64)
        delta = lorenzo_construct(x, (5, 5))
        assert delta[0, 0] == 37

    def test_constant_field_produces_sparse_deltas(self):
        """A constant field should be almost all zero after prediction."""
        x = np.full((32, 32), 11, dtype=np.int64)
        delta = lorenzo_construct(x, (16, 16))
        # Nonzeros only at chunk corners/edges (prediction-from-zero points).
        nonzero = np.count_nonzero(delta)
        assert nonzero <= 2 * 32 + 2 * 32  # boundary rows/cols of chunks

    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        chunks=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property_2d(self, data, shape, chunks):
        x = data.draw(
            hnp.arrays(np.int64, shape, elements=st.integers(-10**6, 10**6))
        )
        delta = lorenzo_construct(x, chunks)
        np.testing.assert_array_equal(lorenzo_reconstruct(delta, chunks), x)

    @given(case=ragged_cases())
    @settings(max_examples=60, deadline=None)
    def test_construct_matches_oracle_in_any_layout(self, case):
        """The blocked passes equal the explicit Lorenzo formula on C,
        Fortran and negative-stride inputs, and leave the input as it was."""
        x, chunks, layout = case
        src = with_layout(x, layout)
        out = lorenzo_construct(src, chunks)
        np.testing.assert_array_equal(out, lorenzo_predict_sequential(x, chunks))
        np.testing.assert_array_equal(src, x)

    @given(case=ragged_cases())
    @settings(max_examples=60, deadline=None)
    def test_reconstruct_matches_oracle_in_any_layout(self, case):
        """The blocked partial sums equal the sequential reconstruction on
        C, Fortran and negative-stride inputs, and leave the input as it was."""
        delta, chunks, layout = case
        src = with_layout(delta, layout)
        out = lorenzo_reconstruct(src, chunks)
        np.testing.assert_array_equal(out, lorenzo_reconstruct_sequential(delta, chunks))
        np.testing.assert_array_equal(src, delta)

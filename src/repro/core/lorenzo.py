"""First-order Lorenzo prediction as N-pass finite differences.

The paper's central observation (Section IV-B.2) is that first-order Lorenzo
*reconstruction* is an N-dimensional inclusive partial-sum, decomposable into
N passes of 1-D prefix sums.  The dual statement, used here for
*construction*, is that the Lorenzo prediction error

    delta = d - p(d)       (p = first-order Lorenzo predictor)

equals N passes of 1-D first differences.  For 2-D, for instance::

    delta[y, x] = d[y, x] - d[y-1, x] - d[y, x-1] + d[y-1, x-1]
                = (D_y D_x d)[y, x]

with out-of-range neighbours treated as zero.  ``D_a`` (diff along axis
``a``) and its inverse ``S_a`` (inclusive scan along axis ``a``) commute
across axes because integer addition is commutative and associative
(Section IV-A.1b), so the passes may run in any order -- this is what lets
the GPU kernels reorder the computation freely.

cuSZ compresses in independent chunks (256 for 1-D, 16x16 for 2-D, 8x8x8 for
3-D) with prediction starting from zeros at every chunk boundary.  The
functions here therefore implement *segmented* diff and *segmented* inclusive
scan: the operation restarts at every index that is a multiple of the chunk
size along that axis.  Each pass runs on a blocked view ``(..., n // c, c,
...)`` of one buffer, so a pass reads and writes every element once, and
the short tail of an extent that is not a multiple of the chunk (or the
whole axis, when the chunk reaches the extent) takes the same operation on
its own slice.  A pass has one of two forms, picked from the chunk length
and the axis's stride, as cuSZ+ tunes its partial-sum kernel per dimension
(Section IV-B, Table II):

* ``c - 1`` slice adds (slice subtracts for construction), one per position
  inside the chunk, for a strided axis -- each slice is whole rows -- and
  for the innermost axis when its chunks are short;
* one ``np.cumsum`` (``np.subtract`` for construction) along the chunk axis
  of the blocked view, for the innermost axis when its chunks are at least
  ``_LONG_CHUNK`` long, where the slice form's strided passes cost more
  than numpy's per-chunk loop.

The public functions return a new array and leave their input unchanged:
their first pass reads the input and writes the result buffer, and later
passes run in place.  :func:`construct_in_place` and
:func:`reconstruct_in_place` run every pass in a buffer the caller owns,
which is how the compressor and decompressor avoid per-pass copies.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionalityError

__all__ = [
    "chunked_diff",
    "chunked_cumsum",
    "lorenzo_construct",
    "lorenzo_reconstruct",
    "lorenzo_predict_sequential",
    "lorenzo_reconstruct_sequential",
]

#: Maximum supported dimensionality (the paper evaluates 1-D..3-D plus a 4-D
#: QMCPACK field reinterpreted as 3-D; we support 4-D natively).
MAX_NDIM = 4

#: The innermost axis takes the ``np.cumsum`` / ``np.subtract`` form when its
#: chunks are at least this long, the slice form when they are shorter.
#: Scanning 2 Mi int64 elements, the slice form took 3.7 ms at chunk 8 and
#: 4.5 ms at 10 against 5.4 and 5.2 ms for ``np.cumsum``; the two tie at 12,
#: and from 16 up ``np.cumsum`` wins (4.8 against 7.8 ms at 16, 4.0 against
#: 9.9 ms at 256).
_LONG_CHUNK = 12


def _check_ndim(ndim: int) -> None:
    if not 1 <= ndim <= MAX_NDIM:
        raise DimensionalityError(f"supported dimensionalities are 1..{MAX_NDIM}, got {ndim}")


def _check_chunk(chunk: int) -> None:
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")


def _check_chunks(ndim: int, chunks: tuple[int, ...]) -> None:
    _check_ndim(ndim)
    if len(chunks) != ndim:
        raise DimensionalityError(
            f"chunks {chunks!r} do not match data dimensionality {ndim}"
        )
    for chunk in chunks:
        _check_chunk(chunk)


def _scan_dtype(dtype: np.dtype) -> np.dtype:
    """Result dtype of ``np.cumsum`` on ``dtype`` (small integers widen)."""
    return np.cumsum(np.zeros(1, dtype=dtype)).dtype


def _pieces(a: np.ndarray, axis: int, chunk: int) -> list[tuple[np.ndarray, int]]:
    """Views of ``a`` that cover ``axis`` chunk by chunk, each with the axis
    its operation runs along.

    The whole chunks form one blocked view ``(..., n // chunk, chunk, ...)``
    (run along ``axis + 1``); a tail shorter than ``chunk`` -- the whole
    axis when ``chunk`` reaches the extent -- is its own slice (run along
    ``axis``).  Both share ``a``'s memory, whatever its strides.
    """
    n = a.shape[axis]
    whole = n - n % chunk
    pieces = []
    if whole:
        step = a.strides[axis]
        blocked = as_strided(
            a,
            shape=a.shape[:axis] + (whole // chunk, chunk) + a.shape[axis + 1 :],
            strides=a.strides[:axis] + (chunk * step, step) + a.strides[axis + 1 :],
        )
        pieces.append((blocked, axis + 1))
    if whole < n:
        pieces.append((a[(slice(None),) * axis + (slice(whole, None),)], axis))
    return pieces


def _scan(src: np.ndarray, dst: np.ndarray, k: int, long_form: bool, in_place: bool) -> None:
    """``dst`` = inclusive prefix sum of ``src`` along ``k``."""
    if long_form:
        np.cumsum(src, axis=k, out=dst)
        return
    lead = (slice(None),) * k
    if not in_place:
        dst[lead + (0,)] = src[lead + (0,)]
    for j in range(1, src.shape[k]):
        at, before = lead + (j, ...), lead + (j - 1, ...)
        np.add(dst[before], src[at], out=dst[at])


def _diff(src: np.ndarray, dst: np.ndarray, k: int, long_form: bool, in_place: bool) -> None:
    """``dst`` = first difference of ``src`` along ``k``, raw at position 0."""
    lead = (slice(None),) * k
    if long_form:
        # In place, numpy buffers the overlapping operand, so every
        # difference still reads the original values.
        np.subtract(
            src[lead + (slice(1, None),)],
            src[lead + (slice(None, -1),)],
            out=dst[lead + (slice(1, None),)],
        )
    else:
        # Highest position first, so in place each subtrahend is unchanged.
        for j in range(src.shape[k] - 1, 0, -1):
            at, before = lead + (j, ...), lead + (j - 1, ...)
            np.subtract(src[at], src[before], out=dst[at])
    if not in_place:
        dst[lead + (0,)] = src[lead + (0,)]


def _run_pass(op, src: np.ndarray, dst: np.ndarray, axis: int, chunk: int) -> None:
    """One segmented pass of ``op`` along ``axis`` from ``src`` into ``dst``
    (which may be ``src``), in the form the axis's stride and chunk pick."""
    long_form = dst.strides[axis] == dst.itemsize and chunk >= _LONG_CHUNK
    in_place = src is dst
    for (s, k), (d, _) in zip(_pieces(src, axis, chunk), _pieces(dst, axis, chunk)):
        op(s, d, k, long_form, in_place)


def _run_passes(op, src: np.ndarray, dst: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """Every axis's pass, innermost first: the first reads ``src``, the rest
    run in ``dst``."""
    for axis in reversed(range(dst.ndim)):
        _run_pass(op, src, dst, axis, chunks[axis])
        src = dst
    return dst


def chunked_diff(x: np.ndarray, axis: int, chunk: int) -> np.ndarray:
    """First difference along ``axis`` restarting at every chunk boundary.

    ``out[i] = x[i] - x[i-1]`` within a chunk and ``out[i] = x[i]`` at chunk
    starts (``i % chunk == 0``), i.e. prediction-from-zero at boundaries.
    """
    _check_chunk(chunk)
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=x.dtype)
    _run_pass(_diff, x, out, range(x.ndim)[axis], chunk)
    return out


def chunked_cumsum(x: np.ndarray, axis: int, chunk: int) -> np.ndarray:
    """Inclusive prefix sum along ``axis`` restarting at every chunk boundary.

    This is the exact inverse of :func:`chunked_diff` with the same ``chunk``
    and is the 1-D pass of the paper's partial-sum reconstruction: a
    segmented scan over the blocked view, in the form the axis picks (see
    the module docstring).  Integer inputs stay exact (no float round-off).
    """
    _check_chunk(chunk)
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=_scan_dtype(x.dtype))
    _run_pass(_scan, x, out, range(x.ndim)[axis], chunk)
    return out


def lorenzo_construct(x: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """Lorenzo prediction errors via N passes of segmented first differences.

    Parameters
    ----------
    x:
        Integer (prequantized) data of 1..4 dimensions.
    chunks:
        Per-axis chunk sizes; prediction restarts at chunk boundaries so
        chunks decompress independently.

    Returns
    -------
    A new array of the same shape and dtype:
    ``delta = x - lorenzo_prediction(x)``.
    """
    _check_chunks(x.ndim, chunks)
    return _run_passes(_diff, x, np.empty(x.shape, dtype=x.dtype), chunks)


def lorenzo_reconstruct(delta: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`lorenzo_construct` via N passes of segmented prefix sums.

    This is the paper's fine-grained partial-sum reconstruction
    (Algorithm 1, lines 10-12): ``d = pSum_z(pSum_y(pSum_x(q')))``.
    """
    _check_chunks(delta.ndim, chunks)
    return _run_passes(
        _scan, delta, np.empty(delta.shape, dtype=_scan_dtype(delta.dtype)), chunks
    )


def construct_in_place(x: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """:func:`lorenzo_construct` overwriting ``x``, which the caller owns."""
    _check_chunks(x.ndim, chunks)
    return _run_passes(_diff, x, x, chunks)


def reconstruct_in_place(delta: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """:func:`lorenzo_reconstruct` overwriting the int64 ``delta``, which the
    caller owns."""
    _check_chunks(delta.ndim, chunks)
    return _run_passes(_scan, delta, delta, chunks)


# ---------------------------------------------------------------------------
# Sequential reference implementations (the paper's explicit predictor
# formulas).  These exist to *prove* the partial-sum equivalence in tests and
# to model the coarse-grained per-chunk-sequential baseline of original cuSZ.
# They are deliberately written element-by-element.
# ---------------------------------------------------------------------------


def _predict_at(d: np.ndarray, index: tuple[int, ...], origin: tuple[int, ...]) -> int:
    """First-order Lorenzo prediction at ``index`` from already-known values.

    ``origin`` is the chunk's starting corner; neighbours before the origin
    along any axis are treated as zero (prediction-from-zero at chunk
    boundaries).  Implements the general inclusion-exclusion form

        p = sum over non-empty subsets S of axes of
            (-1)^(|S|+1) * d[index - e_S]

    which expands to the explicit 1-D/2-D/3-D formulas of Section IV-B.2.
    """
    ndim = d.ndim
    pred = 0
    for mask in range(1, 1 << ndim):
        neighbour = list(index)
        bits = 0
        in_range = True
        for axis in range(ndim):
            if mask >> axis & 1:
                bits += 1
                neighbour[axis] -= 1
                if neighbour[axis] < origin[axis]:
                    in_range = False
                    break
        if not in_range:
            continue
        sign = 1 if bits % 2 == 1 else -1
        pred += sign * int(d[tuple(neighbour)])
    return pred


def lorenzo_predict_sequential(x: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """Element-by-element Lorenzo prediction errors (reference).

    Matches :func:`lorenzo_construct` exactly; quadratically slower.  Only
    use on small arrays (tests).
    """
    _check_ndim(x.ndim)
    delta = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        origin = tuple((i // c) * c for i, c in zip(index, chunks))
        delta[index] = int(x[index]) - _predict_at(x, index, origin)
    return delta


def lorenzo_reconstruct_sequential(delta: np.ndarray, chunks: tuple[int, ...]) -> np.ndarray:
    """Element-by-element Lorenzo reconstruction (reference / coarse baseline).

    This is how original cuSZ decompresses: one value at a time per chunk,
    each prediction depending on already-reconstructed predecessors -- the
    read-after-write chain the paper's partial-sum formulation removes.
    """
    _check_ndim(delta.ndim)
    d = np.zeros_like(delta)
    for index in np.ndindex(*delta.shape):
        origin = tuple((i // c) * c for i, c in zip(index, chunks))
        d[index] = _predict_at(d, index, origin) + int(delta[index])
    return d

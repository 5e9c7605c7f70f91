"""cub/thrust-style parallel primitives (functional equivalents).

These mirror the CUDA primitives cuSZ+ builds on -- ``cub::BlockScan``,
``thrust::reduce_by_key``, the cuSPARSE dense/sparse converters -- with the
same semantics, expressed over NumPy.  The block scans are the segmented
scan of :mod:`repro.core.lorenzo`: it views the array as one row per block
and scans every row independently, as each thread block of a
``BlockScan`` scans its own tile with no carry from the one before.  These
wrappers give those operations the primitive-level names and contracts for
direct use and testing.
"""

from __future__ import annotations

import numpy as np

from ..core.lorenzo import chunked_cumsum

__all__ = [
    "block_inclusive_scan",
    "block_exclusive_scan",
    "reduce_by_key",
    "dense_to_sparse",
    "sparse_to_dense",
    "warp_shuffle_up",
]


def block_inclusive_scan(x: np.ndarray, block: int) -> np.ndarray:
    """``cub::BlockScan::InclusiveSum`` over independent blocks of a 1-D array."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("block scans operate on 1-D arrays")
    return chunked_cumsum(x, axis=0, chunk=block)


def block_exclusive_scan(x: np.ndarray, block: int) -> np.ndarray:
    """``cub::BlockScan::ExclusiveSum``: inclusive scan shifted right by one
    within each block, with 0 at block heads."""
    inc = block_inclusive_scan(x, block)
    out = np.empty_like(inc)
    out[0] = 0
    out[1:] = inc[:-1]
    starts = np.arange(0, x.shape[0], block)
    out[starts] = 0
    return out


def reduce_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``thrust::reduce_by_key`` with sum-reduction over consecutive equal keys.

    Returns (unique consecutive keys, per-run value sums).
    """
    keys = np.asarray(keys).reshape(-1)
    values = np.asarray(values).reshape(-1)
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same length")
    if keys.size == 0:
        return keys[:0].copy(), values[:0].copy()
    heads = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    sums = np.add.reduceat(values, heads)
    return keys[heads].copy(), sums


def dense_to_sparse(dense: np.ndarray, fill=0) -> tuple[np.ndarray, np.ndarray]:
    """cuSPARSE-style gather: (flat indices, values) of entries != fill."""
    flat = np.asarray(dense).reshape(-1)
    idx = np.flatnonzero(flat != fill)
    return idx.astype(np.int64), flat[idx].copy()


def sparse_to_dense(indices: np.ndarray, values: np.ndarray, n: int, fill=0,
                    dtype=None) -> np.ndarray:
    """Scatter sparse entries into a dense 1-D array of length ``n``."""
    indices = np.asarray(indices)
    values = np.asarray(values)
    if indices.shape != values.shape:
        raise ValueError("indices and values must have the same length")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise IndexError("sparse index out of range")
    out = np.full(n, fill, dtype=dtype or values.dtype)
    out[indices] = values
    return out


def warp_shuffle_up(x: np.ndarray, delta: int, warp: int = 32) -> np.ndarray:
    """``__shfl_up_sync``: lane i of each warp reads lane i - delta.

    Lanes with no source (i < delta) keep their own value, matching the
    CUDA intrinsic's behaviour of returning the caller's value unchanged.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("warp shuffles operate on 1-D arrays")
    if not 0 <= delta < warp:
        raise ValueError(f"delta must be in [0, warp), got {delta}")
    out = x.copy()
    n = x.shape[0]
    lanes = np.arange(n) % warp
    src = np.arange(n) - delta
    movable = (lanes >= delta) & (src >= 0)
    out[movable] = x[src[movable]]
    return out

"""Fixed-rate block-transform codec (cuZFP stand-in).

The paper's related-work comparison point: cuZFP is faster than cuSZ but
"only supports fixed-rate mode, significantly limiting its adoption".  This
codec reproduces the *design*, not ZFP's exact bitstream: 4^d blocks, a
block-common exponent, an exact integer Haar lifting transform along each
axis to decorrelate, and fixed-rate truncation keeping the top ``rate_bits``
of every coefficient.  It offers no error bound -- distortion varies with
content -- which is precisely the contrast the comparison benchmark draws.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigError, DimensionalityError

__all__ = ["ZfpLike", "ZfpArchive"]

_BLOCK = 4
#: Fixed-point fractional bits used when aligning a block to its exponent.
_FRAC_BITS = 26


def _haar_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Exact integer Haar lifting along ``axis`` (length-4 blocks -> 2 levels).

    Pairwise: d = a - b; s = b + (d >> 1).  Applied to (0,1) and (2,3), then
    to the two resulting averages -- fully invertible in integers.
    """
    out = x.copy()
    out = _lift_pairs(out, axis, (0, 1))
    out = _lift_pairs(out, axis, (2, 3))
    out = _lift_pairs(out, axis, (0, 2))
    return out


def _haar_inverse(x: np.ndarray, axis: int) -> np.ndarray:
    out = x.copy()
    out = _unlift_pairs(out, axis, (0, 2))
    out = _lift_pairs_inv_leafs(out, axis)
    return out


def _take(x: np.ndarray, axis: int, i: int) -> np.ndarray:
    return np.take(x, i, axis=axis)


def _put(x: np.ndarray, axis: int, i: int, value: np.ndarray) -> None:
    idx = [slice(None)] * x.ndim
    idx[axis] = i
    x[tuple(idx)] = value


def _lift_pairs(x: np.ndarray, axis: int, pair: tuple[int, int]) -> np.ndarray:
    a = _take(x, axis, pair[0])
    b = _take(x, axis, pair[1])
    d = a - b
    s = b + (d >> 1)
    _put(x, axis, pair[0], s)
    _put(x, axis, pair[1], d)
    return x


def _unlift_pair(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = s - (d >> 1)
    a = b + d
    return a, b


def _unlift_pairs(x: np.ndarray, axis: int, pair: tuple[int, int]) -> np.ndarray:
    s = _take(x, axis, pair[0])
    d = _take(x, axis, pair[1])
    a, b = _unlift_pair(s, d)
    _put(x, axis, pair[0], a)
    _put(x, axis, pair[1], b)
    return x


def _lift_pairs_inv_leafs(x: np.ndarray, axis: int) -> np.ndarray:
    x = _unlift_pairs(x, axis, (0, 1))
    x = _unlift_pairs(x, axis, (2, 3))
    return x


@dataclass
class ZfpArchive:
    """Fixed-rate compressed blocks + geometry."""

    payload: bytes
    shape: tuple[int, ...]
    rate_bits: int
    dtype: str

    @property
    def nbytes(self) -> int:
        return len(self.payload) + struct.calcsize("<4QB") + 8

    def compression_ratio(self) -> float:
        original = int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize
        return original / self.nbytes


class ZfpLike:
    """Fixed-rate transform codec over 4^d blocks (1-3D).

    ``rate_bits`` is the stored bits per value (1..30).  Compression ratio
    is deterministic: ``value_bits / (rate_bits + exponent_overhead)``.
    """

    def __init__(self, rate_bits: int = 8) -> None:
        if not 1 <= rate_bits <= 30:
            raise ConfigError(f"rate_bits must be in 1..30, got {rate_bits}")
        self.rate_bits = rate_bits

    # -- public API ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> ZfpArchive:
        data = np.asarray(data, dtype=np.float32)
        if not 1 <= data.ndim <= 3:
            raise DimensionalityError("ZfpLike supports 1..3 dimensions")
        padded, orig_shape = self._pad(data)
        blocks = self._to_blocks(padded)  # (nblocks, 4^d)
        # Block-common exponent alignment (like zfp): scale each block by
        # 2^(-e) so the largest magnitude sits just below 1, then fix-point.
        maxabs = np.abs(blocks).max(axis=1).astype(np.float64)
        exps = np.where(
            maxabs > 0, np.ceil(np.log2(np.maximum(maxabs, 1e-300))), 0
        ).astype(np.int8)
        scale = np.exp2(_FRAC_BITS - exps.astype(np.float64))[:, None]
        ints = np.rint(blocks.astype(np.float64) * scale).astype(np.int64)
        # Decorrelate: Haar lifting along each axis of the 4^d block.
        d = data.ndim
        cube = ints.reshape((-1,) + (_BLOCK,) * d)
        for axis in range(1, d + 1):
            cube = _haar_forward(cube, axis)
        coeffs = cube.reshape(ints.shape[0], -1)
        # Fixed-rate truncation: keep the top rate_bits of each coefficient.
        # The lifting grows magnitudes by up to 2 bits per axis.
        shift = _FRAC_BITS + 2 * d - self.rate_bits
        q = coeffs >> shift if shift > 0 else coeffs << -shift
        lo, hi = -(1 << (self.rate_bits - 1)), (1 << (self.rate_bits - 1)) - 1
        q = np.clip(q, lo, hi)
        payload = self._pack(q - lo, exps)
        return ZfpArchive(
            payload=payload,
            shape=tuple(orig_shape),
            rate_bits=self.rate_bits,
            dtype="float32",
        )

    def decompress(self, archive: ZfpArchive) -> np.ndarray:
        d = len(archive.shape)
        q, exps, nblocks = self._unpack(archive, d)
        lo = -(1 << (archive.rate_bits - 1))
        coeffs = q + lo
        shift = _FRAC_BITS + 2 * d - archive.rate_bits
        # Midpoint reconstruction of the truncated bits.
        if shift > 0:
            coeffs = (coeffs << shift) + (1 << (shift - 1))
        else:
            coeffs = coeffs >> -shift
        cube = coeffs.reshape((-1,) + (_BLOCK,) * d)
        for axis in range(d, 0, -1):
            cube = _haar_inverse(cube, axis)
        ints = cube.reshape(nblocks, -1)
        scale = np.exp2(exps.astype(np.float64) - _FRAC_BITS)[:, None]
        blocks = ints.astype(np.float64) * scale
        return self._from_blocks(blocks.astype(np.float32), archive.shape)

    # -- block plumbing --------------------------------------------------------

    @staticmethod
    def _pad(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        pads = [(0, (-s) % _BLOCK) for s in data.shape]
        return np.pad(data, pads, mode="edge"), data.shape

    @staticmethod
    def _to_blocks(padded: np.ndarray) -> np.ndarray:
        d = padded.ndim
        grid = [s // _BLOCK for s in padded.shape]
        # reshape into (g0, 4, g1, 4, ...) then move block axes last
        shape = []
        for g in grid:
            shape += [g, _BLOCK]
        x = padded.reshape(shape)
        order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
        return x.transpose(order).reshape(int(np.prod(grid)), _BLOCK**d)

    @staticmethod
    def _from_blocks(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        d = len(shape)
        padded_shape = [s + ((-s) % _BLOCK) for s in shape]
        grid = [s // _BLOCK for s in padded_shape]
        x = blocks.reshape(grid + [_BLOCK] * d)
        order = []
        for i in range(d):
            order += [i, d + i]
        x = x.transpose(order).reshape(padded_shape)
        return x[tuple(slice(0, s) for s in shape)]

    # -- bit packing ------------------------------------------------------------

    def _pack(self, q: np.ndarray, exps: np.ndarray) -> bytes:
        from ..encoding.bitio import pack_codes

        flat = q.reshape(-1).astype(np.uint64)
        lengths = np.full(flat.size, self.rate_bits, dtype=np.int64)
        packed, total_bits = pack_codes(flat, lengths)
        header = struct.pack("<QQ", q.shape[0], total_bits)
        return header + exps.tobytes() + packed.tobytes()

    def _unpack(self, archive: ZfpArchive, d: int) -> tuple[np.ndarray, np.ndarray, int]:
        from ..encoding.bitio import peek_bits, unpack_to_bits

        raw = archive.payload
        nblocks, total_bits = struct.unpack_from("<QQ", raw, 0)
        nblocks = int(nblocks)
        off = 16
        exps = np.frombuffer(raw[off : off + nblocks], dtype=np.int8)
        off += nblocks
        packed = np.frombuffer(raw[off:], dtype=np.uint8)
        bits = unpack_to_bits(packed, int(total_bits))
        n_vals = nblocks * _BLOCK**d
        positions = np.arange(n_vals, dtype=np.int64) * archive.rate_bits
        vals = peek_bits(bits, positions, archive.rate_bits)
        return vals.reshape(nblocks, _BLOCK**d).astype(np.int64), exps, nblocks

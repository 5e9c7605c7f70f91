"""Seeded input fields for the benchmark workloads.

Everything here is numpy only: the benchmark's inputs never go through
``repro.data``, so a change to the program cannot change what it is fed.
Each field is drawn from ``numpy.random.default_rng((seed, tag))``, so the
same seed gives the same bytes and every field of one seed is independent
of the others.  The shapes and generator families are fixed; the seed moves
phases, positions and noise, so one workload costs about the same on every
seed.
"""

from __future__ import annotations

import zlib

import numpy as np

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng((int(seed), zlib.crc32(tag.encode())))


def _spectrum(n_terms: int, n_axes: int, max_freq: float) -> np.ndarray:
    """Fixed per-axis frequencies, log-spaced up to ``max_freq``.

    The spectrum does not depend on the seed, so every seed's field is
    about as compressible as every other's; the seed moves the phases.
    """
    base = np.geomspace(0.5, max_freq, n_terms)
    return np.stack([np.roll(base, 3 * k) for k in range(n_axes)], axis=1)


def _waves(rng, axes: list[np.ndarray], n_terms: int, max_freq: float) -> np.ndarray:
    """Sum of separable sinusoids with a 1/f amplitude spectrum, in float64."""
    shape = tuple(a.size for a in axes)
    out = np.zeros(shape)
    for freqs in _spectrum(n_terms, len(axes), max_freq):
        term = np.ones((1,) * len(axes))
        for k, axis in enumerate(axes):
            wave = np.sin(2 * np.pi * freqs[k] * axis + rng.uniform(0, 2 * np.pi))
            term = term * wave.reshape([-1 if j == k else 1 for j in range(len(axes))])
        out += term / float(np.linalg.norm(freqs))
    return out


def _grid(shape) -> list[np.ndarray]:
    return [np.linspace(0.0, 1.0, n, endpoint=False) for n in shape]


def _noise(rng, shape, scale: float) -> np.ndarray:
    return rng.standard_normal(shape) * scale


def smooth(shape, seed: int, tag: str, dtype=F32, noise: float = 2e-4) -> np.ndarray:
    """A smooth multi-scale field plus faint white noise (Workflow-Huffman)."""
    rng = rng_for(seed, tag)
    x = _waves(rng, _grid(shape), n_terms=12, max_freq=24.0)
    x /= np.ptp(x)
    x += _noise(rng, shape, noise)
    return (x * 40.0 + 280.0).astype(dtype)


def velocity_1d(n: int, seed: int, tag: str) -> np.ndarray:
    """A 1D particle-velocity-like stream: drifting band-limited signal."""
    rng = rng_for(seed, tag)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    x = _waves(rng, [t], n_terms=24, max_freq=400.0)
    x /= np.ptp(x)
    x += _noise(rng, (n,), 2e-4)
    return (x * 3.0e3).astype(F32)


def plateau(shape, seed: int, tag: str, dtype=F32) -> np.ndarray:
    """A mask-like grid: a smooth field snapped to a handful of levels."""
    rng = rng_for(seed, tag)
    x = _waves(rng, _grid(shape), n_terms=6, max_freq=6.0)
    x = (x - x.min()) / np.ptp(x)
    return np.floor(x * 6.0).astype(dtype)


def _blobs(rng, shape, n_blobs: int, width: tuple[float, float]) -> np.ndarray:
    """Gaussian blobs on a zero background, clipped to exact zeros far out."""
    axes = _grid(shape)
    out = np.zeros(shape)
    for w in np.linspace(*width, n_blobs):
        centre = rng.uniform(0.1, 0.9, size=len(shape))
        term = np.ones((1,) * len(shape))
        for k, axis in enumerate(axes):
            g = np.exp(-0.5 * ((axis - centre[k]) / w) ** 2)
            g[g < 1e-3] = 0.0
            term = term * g.reshape([-1 if j == k else 1 for j in range(len(shape))])
        out += term
    return out


def plume(shape, seed: int, tag: str, dtype=F32, nan_frac: float = 0.15) -> np.ndarray:
    """An aerosol-like plume grid with a contiguous NaN-masked band."""
    rng = rng_for(seed, tag)
    x = _blobs(rng, shape, n_blobs=24, width=(0.01, 0.02))
    rows = shape[0]
    start = int(rng.uniform(0.2, 0.6) * rows)  # where the masked band lies
    x[start : start + int(nan_frac * rows)] = np.nan
    return (x * 50.0).astype(dtype)


def density(shape, seed: int, tag: str, dtype=F32) -> np.ndarray:
    """A sparse 3D density cube: compact blobs in empty space."""
    rng = rng_for(seed, tag)
    return (_blobs(rng, shape, n_blobs=32, width=(0.01, 0.03)) * 10.0).astype(dtype)


def blocks_field(shape, seed: int, background_frac: float = 0.25) -> np.ndarray:
    """A smooth 3D field whose leading slabs are one constant background.

    Generated slab by slab so the float64 temporaries stay small.  The
    constant slabs give several blocks the same quant-code distribution.
    """
    rng = rng_for(seed, "blocks")
    out = np.empty(shape, dtype=F32)
    n0 = shape[0]
    cut = int(n0 * background_frac)
    out[:cut] = 280.0
    terms = [(freqs, rng.uniform(0, 2 * np.pi, size=3)) for freqs in _spectrum(12, 3, 24.0)]
    axes = _grid(shape)
    slab = 16
    for lo in range(cut, n0, slab):
        hi = min(lo + slab, n0)
        part = np.zeros((hi - lo,) + tuple(shape[1:]))
        for freqs, phases in terms:
            waves = [
                np.sin(2 * np.pi * freqs[k] * axes[k][sl] + phases[k])
                for k, sl in enumerate((slice(lo, hi), slice(None), slice(None)))
            ]
            part += (
                waves[0][:, None, None] * waves[1][None, :, None] * waves[2][None, None, :]
            ) / float(np.linalg.norm(freqs))
        part += _noise(rng, part.shape, 2e-4 * 4.0)
        out[lo:hi] = (part * 10.0 + 280.0).astype(F32)
    return out


# -- workload field sets ----------------------------------------------------

#: name -> (generator, eb); each field is about 8 MiB of float32.
LIB_HUFFMAN = {
    "velocity_1d": (lambda s: velocity_1d(1 << 21, s, "velocity_1d"), 1e-3),
    "climate_2d": (lambda s: smooth((1024, 2048), s, "climate_2d"), 1e-3),
    "cube_3d": (lambda s: smooth((128, 128, 128), s, "cube_3d"), 1e-3),
}

LIB_RLE = {
    "plateau_2d": (lambda s: plateau((1024, 2048), s, "plateau_2d"), 1e-2),
    "plume_2d": (lambda s: plume((1024, 2048), s, "plume_2d"), 1e-2),
    "density_3d": (lambda s: density((128, 128, 128), s, "density_3d"), 1e-2),
}

BLOCKS_SHAPE = (256, 256, 256)
BLOCKS_EB = 1e-3
BLOCKS_BLOCK_BYTES = 4 << 20


def library_fields(workload: str, seed: int) -> dict[str, tuple[np.ndarray, float]]:
    table = {"lib-huffman": LIB_HUFFMAN, "lib-rle": LIB_RLE}[workload]
    return {name: (build(seed), eb) for name, (build, eb) in table.items()}


#: Service field shapes: (tag, shape, dtype, kind, eb).  ``kind`` picks the
#: generator; smooth fields at 1e-3 take Workflow-Huffman, the sparse ones
#: at 1e-2 take Workflow-RLE.  50k to 400k elements each.
SERVICE_SHAPES = [
    ("s_grid", (256, 256), F32, "smooth", 1e-3),
    ("s_cube", (64, 64, 64), F32, "smooth", 1e-3),
    ("s_line64", (120_000,), F64, "smooth", 1e-3),
    ("r_plateau", (512, 768), F32, "plateau", 1e-2),
    ("r_plume", (400, 500), F32, "plume", 1e-2),
    ("r_density", (72, 72, 72), F32, "density", 1e-2),
]


def service_field(kind: str, shape, dtype, seed: int, tag: str) -> np.ndarray:
    if kind == "smooth":
        return smooth(shape, seed, tag, dtype=dtype)
    if kind == "plateau":
        return plateau(shape, seed, tag, dtype=dtype)
    if kind == "plume":
        return plume(shape, seed, tag, dtype=dtype)
    return density(shape, seed, tag, dtype=dtype)

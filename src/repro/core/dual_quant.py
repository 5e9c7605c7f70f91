"""Dual-quantization (prequant + postquant) and the modified outlier scheme.

Original SZ reconstructs data *during* compression (the decompressor's
recursion run in-place), creating a loop-carried read-after-write dependency.
cuSZ's dual-quantization (Section IV-A) removes it:

* **prequant** -- integerize every value up front:
  ``d_q = round(d / (2 * eb))``, guaranteeing ``|d - d_q * 2eb| <= eb``;
* **postquant** -- Lorenzo-predict over the *integers* and keep the integer
  difference ``delta = d_q - prediction`` as the quant-code.  Because the
  integers are exact, no further error accrues and every element is
  independent.

cuSZ+ additionally *modifies the outlier scheme* (Section IV-B.1): when
``delta`` falls outside the dictionary range, the **compensation delta
itself** is stored as the outlier (not the prequantized value as in cuSZ),
and the quant-code keeps the neutral placeholder.  Decompression then fuses
quant-codes and outliers into one dense ``q' = (q - radius) + scatter(out)``
array and reconstructs with a branch-free partial sum -- no divergence.

Quant-codes are kept in ``[0, dict_size)`` with zero-delta mapped to
``radius = dict_size // 2`` so the most frequent symbol is ``radius``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CompressorConfig
from .errors import ConfigError
from .lorenzo import construct_in_place, lorenzo_construct, reconstruct_in_place
from .interp import interp_construct, interp_reconstruct
from .regression import (
    RegressionCoefficients,
    fit_predict_chunks,
    predict_from_coefficients,
)

__all__ = [
    "Quantized",
    "prequantize",
    "dequantize",
    "postquantize",
    "fuse_quant_and_outliers",
    "quantize_field",
    "reconstruct_field",
]

#: Largest prequantized magnitude we accept before declaring the error bound
#: too small for the value range (int64 cumsum headroom).
_MAX_PREQUANT_MAGNITUDE = 2**53

#: Per-dtype unit round-off of the *output* cast: reconstructing into
#: float32/float64 rounds the float64 product ``d_q * 2eb`` once more, adding
#: up to ``|value| * eps/2`` of error on top of the quantization error.
_CAST_EPS = {np.dtype(np.float32): 2.0**-24, np.dtype(np.float64): 2.0**-53}


@dataclass
class Quantized:
    """Output of the prediction-and-quantization stage.

    Attributes
    ----------
    quant:
        Dense quant-codes in ``[0, dict_size)``; dtype ``uint16`` when the
        dictionary fits (the multi-byte symbols of the paper), else
        ``uint32``.
    outlier_indices:
        Flat indices (C order) whose delta fell outside the dictionary.
    outlier_values:
        The out-of-range compensation deltas (int64) -- the cuSZ+ modified
        scheme stores the *delta*, enabling branch-free fusion.
    shape:
        Original array shape.
    chunks:
        Chunk sizes used for Lorenzo prediction.
    radius:
        Quantization radius (``dict_size // 2``).
    eb_twice:
        The prequantization step size ``2 * eb`` (absolute).
    """

    quant: np.ndarray
    outlier_indices: np.ndarray
    outlier_values: np.ndarray
    shape: tuple[int, ...]
    chunks: tuple[int, ...]
    radius: int
    eb_twice: float
    predictor: str = "lorenzo"
    reg_coeffs: RegressionCoefficients | None = None

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_indices.size)

    @property
    def outlier_fraction(self) -> float:
        n = int(np.prod(self.shape))
        return self.n_outliers / n if n else 0.0


def prequantize(data: np.ndarray, eb_abs: float) -> np.ndarray:
    """Integerize ``data`` with step ``2 * eb_abs`` (Algorithm 1, line 2).

    Rounding to nearest guarantees the reconstruction error
    ``|d - round(d / 2eb) * 2eb| <= eb``.
    """
    if eb_abs <= 0:
        raise ConfigError(f"absolute error bound must be positive, got {eb_abs}")
    scaled = np.divide(data, 2.0 * eb_abs, dtype=np.float64)
    # min and max propagate NaN, so a NaN anywhere makes the peak NaN.
    peak = max(abs(float(scaled.min())), abs(float(scaled.max()))) if scaled.size else 0.0
    if not np.isfinite(peak) or peak > _MAX_PREQUANT_MAGNITUDE:
        raise ConfigError(
            "error bound too small for the data's value range: prequantized "
            f"magnitude {peak:.3g} exceeds integer headroom"
        )
    return np.rint(scaled, out=scaled).astype(np.int64)


def dequantize(codes: np.ndarray, eb_abs: float, dtype=np.float32) -> np.ndarray:
    """Map prequantized integers back to floating point (Algorithm 1, line 13)."""
    return _dequantize(np.asarray(codes), 2.0 * eb_abs, dtype)


def _dequantize(codes: np.ndarray, step: float, dtype) -> np.ndarray:
    """``codes * step`` formed in float64, then cast once to ``dtype``.

    The error-bound proof is about this float64 product, so the multiply
    runs in float64 and numpy rounds each product to ``dtype`` as it stores
    it; no full-size float64 temporary is kept for a narrower ``dtype``.
    """
    out = np.empty(codes.shape, dtype=dtype)
    np.multiply(codes, step, out=out, dtype=np.float64, casting="unsafe")
    return out


def postquantize(dq: np.ndarray, chunks: tuple[int, ...], dict_size: int) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Lorenzo-predict integers and split deltas into quant-codes + outliers.

    Returns ``(quant, outlier_indices, outlier_values)``.  ``quant`` holds
    ``delta + radius`` clipped to the dictionary; out-of-range positions get
    the neutral placeholder ``radius`` and their raw delta goes to the
    outlier stream (cuSZ+ modified scheme, Algorithm 1 lines 4-8).
    """
    delta = lorenzo_construct(dq, chunks)
    return split_deltas(delta, dict_size)


def split_deltas(delta: np.ndarray, dict_size: int) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Split integer prediction deltas into quant-codes + sparse outliers."""
    radius = dict_size // 2
    shifted = np.add(delta, radius, dtype=np.int64, order="C")
    # Capture range: -radius <= delta < radius  <=>  0 <= q < dict_size, one
    # unsigned test since negative shifted deltas wrap to huge uint64 values.
    outlier_indices = np.flatnonzero(shifted.view(np.uint64) >= dict_size)
    outlier_indices = outlier_indices.astype(np.int64, copy=False)
    outlier_values = delta.reshape(-1)[outlier_indices]
    shifted.reshape(-1)[outlier_indices] = radius
    quant_dtype = np.uint16 if dict_size <= np.iinfo(np.uint16).max + 1 else np.uint32
    return shifted.astype(quant_dtype), outlier_indices, outlier_values


def fuse_quant_and_outliers(
    quant: np.ndarray,
    outlier_indices: np.ndarray,
    outlier_values: np.ndarray,
    radius: int,
) -> np.ndarray:
    """Fuse quant-codes and outliers into a dense delta array (line 9).

    ``q' = (q - radius)`` everywhere, then outlier positions -- which carry
    the neutral placeholder, i.e. ``q' = 0`` -- are overwritten with their
    stored deltas.  The result feeds the partial-sum reconstruction with no
    branching, the key enabler of fine-grained decompression.  It is a new
    C-order int64 array, which :func:`reconstruct_fused` may consume.
    """
    fused = np.subtract(quant, radius, dtype=np.int64, order="C")
    if outlier_indices.size:
        fused.reshape(-1)[outlier_indices] = outlier_values
    return fused


def quantize_field(data: np.ndarray, config: CompressorConfig) -> tuple[Quantized, float]:
    """Full compression-side transform: prequant -> Lorenzo -> postquant.

    Returns the :class:`Quantized` bundle and the resolved absolute error
    bound (needed by the decompressor and recorded in the archive header).
    """
    data = np.asarray(data)
    if data.size == 0:
        raise ConfigError("cannot compress an empty array")
    finite = np.isfinite(data)
    if not finite.all():
        raise ConfigError("data contains non-finite values; mask or replace them first")
    vmin = float(data.min())
    vmax = float(data.max())
    eb_abs = config.absolute_bound(vmax - vmin)
    chunks = config.chunks_for(data.ndim)
    # Quantize with a tighter step so |d - d̂| <= eb_abs holds strictly even
    # at exact-half rounding (raw error == step/2) plus the output-dtype cast
    # (up to |value| * eps of extra rounding).  When the requested bound is
    # below the output dtype's own precision the cast error is unavoidable;
    # we then keep half the bound as quantization budget, which is the best
    # achievable, and the bound holds up to one output ulp.
    eps = _CAST_EPS.get(np.dtype(data.dtype), 2.0**-24)
    cast_guard = max(abs(vmin), abs(vmax)) * 2.0 * eps
    eb_quant = max(eb_abs - cast_guard, eb_abs * 0.5) * (1.0 - 1e-12)
    dq = prequantize(data, eb_quant)

    predictor = config.predictor
    reg_coeffs: RegressionCoefficients | None = None
    if predictor == "auto":
        predictor = _choose_predictor(dq, chunks, config.dict_size)
    if predictor == "regression":
        pred, reg_coeffs = fit_predict_chunks(dq, chunks)
        quant, oidx, oval = split_deltas(dq - pred, config.dict_size)
    elif predictor == "interp":
        if not 1 <= dq.ndim <= 3:
            raise ConfigError("interp predictor supports 1..3-D data")
        quant, oidx, oval = split_deltas(interp_construct(dq, cubic=True), config.dict_size)
    else:
        quant, oidx, oval = split_deltas(construct_in_place(dq, chunks), config.dict_size)
    bundle = Quantized(
        quant=quant,
        outlier_indices=oidx,
        outlier_values=oval,
        shape=data.shape,
        chunks=chunks,
        radius=config.radius,
        eb_twice=2.0 * eb_quant,
        predictor=predictor,
        reg_coeffs=reg_coeffs,
    )
    return bundle, eb_abs


def _choose_predictor(dq: np.ndarray, chunks: tuple[int, ...], dict_size: int) -> str:
    """Pick the predictor with the lower estimated encoded size.

    Cost model: quant-code entropy times element count, plus 64 bits per
    outlier, plus the regression path's coefficient storage.
    """
    from ..analysis.entropy import shannon_entropy

    def cost(quant, oidx, extra_bits: float) -> float:
        freqs = np.bincount(quant.reshape(-1), minlength=dict_size)
        return shannon_entropy(freqs) * quant.size + 64.0 * oidx.size + extra_bits

    lq, loidx, _ = postquantize(dq, chunks, dict_size)
    pred, coeffs = fit_predict_chunks(dq, chunks)
    rq, roidx, _ = split_deltas(dq - pred, dict_size)
    costs = {
        "lorenzo": cost(lq, loidx, 0.0),
        "regression": cost(rq, roidx, coeffs.payload_bytes() * 8.0),
    }
    if 1 <= dq.ndim <= 3:
        iq, ioidx, _ = split_deltas(interp_construct(dq, cubic=True), dict_size)
        costs["interp"] = cost(iq, ioidx, 0.0)
    return min(costs, key=costs.get)


def reconstruct_field(bundle: Quantized, dtype=np.float32) -> np.ndarray:
    """Full decompression-side transform: fuse -> predict+sum -> dequantize."""
    fused = fuse_quant_and_outliers(
        bundle.quant, bundle.outlier_indices, bundle.outlier_values, bundle.radius
    )
    return reconstruct_fused(
        fused, bundle.shape, bundle.chunks, bundle.predictor, bundle.eb_twice, dtype,
        bundle.reg_coeffs,
    )


def reconstruct_fused(
    fused: np.ndarray,
    shape: tuple[int, ...],
    chunks: tuple[int, ...],
    predictor: str,
    eb_twice: float,
    dtype,
    reg_coeffs: RegressionCoefficients | None = None,
) -> np.ndarray:
    """Predict+sum -> dequantize a fused delta array (Algorithm 1, lines 10-13).

    ``fused`` is what :func:`fuse_quant_and_outliers` returned, and this
    call consumes it: the Lorenzo partial sums and the regression
    correction run in place in it.
    """
    dq = fused.reshape(shape)
    if predictor == "regression":
        if reg_coeffs is None:
            raise ConfigError("regression bundle is missing its coefficients")
        dq += predict_from_coefficients(reg_coeffs, shape)
    elif predictor == "interp":
        dq = interp_reconstruct(dq, cubic=True)
    else:
        reconstruct_in_place(dq, chunks)
    return _dequantize(dq, eb_twice, dtype)

"""Output checks: every result the program returns is compared with a
computation of the benchmark's own.

Each check raises :class:`CheckFailed` with a one-line reason.  The bound is
computed here, in float64, over the input's finite values; the bound the
program reports is never trusted.
"""

from __future__ import annotations

import numpy as np

#: Elements per slice of the chunked float64 comparisons, so a check adds
#: little to the process's peak memory.
_SLICE = 1 << 20


class CheckFailed(AssertionError):
    pass


def value_range(x: np.ndarray) -> float:
    """max - min over the finite values, in float64."""
    flat = x.reshape(-1)
    lo, hi = np.inf, -np.inf
    for i in range(0, flat.size, _SLICE):
        part = flat[i : i + _SLICE]
        part = part[np.isfinite(part)]
        if part.size:
            lo = min(lo, float(part.min()))
            hi = max(hi, float(part.max()))
    if lo > hi:
        raise CheckFailed("field has no finite values")
    return hi - lo


def abs_bound(x: np.ndarray, eb_rel: float) -> float:
    return eb_rel * value_range(x)


def check_restored(x: np.ndarray, y: np.ndarray, bound: float) -> float:
    """Shape, dtype, NaN positions and max |x - y| <= bound on finite values.

    Returns the largest error as a share of the bound.
    """
    if y.shape != x.shape:
        raise CheckFailed(f"shape {y.shape} != {x.shape}")
    if y.dtype != x.dtype:
        raise CheckFailed(f"dtype {y.dtype} != {x.dtype}")
    fx, fy = x.reshape(-1), y.reshape(-1)
    worst = 0.0
    for i in range(0, fx.size, _SLICE):
        a, b = fx[i : i + _SLICE], fy[i : i + _SLICE]
        na, nb = np.isnan(a), np.isnan(b)
        if not np.array_equal(na, nb):
            raise CheckFailed(
                f"NaN positions differ in elements {i}..{i + a.size}"
            )
        keep = np.isfinite(a)
        if keep.any():
            err = np.abs(a[keep].astype(np.float64) - b[keep].astype(np.float64))
            worst = max(worst, float(err.max()))
    if not worst <= bound:
        raise CheckFailed(f"max error {worst:.6g} exceeds bound {bound:.6g}")
    return worst / bound if bound > 0 else 0.0


def check_same_bytes(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        n = min(len(got), len(want))
        diff = next((i for i in range(n) if got[i] != want[i]), n)
        raise CheckFailed(
            f"{what}: {len(got)} bytes differ from the expected {len(want)} "
            f"from byte {diff}"
        )


def check_verify_report(report: dict, intact: bool) -> None:
    """A verify answer must say ok on intact archives and not ok on damaged ones."""
    if bool(report.get("ok")) != intact:
        state = "intact" if intact else "corrupted"
        raise CheckFailed(f"verify said ok={report.get('ok')} on a {state} archive")


def check_codes(decoded: np.ndarray, codes: np.ndarray, what: str) -> None:
    if decoded.shape != codes.reshape(-1).shape or not np.array_equal(
        decoded, codes.reshape(-1)
    ):
        raise CheckFailed(f"{what}: decoded codes differ from the quantized ones")


def shannon_bits(freqs: np.ndarray) -> float:
    """Order-0 entropy of a histogram, in bits per symbol."""
    f = np.asarray(freqs, dtype=np.float64)
    f = f[f > 0]
    p = f / f.sum()
    return float(-(p * np.log2(p)).sum())


def check_entropy_floor(coded_bits: int, n_symbols: int, freqs: np.ndarray) -> float:
    """Coded bits per symbol may not undercut the histogram's entropy."""
    bps = coded_bits / n_symbols
    floor = shannon_bits(freqs)
    if bps + 1e-9 < floor:
        raise CheckFailed(f"{bps:.4f} bits/symbol is below the entropy {floor:.4f}")
    return bps


def flip_payload_byte(blob: bytes, offset_from_end: int = 64) -> bytes:
    """One byte of the archive body flipped, away from the framing header."""
    b = bytearray(blob)
    i = max(len(b) - offset_from_end, len(b) // 2)
    b[i] ^= 0xFF
    return bytes(b)

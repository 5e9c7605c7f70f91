"""Histogram of quant-codes (cuSZ compression Step-5).

The GPU kernel uses the replication-based shared-memory histogram of
Gomez-Luna et al. [34]; functionally it is a plain frequency count, which is
what :func:`histogram` computes.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import EncodingError

__all__ = ["histogram", "probabilities", "most_likely_probability"]


def histogram(quant: np.ndarray, dict_size: int) -> np.ndarray:
    """Frequencies of each quant-code symbol; shape ``(dict_size,)``.

    One ``bincount`` pass: it rejects negative codes itself, and a code of
    ``dict_size`` or more shows as a longer count vector.
    """
    try:
        counts = np.bincount(np.asarray(quant).reshape(-1), minlength=dict_size)
    except ValueError:
        raise EncodingError("quant-codes outside [0, dict_size)") from None
    if counts.size > dict_size:
        raise EncodingError("quant-codes outside [0, dict_size)")
    return counts.astype(np.int64, copy=False)


def probabilities(freqs: np.ndarray) -> np.ndarray:
    """Normalize a frequency vector to probabilities (empty-safe)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    total = freqs.sum()
    if total <= 0:
        raise EncodingError("cannot normalize an all-zero histogram")
    return freqs / total


def most_likely_probability(freqs: np.ndarray) -> float:
    """``p1``: probability of the most likely symbol (drives the RLE rule)."""
    return float(probabilities(freqs).max())

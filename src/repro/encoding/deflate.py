"""DEFLATE (gzip-equivalent) stage via the standard library's zlib.

Only the *reference* compression paths use this: the paper's ``qg`` and
``qhg`` columns (Table I, Table IV) append gzip on the host to show the
compression ratio attainable with pattern-finding.  zlib implements the same
DEFLATE algorithm as gzip minus the file header, so ratios are equivalent.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["deflate_bytes", "inflate_bytes", "deflate_array"]

#: gzip's default compression level, used by CPU-SZ.
DEFAULT_LEVEL = 6


def deflate_bytes(raw: bytes, level: int = DEFAULT_LEVEL) -> bytes:
    """Compress raw bytes with DEFLATE."""
    return zlib.compress(raw, level)


def inflate_bytes(compressed: bytes) -> bytes:
    """Invert :func:`deflate_bytes`."""
    return zlib.decompress(compressed)


def deflate_array(arr: np.ndarray, level: int = DEFAULT_LEVEL) -> bytes:
    """Compress an array's underlying bytes (C order)."""
    return zlib.compress(np.ascontiguousarray(arr).tobytes(), level)


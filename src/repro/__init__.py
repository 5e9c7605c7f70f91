"""repro — a reproduction of cuSZ+ (CLUSTER 2021).

Compressibility-aware, error-bounded lossy compression for scientific
floating-point data, with a simulated-GPU performance model reproducing the
paper's V100/A100 evaluation.

Quickstart
----------
>>> import numpy as np, repro
>>> field = np.random.default_rng(0).normal(size=(512, 512)).astype(np.float32)
>>> result = repro.compress(field, eb=1e-3)
>>> restored = repro.decompress(result.archive)
>>> assert np.abs(field - restored).max() <= result.eb_abs
"""

from . import telemetry
from .core.compressor import (
    CompressionResult,
    Compressor,
    DecompressionResult,
    compress,
    decompress,
    decompress_with_stats,
    sniff_container,
)
from .core.config import CompressorConfig, SelectorDiagnostics
from .core.integrity import IntegrityReport, verify_archive
from .core.streaming import (
    StreamingCompressor,
    compress_blocks,
    decompress_blocks,
)
from .engine import CompressionEngine, default_jobs
from .core.errors import (
    ArchiveError,
    CodebookOverflowError,
    ConfigError,
    DeviceError,
    DimensionalityError,
    EncodingError,
    IntegrityError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "compress",
    "compress_blocks",
    "decompress",
    "decompress_blocks",
    "decompress_with_stats",
    "sniff_container",
    "telemetry",
    "Compressor",
    "CompressionEngine",
    "default_jobs",
    "StreamingCompressor",
    "CompressorConfig",
    "CompressionResult",
    "DecompressionResult",
    "SelectorDiagnostics",
    "ReproError",
    "ConfigError",
    "EncodingError",
    "CodebookOverflowError",
    "ArchiveError",
    "IntegrityError",
    "IntegrityReport",
    "verify_archive",
    "DeviceError",
    "DimensionalityError",
    "__version__",
]

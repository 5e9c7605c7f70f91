"""Core pipeline: dual-quantization, Lorenzo, workflows, archive, public API."""

from .compressor import (
    CompressionResult,
    Compressor,
    DecompressionResult,
    compress,
    decompress,
    decompress_with_stats,
    sniff_container,
)
from .config import CompressorConfig, SelectorDiagnostics
from .inspect import ArchiveStats, inspect_archive
from .integrity import IntegrityReport, verify_archive
from .streaming import (
    StreamingCompressor,
    compress_blocks,
    decompress_blocks,
    decompress_blocks_with_stats,
)
from .temporal import TemporalCompressor, TemporalDecompressor

__all__ = [
    "compress",
    "decompress",
    "decompress_with_stats",
    "sniff_container",
    "Compressor",
    "CompressorConfig",
    "CompressionResult",
    "DecompressionResult",
    "SelectorDiagnostics",
    "compress_blocks",
    "decompress_blocks",
    "decompress_blocks_with_stats",
    "StreamingCompressor",
    "TemporalCompressor",
    "TemporalDecompressor",
    "ArchiveStats",
    "inspect_archive",
    "IntegrityReport",
    "verify_archive",
]

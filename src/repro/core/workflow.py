"""Lossless-stage pipelines: Workflow-Huffman and Workflow-RLE (Fig. 1).

Both workflows consume the quant-code array produced by dual-quantization
and emit archive sections; decompression mirrors them.  Section naming uses
a prefix so the same Huffman plumbing serves both the main quant stream and
the RLE value stream (the "+VLE" stage).

Workflow-Huffman (the cuSZ default, path "a"):
    histogram -> canonical codebook -> chunked Huffman encode -> deflate.

Workflow-RLE (the cuSZ+ addition, path "b"):
    reduce_by_key RLE -> (optional) Huffman over run values; run lengths
    stored raw by default (the paper disables metadata compression on GPU).
"""

from __future__ import annotations

import numpy as np

from .. import telemetry as tel
from ..encoding.huffman import CanonicalCodebook
from ..encoding.huffman_codec import (
    HuffmanEncoded,
    decode as huff_decode,
    encode as huff_encode,
    split_chunk_groups,
)
from ..engine.cache import cached_codebook, cached_decode_table, cached_histogram
from ..encoding.rle import RunLengthEncoded, rle_decode, rle_encode
from .archive import ArchiveBuilder, ArchiveReader
from .config import CompressorConfig
from .errors import ArchiveError

#: Fewest chunks per decode group worth a worker dispatch: below this the
#: submit/context-copy overhead outweighs the parallel decode win.
_MIN_CHUNKS_PER_GROUP = 4

__all__ = [
    "emit_huffman_sections",
    "read_huffman_sections",
    "emit_rle_sections",
    "read_rle_sections",
]


def _huffman_encode_stream(
    symbols: np.ndarray,
    alphabet_size: int,
    chunk_size: int,
    aligned: bool = False,
    freqs: np.ndarray | None = None,
) -> tuple[CanonicalCodebook, HuffmanEncoded, float]:
    """Histogram -> codebook -> chunked encode; returns (book, stream, ⟨b⟩).

    Both the histogram and the codebook go through the engine cache hooks:
    inside an engine worker (:func:`repro.engine.cache.cache_scope`) blocks
    with a previously-seen quant-code distribution skip tree construction;
    outside an engine the hooks fall through to direct computation.
    ``freqs``, when the caller already holds the histogram of ``symbols``
    over ``alphabet_size``, skips the histogram pass.

    ``aligned`` emits the format-v3 indexed payload (byte-aligned chunks
    with recorded sync points).
    """
    if freqs is None:
        with tel.span("huffman.histogram", bytes_in=int(symbols.nbytes)):
            freqs = cached_histogram(symbols, alphabet_size)
    with tel.span("huffman.codebook"):
        book = cached_codebook(freqs)
    with tel.span("huffman.encode", bytes_in=int(symbols.nbytes)) as sp:
        encoded = huff_encode(symbols, book, chunk_size, aligned=aligned)
        sp.set(bytes_out=int(encoded.payload_bytes))
    return book, encoded, book.average_bit_length(freqs)


def _add_huffman_group(
    builder: ArchiveBuilder,
    prefix: str,
    book: CanonicalCodebook,
    encoded: HuffmanEncoded,
    sparse_codebook: bool = False,
) -> None:
    raw_book = book.serialized_sparse() if sparse_codebook else book.serialized()
    builder.add_bytes(f"{prefix}.cb", raw_book)
    builder.add_array(f"{prefix}.bits", encoded.payload)
    builder.add_array(f"{prefix}.cbits", encoded.chunk_bits)
    if encoded.chunk_offsets is not None:
        builder.add_array(f"{prefix}.idx", encoded.chunk_offsets)


def _huffman_group_bytes(book_bytes: bytes, encoded: HuffmanEncoded) -> int:
    return len(book_bytes) + encoded.payload_bytes + encoded.metadata_bytes


def emit_huffman_sections(
    symbols: np.ndarray,
    alphabet_size: int,
    chunk_size: int,
    builder: ArchiveBuilder,
    prefix: str = "q",
    lz_stage: bool = False,
    freqs: np.ndarray | None = None,
) -> dict[str, float]:
    """Huffman-encode ``symbols`` and add codebook/payload/metadata sections.

    ``lz_stage`` appends the CPU-side dictionary pass (cuSZ Step-9): the
    deflated Huffman bitstream is LZ77-compressed into ``<prefix>.lz``
    (replacing ``<prefix>.bits``) when that actually shrinks it.  ``freqs``
    is the histogram of ``symbols`` over ``alphabet_size`` when the caller
    has already computed it.  Returns stage statistics used by the
    compression info report.
    """
    from ..encoding.lz77 import lz_compress

    book, encoded, avg_bitlen = _huffman_encode_stream(
        symbols, alphabet_size, chunk_size, aligned=builder.version >= 3, freqs=freqs
    )
    stats = {
        "avg_bitlen": avg_bitlen,
        "payload_bytes": float(encoded.payload_bytes),
        "metadata_bytes": float(encoded.metadata_bytes),
    }
    if lz_stage:
        with tel.span("huffman.lz", bytes_in=int(encoded.payload_bytes)) as sp:
            packed = lz_compress(encoded.payload.tobytes())
            sp.set(bytes_out=len(packed))
        if len(packed) < encoded.payload_bytes:
            builder.add_bytes(f"{prefix}.cb", book.serialized())
            builder.add_bytes(f"{prefix}.lz", packed)
            builder.add_array(f"{prefix}.cbits", encoded.chunk_bits)
            if encoded.chunk_offsets is not None:
                builder.add_array(f"{prefix}.idx", encoded.chunk_offsets)
            stats["lz_bytes"] = float(len(packed))
            return stats
        stats["lz_skipped"] = 1.0
    _add_huffman_group(builder, prefix, book, encoded)
    return stats


def read_huffman_sections(
    reader: ArchiveReader,
    n_symbols: int,
    chunk_size: int,
    prefix: str = "q",
    out_dtype=np.uint16,
    sparse_codebook: bool = False,
    engine=None,
) -> np.ndarray:
    """Decode a Huffman section group written by :func:`emit_huffman_sections`.

    ``engine`` (a :class:`~repro.engine.core.CompressionEngine`) fans the
    decode out across workers when the stream carries sync points
    (``<prefix>.idx``, format v3): chunk groups are self-contained, decode
    concurrently, and are concatenated in submission order -- the output is
    byte-identical to the serial decode.
    """
    raw_book = reader.get_bytes(f"{prefix}.cb")
    if sparse_codebook:
        book = CanonicalCodebook.deserialized_sparse(raw_book)
    else:
        book = CanonicalCodebook.deserialized(raw_book)
    if reader.has(f"{prefix}.lz"):
        from ..encoding.lz77 import lz_decompress

        with tel.span("huffman.lz_decode") as sp:
            payload = np.frombuffer(
                lz_decompress(reader.get_bytes(f"{prefix}.lz")), dtype=np.uint8
            )
            sp.set(bytes_out=int(payload.nbytes))
    else:
        payload = reader.get_array(f"{prefix}.bits")
    chunk_bits = reader.get_array(f"{prefix}.cbits")
    chunk_offsets = None
    if reader.has(f"{prefix}.idx"):
        chunk_offsets = reader.get_array(f"{prefix}.idx")
        # Sync points are derivable from the chunk bit lengths; cross-check
        # them so a corrupted offset fails loudly instead of desynchronizing
        # a chunk group.
        byte_lens = (chunk_bits.astype(np.int64) + 7) >> 3
        expected = np.concatenate(([0], np.cumsum(byte_lens)[:-1]))
        if chunk_offsets.size != chunk_bits.size or not np.array_equal(
            chunk_offsets.astype(np.int64), expected
        ):
            raise ArchiveError(
                f"section {prefix}.idx: sync points disagree with chunk bit lengths"
            )
    encoded = HuffmanEncoded(
        payload=payload,
        chunk_bits=chunk_bits,
        n_symbols=n_symbols,
        chunk_size=chunk_size,
        chunk_offsets=chunk_offsets,
    )
    table = cached_decode_table(book)
    with tel.span("huffman.decode", bytes_in=int(payload.nbytes)) as sp:
        out = _decode_stream(encoded, book, out_dtype, table, engine)
        sp.set(bytes_out=int(out.nbytes))
    return out


def _decode_stream(encoded, book, out_dtype, table, engine):
    """Serial decode, or sync-point-parallel decode when an engine is given."""
    n_chunks = int(encoded.chunk_bits.size)
    if (
        engine is None
        or encoded.chunk_offsets is None
        or n_chunks < 2 * _MIN_CHUNKS_PER_GROUP
        or getattr(engine, "jobs", 1) < 2
    ):
        return huff_decode(encoded, book, out_dtype=out_dtype, table=table)
    n_groups = min(engine.jobs, n_chunks // _MIN_CHUNKS_PER_GROUP)
    groups = split_chunk_groups(encoded, n_groups)
    if getattr(engine, "backend", None) == "process":
        # A decode LUT is big and rebuildable; let each worker process build
        # (and cache) its own from the codebook instead of pickling ours.
        table = None
    futures = [
        engine.run(huff_decode, g, book, out_dtype=out_dtype, table=table)
        for g in groups
    ]
    return np.concatenate([f.result() for f in futures])


def emit_rle_sections(
    quant: np.ndarray,
    config: CompressorConfig,
    builder: ArchiveBuilder,
    with_vle: bool,
) -> dict[str, float]:
    """RLE-encode the quant stream; optionally VLE the run values.

    Sections: ``r.len`` (raw run lengths), and either ``r.val`` (raw run
    values) or the ``rv.*`` Huffman group over run values.
    """
    with tel.span("rle.encode", bytes_in=int(quant.nbytes)) as sp:
        rle = rle_encode(quant.reshape(-1), length_dtype=np.dtype(config.rle_length_dtype))
        sp.set(bytes_out=int(rle.values.nbytes + rle.lengths.nbytes), n_runs=rle.n_runs)
    stats: dict[str, float] = {
        "n_runs": float(rle.n_runs),
        "mean_run_length": rle.mean_run_length,
    }
    if with_vle:
        # VLE over run values (dense 1024-symbol codebook).  The codebook is
        # a fixed cost; for short run streams it can exceed the raw values
        # outright, so VLE only replaces raw when it actually shrinks.
        with tel.span("rle.vle_values", bytes_in=int(rle.values.nbytes)):
            book, encoded, avg_bitlen = _huffman_encode_stream(
                rle.values, config.dict_size, config.huffman_chunk,
                aligned=builder.version >= 3,
            )
        if _huffman_group_bytes(book.serialized(), encoded) < rle.values.nbytes:
            _add_huffman_group(builder, "rv", book, encoded)
            stats["vle_avg_bitlen"] = avg_bitlen
            stats["vle_payload_bytes"] = float(encoded.payload_bytes)
        else:
            builder.add_array("r.val", rle.values)
            stats["vle_skipped"] = 1.0
        # VLE over run lengths (sparse codebook -- the 16-bit length alphabet
        # is huge but only a few dozen distinct lengths occur).  Run lengths
        # are heavily skewed, so this typically roughly halves the metadata,
        # which is where Table IV's >2x RLE+VLE gains come from.
        length_alphabet = int(np.iinfo(rle.lengths.dtype).max) + 1
        with tel.span("rle.vle_lengths", bytes_in=int(rle.lengths.nbytes)):
            lbook, lencoded, lavg = _huffman_encode_stream(
                rle.lengths.astype(np.uint32), length_alphabet, config.huffman_chunk,
                aligned=builder.version >= 3,
            )
        if _huffman_group_bytes(lbook.serialized_sparse(), lencoded) < rle.lengths.nbytes:
            _add_huffman_group(builder, "rl", lbook, lencoded, sparse_codebook=True)
            stats["vle_len_avg_bitlen"] = lavg
        else:
            builder.add_array("r.len", rle.lengths)
    else:
        builder.add_array("r.val", rle.values)
        builder.add_array("r.len", rle.lengths)
    return stats


def read_rle_sections(
    reader: ArchiveReader,
    n_symbols: int,
    n_runs: int,
    config: CompressorConfig,
    quant_dtype=np.uint16,
    engine=None,
) -> np.ndarray:
    """Invert :func:`emit_rle_sections` back to the flat quant stream."""
    if reader.has("r.len"):
        lengths = reader.get_array("r.len")
    else:
        lengths = read_huffman_sections(
            reader, n_runs, config.huffman_chunk, prefix="rl",
            out_dtype=np.dtype(config.rle_length_dtype), sparse_codebook=True,
            engine=engine,
        )
    if lengths.size != n_runs:
        raise ArchiveError(
            f"run-length metadata has {lengths.size} runs, header says {n_runs}"
        )
    if reader.has("r.val"):
        values = reader.get_array("r.val")
    else:
        values = read_huffman_sections(
            reader, n_runs, config.huffman_chunk, prefix="rv", out_dtype=quant_dtype,
            engine=engine,
        )
    rle = RunLengthEncoded(values=values, lengths=lengths, n_symbols=n_symbols)
    with tel.span("rle.decode", bytes_in=int(values.nbytes + lengths.nbytes)) as sp:
        out = rle_decode(rle, out_dtype=quant_dtype)
        sp.set(bytes_out=int(out.nbytes))
    return out

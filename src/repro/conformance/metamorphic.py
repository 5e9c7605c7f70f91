"""Metamorphic invariants of the codec, as pure checkable functions.

Each function states one relation that must hold between *related* pipeline
runs -- no golden values involved, so these catch logic drift the vector
corpus cannot (the corpus pins bytes; these pin behavior):

* **re-compression idempotence** -- a decompressed field is already on the
  quantization grid, so compressing it again and decompressing stays within
  one error bound of the first reconstruction;
* **error-bound monotonicity** -- tightening the bound never lowers PSNR;
* **axis-transpose consistency** -- compressing a transposed field honors
  the bound on the transposed data (predictors are axis-aware, so bytes may
  differ; the contract may not);
* **C/F-order invariance** -- the archive depends on the field's *values*,
  not its memory layout: Fortran-ordered input yields identical bytes;
* **rel-mode scale covariance** -- scaling a field by a power of two scales
  the resolved bound exactly and reproduces the exact scaled reconstruction
  (quant codes are scale-free under a value-range-relative bound);
* **serial/parallel identity** -- a ``jobs=N`` engine produces the same
  container bytes as the serial path;
* **decoder agreement** -- the two-level LUT decoder and each of its two
  regimes (cross-chunk lockstep and pointer jumping), the lockstep
  ``searchsorted`` decoder, and the bit-by-bit sequential reference decode
  every Huffman stream of an archive to byte-identical symbols;
* **decode serial/parallel identity** -- ``decompress(jobs=N)`` over a
  format-v3 indexed payload reconstructs the byte-identical array;
* **backend identity** -- the ``serial``, ``thread``, and ``process``
  executor backends emit byte-identical containers and byte-identical
  decodes (the process backend's shared-memory handoff and worker-state
  re-initialization must be invisible in the output).

``tests/test_conformance_metamorphic.py`` parametrizes these across all
four workflows and all three container kinds.
"""

from __future__ import annotations

import numpy as np

from ..analysis.metrics import evaluate_quality
from ..core.compressor import compress, decompress
from ..core.config import CompressorConfig
from ..core.streaming import compress_blocks

__all__ = [
    "roundtrip",
    "check_recompression_idempotence",
    "check_eb_monotonicity",
    "check_transpose_consistency",
    "check_order_invariance",
    "check_rel_scale_covariance",
    "check_serial_parallel_identity",
    "check_decoder_agreement",
    "check_decode_serial_parallel_identity",
    "check_backend_identity",
]


def roundtrip(
    field: np.ndarray, config: CompressorConfig, container: str = "single",
    block_bytes: int | None = None,
) -> tuple[bytes, np.ndarray, float]:
    """Compress+decompress through one container kind.

    Returns ``(archive bytes, reconstruction, promised absolute bound)``;
    for pwrel configs the returned bound is the point-wise relative bound.
    """
    if container == "blocks":
        blob = compress_blocks(
            field, config, max_block_bytes=block_bytes or _half_split(field)
        )
        eb_abs = _resolved_bound(field, config)
    elif container in ("single", "pwrel"):
        result = compress(field, config)
        blob, eb_abs = result.archive, result.eb_abs
    else:
        raise ValueError(f"unknown container kind {container!r}")
    return blob, decompress(blob), eb_abs


def _half_split(field: np.ndarray) -> int:
    """Block budget that splits a field into two blocks along axis 0."""
    row_bytes = max(int(field.nbytes // field.shape[0]), 1)
    return row_bytes * ((field.shape[0] + 1) // 2)


def _resolved_bound(field: np.ndarray, config: CompressorConfig) -> float:
    if config.eb_mode == "pwrel":
        return config.eb
    return config.absolute_bound(float(np.max(field) - np.min(field)))


def _max_err(a: np.ndarray, b: np.ndarray, relative: bool) -> float:
    a64 = a.astype(np.float64).reshape(-1)
    b64 = b.astype(np.float64).reshape(-1)
    if relative:
        nz = a64 != 0.0
        if not np.array_equal(b64[~nz], a64[~nz]):
            return float("inf")  # zeros must be restored exactly under pwrel
        return float(np.abs((b64[nz] - a64[nz]) / a64[nz]).max()) if nz.any() else 0.0
    return float(np.abs(a64 - b64).max())


_TOL = 1 + 1e-9


def check_recompression_idempotence(
    field: np.ndarray, config: CompressorConfig, container: str = "single"
) -> None:
    """``decompress(compress(decompress(compress(x))))`` stays bound-close.

    The second reconstruction must satisfy the bound against the first one
    (it is re-quantizing on-grid data), and transitively stay within twice
    the bound of the original.
    """
    relative = config.eb_mode == "pwrel"
    _, first, eb = roundtrip(field, config, container)
    _, second, _ = roundtrip(first, config, container)
    assert _max_err(first, second, relative) <= eb * _TOL, (
        "re-compression violated the bound against the first reconstruction"
    )
    assert _max_err(field, second, relative) <= (2 * eb + eb * eb) * _TOL, (
        "re-compression drifted beyond twice the bound from the original"
    )


def check_eb_monotonicity(
    field: np.ndarray, config: CompressorConfig, container: str = "single",
    ebs: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> None:
    """Tightening the error bound never makes PSNR worse.

    ``ebs`` is ordered loose -> tight; a small slack absorbs PSNR jitter on
    fields the loose bound already reconstructs near-perfectly.
    """
    psnrs = []
    for eb in ebs:
        cfg = config.with_(eb=eb)
        _, out, eb_abs = roundtrip(field, cfg, container)
        bound = eb if cfg.eb_mode == "pwrel" else eb_abs
        quality = evaluate_quality(field, out, bound)
        psnrs.append(quality.psnr_db)
    for loose, tight in zip(psnrs, psnrs[1:]):
        assert tight >= loose - 1e-6, (
            f"PSNR degraded when the bound tightened: {psnrs} for ebs {ebs}"
        )


def check_transpose_consistency(
    field: np.ndarray, config: CompressorConfig, container: str = "single"
) -> None:
    """Compressing ``x.T`` satisfies the bound on ``x.T``.

    Predictors walk axes in a fixed order, so the transposed archive's bytes
    legitimately differ -- but the error contract must hold on the
    transposed view exactly as on the original.
    """
    transposed = np.ascontiguousarray(field.T)
    relative = config.eb_mode == "pwrel"
    _, out, eb = roundtrip(transposed, config, container)
    assert out.shape == transposed.shape
    assert _max_err(transposed, out, relative) <= eb * _TOL, (
        "transposed field violated the error bound"
    )


def check_order_invariance(
    field: np.ndarray, config: CompressorConfig, container: str = "single"
) -> None:
    """C-ordered and Fortran-ordered inputs produce identical archives."""
    c_blob, _, _ = roundtrip(np.ascontiguousarray(field), config, container)
    f_blob, _, _ = roundtrip(np.asfortranarray(field), config, container)
    assert c_blob == f_blob, (
        "archive bytes depend on the input array's memory order"
    )


def check_rel_scale_covariance(
    field: np.ndarray, config: CompressorConfig, container: str = "single",
    scale: float = 4.0,
) -> None:
    """Under a rel-mode bound, scaling by a power of two commutes exactly.

    Power-of-two scaling is lossless in floating point, the value range
    scales exactly, hence the resolved absolute bound and the quantization
    step scale exactly -- so the scaled field's reconstruction is exactly
    ``scale`` times the original's.
    """
    assert config.eb_mode == "rel", "scale covariance is a rel-mode property"
    assert scale != 0 and float(np.log2(abs(scale))).is_integer(), (
        "covariance is exact only for power-of-two scales"
    )
    _, base, eb_base = roundtrip(field, config, container)
    _, scaled, eb_scaled = roundtrip(
        (field.astype(np.float64) * scale).astype(field.dtype), config, container
    )
    assert eb_scaled == eb_base * scale, (
        f"resolved bound did not scale: {eb_base} -> {eb_scaled} under x{scale}"
    )
    np.testing.assert_array_equal(
        scaled, (base.astype(np.float64) * scale).astype(base.dtype),
        err_msg="scaled reconstruction is not exactly the scaled original",
    )


def check_serial_parallel_identity(
    field: np.ndarray, config: CompressorConfig, jobs: int = 2,
    block_bytes: int | None = None,
) -> None:
    """A ``jobs=N`` block container is byte-identical to the serial one."""
    block_bytes = block_bytes or _half_split(field)
    serial = compress_blocks(field, config, max_block_bytes=block_bytes, jobs=1)
    parallel = compress_blocks(field, config, max_block_bytes=block_bytes, jobs=jobs)
    assert parallel == serial, f"jobs={jobs} container diverged from serial bytes"


def check_decoder_agreement(
    field: np.ndarray, config: CompressorConfig, container: str = "single"
) -> None:
    """Every Huffman decoder, and each LUT decode regime, agrees exactly.

    Encodes the field's quant-code stream -- the very symbols the archive
    carries under ``config`` -- through both payload layouts (dense v1/v2
    and byte-aligned v3 with sync points) and decodes each with the LUT
    decoder, each of its regimes called directly, the table-free lockstep
    decoder and the sequential reference.  Every reconstruction must be
    byte-identical to the symbols that went in; any divergence means one
    decoder misreads a bitstream the others accept.
    """
    from ..core.dual_quant import quantize_field
    from ..engine.cache import cached_codebook, cached_histogram
    from ..encoding.huffman_codec import (
        decode,
        decode_lockstep,
        decode_lut_jump,
        decode_lut_lockstep,
        decode_sequential,
        encode,
    )

    decoders = {
        "sequential": decode_sequential,
        "LUT": decode,
        "LUT lockstep-regime": decode_lut_lockstep,
        "LUT jump-regime": decode_lut_jump,
        "lockstep": decode_lockstep,
    }
    bundle, _ = quantize_field(np.asarray(field), config)
    symbols = bundle.quant.reshape(-1)
    book = cached_codebook(cached_histogram(symbols, config.dict_size))
    out_dtype = symbols.dtype
    for aligned in (False, True):
        encoded = encode(symbols, book, config.huffman_chunk, aligned=aligned)
        layout = "aligned" if aligned else "dense"
        for name, decoder in decoders.items():
            out = decoder(encoded, book, out_dtype=out_dtype)
            assert out.tobytes() == symbols.tobytes(), (
                f"{name} decoder diverged on the {layout} payload"
            )


def check_decode_serial_parallel_identity(
    field: np.ndarray, config: CompressorConfig, container: str = "single",
    jobs: int = 2,
) -> None:
    """``decompress(jobs=N)`` reconstructs byte-identical output.

    Format v3 carries per-chunk sync points, so a parallel decode splits
    the payload into independently decoded chunk groups; regardless of the
    split the concatenated result must match the serial decode bit-for-bit
    (not merely within the error bound).
    """
    blob, serial, _ = roundtrip(field, config, container)
    parallel = decompress(blob, jobs=jobs)
    assert serial.dtype == parallel.dtype and serial.shape == parallel.shape
    np.testing.assert_array_equal(
        parallel, serial,
        err_msg=f"jobs={jobs} decode diverged from the serial reconstruction",
    )


def check_backend_identity(
    field: np.ndarray, config: CompressorConfig, container: str = "single",
    jobs: int = 2, backends: tuple[str, ...] = ("serial", "thread", "process"),
    engines: dict | None = None,
) -> None:
    """Every executor backend emits the serial path's exact bytes and decode.

    Compresses the field through each backend (block container via
    ``compress_blocks(backend=...)``, single/pwrel archives via
    ``engine.submit``) and asserts byte-identity against the inline serial
    reference; then decodes the reference blob through each backend and
    asserts array identity (which exercises the v3 chunk-group fan-out when
    the config's payload carries sync points).

    ``engines`` may map backend names to prebuilt
    :class:`~repro.engine.CompressionEngine` instances so a test session can
    amortize process-pool spawn across many parametrized cases; missing
    entries get a transient engine.
    """
    from ..engine.backends import get_executor

    block_bytes = _half_split(field)
    if container == "blocks":
        reference = compress_blocks(field, config, max_block_bytes=block_bytes)
    else:
        reference = compress(field, config).archive
    serial_out = decompress(reference)
    for name in backends:
        eng = engines.get(name) if engines else None
        own = eng is None
        if eng is None:
            eng = get_executor(name, jobs=1 if name == "serial" else jobs, config=config)
        try:
            if container == "blocks":
                blob = compress_blocks(
                    field, config, max_block_bytes=block_bytes, backend=eng
                )
            else:
                blob = eng.submit(field, config).result().archive
            assert blob == reference, (
                f"backend={name} container diverged from the serial bytes"
            )
            out = decompress(reference, backend=eng)
            assert out.dtype == serial_out.dtype and out.shape == serial_out.shape
            np.testing.assert_array_equal(
                out, serial_out,
                err_msg=f"backend={name} decode diverged from the serial reconstruction",
            )
        finally:
            if own:
                eng.shutdown(wait=True)

"""Public compression API: :func:`compress`, :func:`decompress`, :class:`Compressor`.

End-to-end cuSZ+ pipeline (Fig. 1, bottom):

1. dual-quantization (prequant -> Lorenzo prediction -> postquant) with the
   modified outlier scheme (outliers carry the compensation delta);
2. histogram of quant-codes;
3. compressibility-aware workflow selection (⟨b⟩ <= 1.09 rule);
4. Workflow-Huffman (canonical multi-byte VLE, chunked/deflated) or
   Workflow-RLE (reduce-by-key runs, optional VLE over run values);
5. outlier gather into a sparse section;
6. sectioned archive serialization.

Decompression is the mirror image, ending in the branch-free partial-sum
Lorenzo reconstruction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry as tel
from ..encoding.histogram import histogram
from ..encoding.huffman import memo_counts
from ..telemetry import instruments as ins
from ..telemetry import ledger as ledger_mod
from .archive import ArchiveBuilder, ArchiveReader
from .config import CompressorConfig, SelectorDiagnostics
from .dual_quant import (
    Quantized,
    fuse_quant_and_outliers,
    quantize_field,
    reconstruct_fused,
)
from .errors import ArchiveError, ConfigError
from .selector import select_workflow
from .workflow import (
    emit_huffman_sections,
    emit_rle_sections,
    read_huffman_sections,
    read_rle_sections,
)

__all__ = [
    "CompressionResult",
    "DecompressionResult",
    "Compressor",
    "compress",
    "decompress",
    "decompress_with_stats",
    "sniff_container",
]

# Archive metadata section layout (little-endian):
#   dtype_code u8, ndim u8, workflow u8, predictor u8,
#   dict_size u32, huffman_chunk u32, rle_length_bytes u32,
#   shape 4*u64, chunks 4*u32,
#   eb_twice f64 (guarded quantization step), n_symbols u64, n_runs u64,
#   n_outliers u64, eb_abs f64 (the user-facing bound, for verification)
_META = struct.Struct("<BBBBIII4Q4IdQQQd")

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
#: Ledger spelling of each dtype; ``str(dtype)`` runs numpy's Python-level
#: formatter, which costs more than the rest of a record's fields.
_DTYPE_NAMES = {dt: dt.name for dt in _DTYPE_CODES}
_WORKFLOW_CODES = {"huffman": 0, "rle": 1, "rle+vle": 2, "huffman+lz": 3}
_CODE_WORKFLOWS = {v: k for k, v in _WORKFLOW_CODES.items()}
_PREDICTOR_CODES = {"lorenzo": 0, "regression": 1, "interp": 2}
_CODE_PREDICTORS = {v: k for k, v in _PREDICTOR_CODES.items()}


@dataclass
class CompressionResult:
    """Everything :func:`compress` produces.

    ``archive`` is the self-contained byte blob; the rest is reporting:
    per-section sizes, the selected workflow with its selector diagnostics,
    and the resolved absolute error bound.
    """

    archive: bytes
    workflow: str
    eb_abs: float
    original_bytes: int
    section_sizes: dict[str, int] = field(default_factory=dict)
    diagnostics: SelectorDiagnostics | None = None
    stage_stats: dict[str, float] = field(default_factory=dict)
    n_outliers: int = 0
    predictor: str = "lorenzo"
    #: Predicted-vs-actual selector audit (see :func:`_selector_audit`):
    #: the estimated ⟨b⟩ bounds / RLE gain next to the realized coded bits,
    #: plus the detected misprediction kind (if any).
    selector_audit: dict | None = None

    @property
    def compressed_bytes(self) -> int:
        return len(self.archive)

    @property
    def compression_ratio(self) -> float:
        return self.original_bytes / len(self.archive)


@dataclass
class DecompressionResult:
    """Everything :func:`decompress_with_stats` produces.

    ``data`` is the reconstructed array; the rest mirrors
    :class:`CompressionResult`'s reporting so ``repro decompress`` and
    ``verify`` can print per-stage timings symmetric with compression.
    ``stage_stats`` holds span-derived ``<stage>_seconds`` keys when
    telemetry is enabled (empty when disabled).
    """

    data: np.ndarray
    workflow: str
    predictor: str
    eb_abs: float
    n_outliers: int
    section_sizes: dict[str, int] = field(default_factory=dict)
    stage_stats: dict[str, float] = field(default_factory=dict)

    @property
    def decompressed_bytes(self) -> int:
        return int(self.data.nbytes)


def compress(data: np.ndarray, config: CompressorConfig | None = None, **kwargs) -> CompressionResult:
    """Compress a 1..4-D float array into a self-contained archive.

    ``kwargs`` are convenience overrides for :class:`CompressorConfig`
    fields, e.g. ``compress(x, eb=1e-3, workflow="huffman")``.  The
    configured error-bound mode drives the pipeline: ``"abs"``/``"rel"``
    run the dual-quantization path directly, ``"pwrel"`` routes through the
    point-wise-relative log transform (:mod:`repro.core.pwrel`) and wraps
    the result in a ``pw.*`` container that :func:`decompress` recognizes.
    """
    if config is None:
        config = CompressorConfig(**kwargs)
    elif kwargs:
        config = config.with_(**kwargs)
    if config.eb_mode == "pwrel":
        from .pwrel import _compress_pwrel

        return _compress_pwrel(np.asarray(data), config.eb, config)
    data = np.asarray(data)
    if data.dtype not in _DTYPE_CODES:
        if np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float32)
        else:
            raise ConfigError(f"unsupported dtype {data.dtype}; expected float32/float64")

    with tel.scope(config.telemetry):
        return _compress_impl(data, config)


def _compress_impl(data: np.ndarray, config: CompressorConfig) -> CompressionResult:
    led = ledger_mod.ledger_for(config)
    memo0 = memo_counts()
    with tel.span("compress", bytes_in=int(data.nbytes)) as root:
        # Missing values (NaN masks are routine in observational/climate
        # data): record their positions losslessly and fill with the finite
        # mean so the predictor sees smooth data; decompression restores the
        # NaNs exactly.
        nan_mask = np.isnan(data)
        nan_payload: bytes | None = None
        if nan_mask.any():
            with tel.span("nan_mask"):
                finite = data[~nan_mask]
                if finite.size == 0:
                    # A relative bound has no range to resolve against.  An
                    # absolute bound is still well-defined (the mask alone
                    # restores every value exactly), and all-NaN *blocks*
                    # are routine once a masked field is split on axis 0.
                    if config.eb_mode != "abs":
                        raise ConfigError("field is entirely NaN; nothing to compress")
                    fill = 0.0
                else:
                    fill = float(finite.mean())
                data = np.where(nan_mask, np.asarray(fill, dtype=data.dtype), data)
                nan_payload = _encode_nan_mask(nan_mask)

        with tel.span("quantize", bytes_in=int(data.nbytes)) as sp:
            bundle, eb_abs = quantize_field(data, config)
            sp.set(bytes_out=int(bundle.quant.nbytes), predictor=bundle.predictor,
                   n_outliers=bundle.n_outliers)
        with tel.span("histogram", bytes_in=int(bundle.quant.nbytes)):
            freqs = histogram(bundle.quant, config.dict_size)
        with tel.span("select_workflow") as sp:
            diag = select_workflow(bundle.quant, freqs, config)
            workflow = diag.decision
            sp.set(workflow=workflow)

        builder = ArchiveBuilder()
        stage_stats: dict[str, float] = {}
        flat = bundle.quant.reshape(-1)
        n_runs = 0
        with tel.span("encode", bytes_in=int(flat.nbytes), workflow=workflow):
            if workflow in ("huffman", "huffman+lz"):
                stage_stats.update(
                    emit_huffman_sections(
                        flat, config.dict_size, config.huffman_chunk, builder,
                        lz_stage=workflow == "huffman+lz", freqs=freqs,
                    )
                )
            elif workflow in ("rle", "rle+vle"):
                rle_stats = emit_rle_sections(
                    flat, config, builder, with_vle=workflow == "rle+vle"
                )
                n_runs = int(rle_stats.pop("n_runs"))
                stage_stats.update(rle_stats)
            else:  # pragma: no cover - selector guarantees a known value
                raise ConfigError(f"selector produced unknown workflow {workflow!r}")

        with tel.span("outliers", bytes_in=int(bundle.outlier_values.nbytes)):
            _emit_outliers(bundle, builder)
        with tel.span("archive") as sp:
            if nan_payload is not None:
                builder.add_bytes("nan", nan_payload)
            if bundle.predictor == "regression":
                builder.add_bytes("reg", bundle.reg_coeffs.serialized())
            builder.add_bytes("meta", _pack_meta(data, config, bundle, workflow, eb_abs, n_runs))
            blob = builder.to_bytes()
            sp.set(bytes_out=len(blob))
        root.set(bytes_out=len(blob), workflow=workflow)

    folded = tel.fold_spans(root)
    stage_stats.update(ins.stage_stats_from_span(folded))
    audit = _selector_audit(
        diag, workflow, stage_stats, builder.section_sizes(),
        n=int(np.prod(bundle.shape)), forced=config.workflow != "auto",
    )
    result = CompressionResult(
        archive=blob,
        workflow=workflow,
        eb_abs=eb_abs,
        original_bytes=int(data.nbytes),
        section_sizes=builder.section_sizes(),
        diagnostics=diag,
        stage_stats=stage_stats,
        n_outliers=bundle.n_outliers,
        predictor=bundle.predictor,
        selector_audit=audit,
    )
    if tel.enabled():
        if audit.get("mispredict"):
            ins.SELECTOR_MISPREDICT.inc(kind=audit["mispredict"])
        ins.COMPRESS_CALLS.inc()
        ins.INPUT_BYTES.inc(result.original_bytes)
        ins.ARCHIVE_BYTES.inc(result.compressed_bytes)
        ins.SELECTOR_DECISIONS.inc(workflow=workflow)
        if bundle.n_outliers:
            ins.OUTLIERS.inc(bundle.n_outliers)
        ins.LAST_RATIO.set_value(result.compression_ratio)
        ins.record_stage_metrics(folded, op="compress")
    if led is not None:
        hits, misses = memo_counts()
        led.record(
            "compress",
            fingerprint=ledger_mod.config_fingerprint(config),
            config={
                "eb": config.eb,
                "eb_mode": config.eb_mode,
                "workflow": config.workflow,
                "predictor": config.predictor,
                "dict_size": config.dict_size,
            },
            shape=[int(s) for s in bundle.shape],
            dtype=_DTYPE_NAMES[data.dtype],
            selector={
                "decision": workflow,
                "forced": config.workflow != "auto",
                "mispredict": audit.get("mispredict"),
            },
            stages=ledger_mod.span_self_times(folded),
            sizes={
                "original_bytes": result.original_bytes,
                "compressed_bytes": result.compressed_bytes,
                "ratio": result.compression_ratio,
            },
            outliers=bundle.n_outliers,
            cache={"hits": hits - memo0[0], "misses": misses - memo0[1]},
        )
    return result


#: Archive sections that carry the coded quant stream (not outliers/meta),
#: per workflow family: the Huffman group or the RLE value/length groups.
_QUANT_SECTION_PREFIXES = ("q.", "r.", "rv.", "rl.")


def _selector_audit(
    diag: SelectorDiagnostics,
    workflow: str,
    stage_stats: dict[str, float],
    section_sizes: dict[str, int],
    n: int,
    forced: bool,
) -> dict:
    """Predicted-vs-actual audit of the workflow selector's estimators.

    Records the Gallager/Johnsen ⟨b⟩ bounds (R+/R-) and the RLE
    bits-per-symbol estimate next to the bits the chosen coder actually
    produced, and classifies mispredictions:

    * ``huffman_bounds`` -- the realized Huffman ⟨b⟩ fell outside the
      predicted [H+R-, H+R+] interval (estimator assumption broken);
    * ``rle_regret`` -- RLE was chosen but coded more bits per symbol than
      Huffman's predicted *worst case*, i.e. the selector made a losing
      call.

    Forced workflows are audited (the coded bits are still recorded) but
    never counted as mispredictions: there was no prediction to get wrong.
    """
    coded_bytes = sum(
        size for name, size in section_sizes.items()
        if name.startswith(_QUANT_SECTION_PREFIXES)
    )
    actual_bits = coded_bytes * 8.0 / n if n else 0.0
    actual_huffman = stage_stats.get("avg_bitlen")
    rle_estimate = diag.rle_bitlen_estimate
    audit = {
        "decision": workflow,
        "forced": forced,
        "predicted_bitlen_lower": diag.bitlen_lower,
        "predicted_bitlen_upper": diag.bitlen_upper,
        "predicted_rle_bits_per_symbol": (
            None if rle_estimate != rle_estimate else rle_estimate
        ),
        "actual_huffman_avg_bitlen": actual_huffman,
        "actual_bits_per_symbol": actual_bits,
        "mispredict": None,
    }
    if forced:
        return audit
    eps = 1e-9
    if workflow in ("huffman", "huffman+lz") and actual_huffman is not None:
        if not (diag.bitlen_lower - eps <= actual_huffman <= diag.bitlen_upper + eps):
            audit["mispredict"] = "huffman_bounds"
    elif workflow in ("rle", "rle+vle"):
        if actual_bits > diag.bitlen_upper + eps:
            audit["mispredict"] = "rle_regret"
    return audit


def sniff_container(blob: bytes) -> str:
    """Identify an archive blob's container kind without decoding it.

    Returns ``"single"`` (one field), ``"blocks"`` (multi-block container),
    or ``"pwrel"`` (point-wise-relative wrapper).  Raises
    :class:`ArchiveError` with a hint for anything unrecognizable.
    """
    reader = ArchiveReader(blob)
    if reader.has("pw.inner"):
        return "pwrel"
    if reader.has("bmeta"):
        return "blocks"
    if reader.has("meta"):
        return "single"
    raise ArchiveError(
        "blob has valid framing but no recognizable payload (expected a "
        "'meta', 'bmeta', or 'pw.inner' section); it may be a partial "
        f"write or not a repro archive. sections present: {reader.names()}"
    )


def decompress(blob: bytes, jobs: int | None = None, backend=None) -> np.ndarray:
    """Reconstruct the original-shaped array from any archive blob.

    This is the single front door: it sniffs the container kind (single
    archive, multi-block container, or point-wise-relative wrapper) from
    the section manifest and dispatches accordingly.  Malformed blobs raise
    :class:`ArchiveError` with a hint, never a bare ``struct.error``.  For
    per-stage timings use :func:`decompress_with_stats`.

    ``jobs=N`` decodes in parallel on a transient
    :class:`~repro.engine.CompressionEngine` -- across blocks for a
    multi-block container, across byte-aligned chunk groups for a single
    format-v3 archive (v1/v2 payloads have no sync points and decode
    serially).  ``backend=`` selects its executor
    (``"serial"``/``"thread"``/``"process"``), or reuses a caller-owned
    engine passed in its place.  The output is identical to the serial
    decode regardless of backend and worker count.
    """
    return decompress_with_stats(blob, jobs=jobs, backend=backend).data


def decompress_with_stats(
    blob: bytes, jobs: int | None = None, backend=None
) -> DecompressionResult:
    """Like :func:`decompress`, returning the array plus stage reporting."""
    from ..engine.backends import resolve_execution

    eng, own_engine = resolve_execution(backend, jobs, None)
    try:
        kind = sniff_container(blob)
        if kind == "pwrel":
            from .pwrel import decompress_pwrel_with_stats

            return decompress_pwrel_with_stats(blob, engine=eng)
        if kind == "blocks":
            from .streaming import decompress_blocks_with_stats

            return decompress_blocks_with_stats(blob, backend=eng)
        return _decompress_impl(ArchiveReader(blob), blob, engine=eng)
    except struct.error as exc:
        # Belt and braces: structured parsing is length-checked everywhere,
        # but a raw struct.error must never leak to the caller.
        raise ArchiveError(
            f"archive metadata malformed ({exc}); the blob is likely "
            "truncated or corrupt"
        ) from None
    finally:
        if own_engine:
            eng.shutdown(wait=True)


def _decompress_impl(
    reader: ArchiveReader, blob: bytes, engine=None
) -> DecompressionResult:
    with tel.span("decompress", bytes_in=len(blob)) as root:
        with tel.span("archive_read", bytes_in=len(blob)):
            meta = _unpack_meta(reader.get_bytes("meta"))
            config = CompressorConfig(
                eb=meta["eb_twice"] / 2.0,
                eb_mode="abs",
                dict_size=meta["dict_size"],
                huffman_chunk=meta["huffman_chunk"],
                rle_length_dtype=f"uint{meta['rle_length_bytes'] * 8}",
            )
        quant_dtype = np.uint16 if meta["dict_size"] <= 1 << 16 else np.uint32
        n = meta["n_symbols"]
        with tel.span("decode", workflow=meta["workflow"]) as sp:
            if meta["workflow"] in ("huffman", "huffman+lz"):
                flat = read_huffman_sections(
                    reader, n, meta["huffman_chunk"], out_dtype=quant_dtype,
                    engine=engine,
                )
            else:
                flat = read_rle_sections(
                    reader, n, meta["n_runs"], config, quant_dtype=quant_dtype,
                    engine=engine,
                )
            sp.set(bytes_out=int(flat.nbytes))
        if flat.size != n:
            raise ArchiveError(f"decoded {flat.size} quant-codes, expected {n}")

        with tel.span("scatter_outliers") as sp:
            oidx, oval = _read_outliers(reader, meta["n_outliers"], n)
            fused = fuse_quant_and_outliers(flat, oidx, oval, meta["dict_size"] // 2)
            del flat  # the codes are dead; free them before reconstruct's peak
            sp.set(n_outliers=meta["n_outliers"])
        with tel.span("reconstruct", predictor=meta["predictor"]) as sp:
            coeffs = None
            if meta["predictor"] == "regression":
                from .regression import RegressionCoefficients

                grid = tuple(-(-s // c) for s, c in zip(meta["shape"], meta["chunks"]))
                coeffs = RegressionCoefficients.deserialized(
                    reader.get_bytes("reg"), grid, meta["chunks"]
                )
            out = reconstruct_fused(
                fused, meta["shape"], meta["chunks"], meta["predictor"],
                meta["eb_twice"], meta["dtype"], coeffs,
            )
            del fused
            sp.set(bytes_out=int(out.nbytes))
        if reader.has("nan"):
            with tel.span("nan_restore"):
                mask = _decode_nan_mask(reader.get_bytes("nan"), int(np.prod(meta["shape"])))
                out.reshape(-1)[mask] = np.nan
        root.set(bytes_out=int(out.nbytes), workflow=meta["workflow"])

    folded = tel.fold_spans(root)
    if tel.enabled():
        ins.DECOMPRESS_CALLS.inc()
        ins.record_stage_metrics(folded, op="decompress")
    led = ledger_mod.ledger_for(None)
    if led is not None:
        led.record(
            "decompress",
            shape=[int(s) for s in meta["shape"]],
            dtype=_DTYPE_NAMES[meta["dtype"]],
            workflow=meta["workflow"],
            predictor=meta["predictor"],
            stages=ledger_mod.span_self_times(folded),
            sizes={
                "compressed_bytes": len(blob),
                "original_bytes": int(out.nbytes),
                "ratio": (int(out.nbytes) / len(blob)) if len(blob) else 0.0,
            },
            outliers=meta["n_outliers"],
        )
    return DecompressionResult(
        data=out,
        workflow=meta["workflow"],
        predictor=meta["predictor"],
        eb_abs=meta["eb_abs"],
        n_outliers=meta["n_outliers"],
        section_sizes=reader.section_sizes(),
        stage_stats=ins.stage_stats_from_span(folded),
    )


class Compressor:
    """Stateful front door binding a configuration to the full codec surface.

    Every method applies ``self.config``; decompression auto-dispatches on
    the container kind, so one ``Compressor`` round-trips single fields,
    multi-block containers, batches, and streams alike.

    >>> comp = Compressor(eb=1e-3)
    >>> result = comp.compress(field)
    >>> restored = comp.decompress(result.archive)

    Batch compression returns engine futures (submission order preserved):

    >>> futures = comp.batch([field_a, field_b])
    >>> results = [f.result() for f in futures]

    Streams are context-managed; the sealed container appears on exit:

    >>> with Compressor(eb=1e-3, eb_mode="abs").stream() as sc:
    ...     for block in simulation_steps():
    ...         sc.append(block)
    >>> blob = sc.container

    ``jobs`` sets the worker count -- and ``backend`` the executor
    (``"serial"``/``"thread"``/``"process"``) -- of the lazily-created
    engine behind :meth:`batch` and :meth:`compress_blocks` (defaults: the
    core count, and the config/``REPRO_ENGINE_BACKEND`` resolution).  Use
    the ``Compressor`` as a context manager (or call :meth:`close`) to shut
    that engine down eagerly.
    """

    def __init__(
        self,
        config: CompressorConfig | None = None,
        jobs: int | None = None,
        backend: str | None = None,
        **kwargs,
    ) -> None:
        self.config = config.with_(**kwargs) if config and kwargs else (
            config or CompressorConfig(**kwargs)
        )
        self.jobs = jobs
        self.backend = backend
        self._engine = None

    # -- single fields ------------------------------------------------------

    def compress(self, data: np.ndarray, **overrides) -> CompressionResult:
        return compress(data, self.config, **overrides)

    @staticmethod
    def decompress(blob: bytes, jobs: int | None = None, backend=None) -> np.ndarray:
        return decompress(blob, jobs=jobs, backend=backend)

    @staticmethod
    def decompress_with_stats(
        blob: bytes, jobs: int | None = None, backend=None
    ) -> DecompressionResult:
        return decompress_with_stats(blob, jobs=jobs, backend=backend)

    # -- blocks, batches, streams ------------------------------------------

    def compress_blocks(
        self,
        data: np.ndarray,
        max_block_bytes: int = 64 << 20,
        jobs: int | None = None,
    ) -> bytes:
        """Block-split container via the engine (see
        :func:`repro.core.streaming.compress_blocks`)."""
        from .streaming import compress_blocks

        engine = self.engine(jobs) if (jobs or self.jobs or self._engine) else None
        return compress_blocks(
            data, self.config, max_block_bytes=max_block_bytes, backend=engine
        )

    def batch(self, fields, **overrides) -> list:
        """Submit every field to the engine; returns futures in order."""
        return self.engine().batch(fields, self.config, **overrides)

    def stream(self, jobs: int | None = None, **overrides):
        """A context-managed :class:`~repro.core.streaming.StreamingCompressor`
        bound to this configuration."""
        from .streaming import StreamingCompressor

        config = self.config.with_(**overrides) if overrides else self.config
        engine = self.engine(jobs) if (jobs or self.jobs or self._engine) else None
        return StreamingCompressor(config, backend=engine)

    # -- engine lifecycle ---------------------------------------------------

    def engine(self, jobs: int | None = None):
        """The lazily-created shared :class:`~repro.engine.CompressionEngine`.

        ``jobs`` applies only on first creation; afterwards the existing
        pool is reused regardless.
        """
        if self._engine is None or self._engine.closed:
            from ..engine.core import CompressionEngine

            self._engine = CompressionEngine(
                self.config, jobs=jobs or self.jobs, backend=self.backend
            )
        return self._engine

    def close(self) -> None:
        """Shut down the shared engine (no-op if none was created)."""
        if self._engine is not None:
            self._engine.shutdown(wait=True)
            self._engine = None

    def __enter__(self) -> "Compressor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# Section helpers
# ---------------------------------------------------------------------------


def _encode_nan_mask(mask: np.ndarray) -> bytes:
    """Pick the smaller of a packed bit-mask and a u32 index list."""
    flat = mask.reshape(-1)
    idx = np.flatnonzero(flat).astype(np.uint32)
    bitmask_bytes = (flat.size + 7) // 8
    if idx.nbytes < bitmask_bytes:
        return b"\x01" + idx.tobytes()
    return b"\x00" + np.packbits(flat).tobytes()


def _decode_nan_mask(raw: bytes, n: int) -> np.ndarray:
    """Flat boolean mask from :func:`_encode_nan_mask`'s payload."""
    if not raw:
        raise ArchiveError("empty NaN-mask section")
    kind, payload = raw[0], raw[1:]
    if kind == 1:
        try:
            idx = np.frombuffer(payload, dtype=np.uint32)
        except ValueError as exc:
            raise ArchiveError(f"NaN-mask index list malformed: {exc}") from None
        if idx.size and int(idx.max()) >= n:
            raise ArchiveError("NaN-mask index out of range")
        mask = np.zeros(n, dtype=bool)
        mask[idx.astype(np.int64)] = True
        return mask
    if kind == 0:
        packed = np.frombuffer(payload, dtype=np.uint8)
        if packed.size * 8 < n:
            raise ArchiveError("NaN bit-mask too short")
        return np.unpackbits(packed, count=n).astype(bool)
    raise ArchiveError(f"unknown NaN-mask encoding {kind}")


def _emit_outliers(bundle: Quantized, builder: ArchiveBuilder) -> None:
    """Gather-outlier stage: store sparse (index, delta) pairs compactly."""
    idx = bundle.outlier_indices
    val = bundle.outlier_values
    n = int(np.prod(bundle.shape))
    idx_dtype = np.uint32 if n <= np.iinfo(np.uint32).max else np.int64
    if val.size and (val.min() < np.iinfo(np.int32).min or val.max() > np.iinfo(np.int32).max):
        val_dtype = np.int64
    else:
        val_dtype = np.int32
    builder.add_array("o.idx", idx.astype(idx_dtype))
    builder.add_array("o.val", val.astype(val_dtype))


def _check_outlier_indices(idx: np.ndarray, n_symbols: int) -> None:
    """Raise :class:`ArchiveError` unless every stored outlier index is an
    integer in ``[0, n_symbols)`` (decompress and ``verify --deep`` share it)."""
    if idx.dtype.kind not in "iu":
        raise ArchiveError(f"outlier index section has non-integer dtype {idx.dtype}")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n_symbols):
        raise ArchiveError(
            f"outlier index outside the field's {n_symbols} elements "
            f"(stored range {int(idx.min())}..{int(idx.max())})"
        )


def _read_outliers(
    reader: ArchiveReader, n_outliers: int, n_symbols: int
) -> tuple[np.ndarray, np.ndarray]:
    idx = reader.get_array("o.idx")
    val = reader.get_array("o.val")
    if idx.size != n_outliers or val.size != n_outliers:
        raise ArchiveError("outlier section size mismatch with header")
    _check_outlier_indices(idx, n_symbols)
    return idx.astype(np.int64), val.astype(np.int64)


def _pack_meta(
    data: np.ndarray,
    config: CompressorConfig,
    bundle: Quantized,
    workflow: str,
    eb_abs: float,
    n_runs: int,
) -> bytes:
    shape = list(bundle.shape) + [0] * (4 - len(bundle.shape))
    chunks = list(bundle.chunks) + [0] * (4 - len(bundle.chunks))
    return _META.pack(
        _DTYPE_CODES[np.dtype(data.dtype)],
        data.ndim,
        _WORKFLOW_CODES[workflow],
        _PREDICTOR_CODES[bundle.predictor],
        config.dict_size,
        config.huffman_chunk,
        np.dtype(config.rle_length_dtype).itemsize,
        *shape,
        *chunks,
        bundle.eb_twice,
        int(np.prod(bundle.shape)),
        n_runs,
        bundle.n_outliers,
        eb_abs,
    )


def _unpack_meta(raw: bytes) -> dict:
    if len(raw) != _META.size:
        raise ArchiveError(f"meta section has {len(raw)} bytes, expected {_META.size}")
    fields = _META.unpack(raw)
    (dtype_code, ndim, wf_code, pred_code, dict_size, huffman_chunk, rle_len_bytes) = fields[:7]
    shape4 = fields[7:11]
    chunks4 = fields[11:15]
    eb_twice, n_symbols, n_runs, n_outliers, eb_abs = fields[15:]
    if dtype_code not in _CODE_DTYPES:
        raise ArchiveError(f"unknown dtype code {dtype_code}")
    if wf_code not in _CODE_WORKFLOWS:
        raise ArchiveError(f"unknown workflow code {wf_code}")
    if pred_code not in _CODE_PREDICTORS:
        raise ArchiveError(f"unknown predictor code {pred_code}")
    if not 1 <= ndim <= 4:
        raise ArchiveError(f"invalid ndim {ndim}")
    shape = tuple(int(s) for s in shape4[:ndim])
    chunks = tuple(int(c) for c in chunks4[:ndim])
    if any(s < 1 for s in shape) or int(np.prod(shape, dtype=np.float64)) != n_symbols:
        raise ArchiveError(f"corrupt metadata: shape {shape} != {n_symbols} elements")
    if n_symbols < 1 or n_symbols > 1 << 40:
        raise ArchiveError(f"corrupt metadata: implausible element count {n_symbols}")
    if any(c < 1 for c in chunks):
        raise ArchiveError(f"corrupt metadata: chunk sizes {chunks}")
    if not (2 <= dict_size <= 1 << 20) or dict_size % 2:
        raise ArchiveError(f"corrupt metadata: dict_size {dict_size}")
    if huffman_chunk < 1:
        raise ArchiveError(f"corrupt metadata: huffman_chunk {huffman_chunk}")
    if rle_len_bytes not in (1, 2, 4, 8):
        raise ArchiveError(f"corrupt metadata: rle length width {rle_len_bytes}")
    if not (eb_twice > 0 and np.isfinite(eb_twice)):
        raise ArchiveError(f"corrupt metadata: quantization step {eb_twice}")
    return {
        "dtype": _CODE_DTYPES[dtype_code],
        "workflow": _CODE_WORKFLOWS[wf_code],
        "predictor": _CODE_PREDICTORS[pred_code],
        "dict_size": int(dict_size),
        "huffman_chunk": int(huffman_chunk),
        "rle_length_bytes": int(rle_len_bytes),
        "shape": shape,
        "chunks": chunks,
        "eb_twice": float(eb_twice),
        "n_symbols": int(n_symbols),
        "n_runs": int(n_runs),
        "n_outliers": int(n_outliers),
        "eb_abs": float(eb_abs),
    }

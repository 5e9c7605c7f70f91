"""Point-wise relative error bounds via logarithmic transform.

SZ supports three distortion controls (paper Section VI): absolute bound,
value-range-relative bound, and *point-wise relative* bound
``|d' - d| <= r * |d|``.  The standard trick (Liang et al. [4]) reduces the
third to the first: compress ``log|d|`` with the absolute bound
``log(1 + r)``; then the reconstructed magnitude satisfies

    exp(-e) <= |d'| / |d| <= exp(e)   with e = log(1 + r)

so the relative error is at most ``exp(e) - 1 = r`` (the lower side,
``1 - exp(-e)``, is strictly smaller).  Signs are packed separately, and
exact zeros -- whose point-wise bound is zero, i.e. lossless -- travel as a
sparse index list.

The produced container wraps a regular archive (the log-domain payload) in
sections ``pw.*``; :func:`repro.decompress` dispatches on their presence.

This mode is reachable only through the main entry points,
``repro.compress(data, eb=r, mode="pwrel")`` and ``repro.decompress(blob)``.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry as tel
from ..telemetry import instruments as ins
from .archive import ArchiveBuilder, ArchiveReader
from .compressor import CompressionResult, DecompressionResult, compress
from .config import CompressorConfig
from .errors import ArchiveError, ConfigError

__all__ = [
    "decompress_pwrel_with_stats",
    "is_pwrel_archive",
]

#: Guard against the output-dtype cast (one ulp of relative rounding).
_CAST_REL = {np.dtype(np.float32): 2.0**-23, np.dtype(np.float64): 2.0**-52}

def _compress_pwrel(
    data: np.ndarray, rel_bound: float, config: CompressorConfig | None = None
) -> CompressionResult:
    """Compress with a point-wise relative bound ``|d' - d| <= r |d|``."""
    if not 1e-6 <= rel_bound < 1.0:
        raise ConfigError(f"point-wise relative bound must be in [1e-6, 1), got {rel_bound}")
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.floating):
        raise ConfigError(f"unsupported dtype {data.dtype}")
    if data.dtype not in _CAST_REL:
        data = data.astype(np.float32)
    if not np.isfinite(data).all():
        raise ConfigError("data contains non-finite values")
    base = config or CompressorConfig()

    with tel.scope(base.telemetry):
        with tel.span("compress_pwrel", bytes_in=int(data.nbytes)) as root:
            # The log transform is a real pipeline stage with its own cost;
            # record it as one instead of inheriting only the inner stages.
            with tel.span("pwrel_transform", bytes_in=int(data.nbytes)):
                flat = data.reshape(-1).astype(np.float64)
                zero_idx = np.flatnonzero(flat == 0.0).astype(np.uint32)
                neg_mask = flat < 0.0
                mags = np.abs(flat)
                # Zeros get a placeholder magnitude (the field's smallest
                # nonzero) so the log field stays finite; their positions are
                # restored exactly.
                nonzero = mags > 0.0
                if not nonzero.any():
                    fill = 1.0
                else:
                    fill = float(mags[nonzero].min())
                mags[~nonzero] = fill
                logs = np.log(mags).reshape(data.shape)

            r_eff = rel_bound * (1.0 - 1e-9) - 2.0 * _CAST_REL[np.dtype(data.dtype)]
            if r_eff <= 0:
                raise ConfigError(
                    f"bound {rel_bound} is below the output dtype's own precision"
                )
            eb_log = float(np.log1p(r_eff))
            inner = compress(logs, base.with_(eb=eb_log, eb_mode="abs"))

            with tel.span("pwrel_container") as sp:
                builder = ArchiveBuilder()
                builder.add_bytes("pw.inner", inner.archive)
                builder.add_array("pw.signs", np.packbits(neg_mask))
                builder.add_array("pw.zeros", zero_idx)
                builder.add_bytes(
                    "pw.meta",
                    np.array([rel_bound, float(data.ndim)], dtype=np.float64).tobytes()
                    + np.array([1 if data.dtype == np.float64 else 0], dtype=np.uint8).tobytes(),
                )
                blob = builder.to_bytes()
                sp.set(bytes_out=len(blob))
            root.set(bytes_out=len(blob))

    # The inner stats, overlaid with this container's own stages
    # (pwrel_transform_seconds, ...).
    stage_stats = {**inner.stage_stats, **ins.stage_stats_from_span(root)}
    return CompressionResult(
        archive=blob,
        workflow=inner.workflow,
        eb_abs=rel_bound,  # interpretation: point-wise relative
        original_bytes=int(data.nbytes),
        section_sizes=builder.section_sizes(),
        diagnostics=inner.diagnostics,
        stage_stats=stage_stats,
        n_outliers=inner.n_outliers,
        predictor=inner.predictor,
    )


def is_pwrel_archive(blob: bytes) -> bool:
    """Whether a blob is a point-wise-relative container."""
    try:
        return ArchiveReader(blob).has("pw.inner")
    except ArchiveError:
        return False


def decompress_pwrel_with_stats(blob: bytes, engine=None) -> DecompressionResult:
    """Invert the pwrel container, returning per-stage reporting too."""
    from .compressor import decompress_with_stats

    with tel.span("decompress_pwrel", bytes_in=len(blob)) as root:
        with tel.span("archive_read", bytes_in=len(blob)):
            reader = ArchiveReader(blob)
            raw_meta = reader.get_bytes("pw.meta")
            if len(raw_meta) != 17:
                raise ArchiveError("pwrel metadata malformed")
            rel_bound, _ndim = np.frombuffer(raw_meta[:16], dtype=np.float64)
            is_f64 = raw_meta[16] == 1
            out_dtype = np.float64 if is_f64 else np.float32

        inner = decompress_with_stats(reader.get_bytes("pw.inner"), backend=engine)
        logs = inner.data
        with tel.span("pwrel_inverse") as sp:
            mags = np.exp(logs.astype(np.float64)).reshape(-1)
            signs_packed = reader.get_array("pw.signs")
            neg_mask = np.unpackbits(signs_packed, count=mags.size).astype(bool)
            mags[neg_mask] *= -1.0
            zero_idx = reader.get_array("pw.zeros")
            if zero_idx.size:
                mags[zero_idx.astype(np.int64)] = 0.0
            out = mags.reshape(logs.shape).astype(out_dtype)
            sp.set(bytes_out=int(out.nbytes))
        root.set(bytes_out=int(out.nbytes))

    stage_stats = {**inner.stage_stats, **ins.stage_stats_from_span(root)}
    return DecompressionResult(
        data=out,
        workflow=inner.workflow,
        predictor=inner.predictor,
        eb_abs=float(rel_bound),
        n_outliers=inner.n_outliers,
        section_sizes=reader.section_sizes(),
        stage_stats=stage_stats,
    )

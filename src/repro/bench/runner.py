"""Structured benchmark harness: execute scenarios into BENCH records.

For every :class:`~repro.bench.scenarios.BenchCase` the runner repeats a
full compress → decompress round trip ``k`` times under a telemetry trace,
folds the span tree into per-stage walls (:func:`repro.telemetry.fold_spans`),
measures quality (compression ratio / PSNR / max error) once (the pipeline
is deterministic), and snapshots the metrics registry.  The result is a
validated ``repro.bench/v1`` record (see :mod:`repro.bench.record`).
"""

from __future__ import annotations

from .. import telemetry as tel
from ..analysis.metrics import evaluate_quality
from ..core.compressor import compress, decompress_with_stats
from ..core.config import CompressorConfig
from ..core.streaming import compress_blocks
from ..engine.backends import get_executor
from .record import build_record, summarize
from .scenarios import BenchCase, Scenario, get_scenario

__all__ = ["run_case", "run_scenario"]


def _stage_samples(folded, op: str, blocked: bool) -> dict[str, float]:
    """``<op>_total`` and ``<op>.<stage>`` wall seconds from one fold.

    A block case's root is ``<op>_blocks``; each stage is folded over the
    per-block ``<op>`` spans beneath it, so block and single-field cases
    share one key scheme.  Process workers ship no spans, so their block
    cases carry the totals only.
    """
    root = (f"{op}_blocks",) if blocked else (op,)
    parent = root + (op,) if blocked else root
    out: dict[str, float] = {}
    for path, stats in folded.items():
        if path == root:
            out[f"{op}_total"] = stats.wall
        elif path[:-1] == parent:
            out[f"{op}.{path[-1]}"] = stats.wall
    return out


def run_case(case: BenchCase, repeats: int) -> dict:
    """Run one case ``repeats`` times; returns the per-case result dict.

    ``block_bytes``/``jobs`` cases run ``compress_blocks``; a
    ``case.backend`` builds a fresh engine per repeat (pool spawn is part
    of the honest cost) and both legs run through it.
    """
    blocked = case.block_bytes is not None or case.jobs is not None
    block_bytes = case.block_bytes or (64 << 20)
    field = case.make_field()
    config = CompressorConfig(
        eb=case.eb, eb_mode=case.eb_mode, workflow=case.workflow,
    )
    samples: dict[str, list[float]] = {}
    blob = result = restored = None
    engine_snap: dict | None = None
    for _ in range(max(int(repeats), 1)):
        eng = (
            get_executor(case.backend, jobs=case.jobs, config=config)
            if case.backend is not None else None
        )
        try:
            with tel.scope(True), tel.trace(case.name) as tr:
                if blocked:
                    blob = compress_blocks(
                        field, config, max_block_bytes=block_bytes,
                        jobs=case.jobs, backend=eng,
                    )
                else:
                    result = compress(field, config)
                    blob = result.archive
                restored = decompress_with_stats(blob, backend=eng)
            if eng is not None:
                engine_snap = eng.diagnostics_snapshot()
        finally:
            if eng is not None:
                eng.shutdown(wait=True)
        folded = tel.fold_spans(tr)
        for stage, seconds in {
            **_stage_samples(folded, "compress", blocked),
            **_stage_samples(folded, "decompress", blocked),
        }.items():
            samples.setdefault(stage, []).append(seconds)
    quality = evaluate_quality(field, restored.data, restored.eb_abs)
    timing = {stage: summarize(vals) for stage, vals in sorted(samples.items())}
    best_compress = timing.get("compress_total", {}).get("min", 0.0)
    best_decompress = timing.get("decompress_total", {}).get("min", 0.0)
    original_bytes = int(field.nbytes)
    out = {
        "case": case.name,
        "dataset": case.dataset,
        "field": case.field_name,
        "eb": case.eb,
        "workflow": case.workflow,
        "repeats": int(repeats),
        "timing": timing,
        "quality": {
            "compression_ratio": original_bytes / len(blob),
            "psnr_db": quality.psnr_db,
            "max_error": quality.max_error,
            "nrmse": quality.nrmse,
            "bound_satisfied": bool(quality.bound_satisfied),
        },
        "sizes": {
            "original_bytes": original_bytes,
            "compressed_bytes": len(blob),
            "section_sizes": restored.section_sizes,
        },
        "throughput": {
            "compress_gbps": (
                original_bytes / best_compress / 1e9 if best_compress else 0.0
            ),
            "decompress_gbps": (
                original_bytes / best_decompress / 1e9 if best_decompress else 0.0
            ),
        },
        "selector": dict(result.selector_audit) if result and result.selector_audit else {},
        "workflow_selected": restored.workflow,
    }
    if blocked:
        out["engine"] = {
            "jobs": case.jobs or 1,
            "block_bytes": block_bytes,
            "backend": (
                engine_snap["backend"] if engine_snap is not None
                else (case.backend or "thread")
            ),
        }
    return out


def run_scenario(
    scenario: str | Scenario,
    repeats: int | None = None,
    label: str | None = None,
) -> dict:
    """Execute every case of a scenario into one validated record.

    The metrics registry is reset at the start so the record's snapshot
    reflects exactly this run (repeat isolation is the runner's contract:
    a fresh process or an explicit reset yields identical snapshots).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    k = int(repeats) if repeats else scenario.repeats
    tel.reset_metrics()
    with tel.scope(True):
        if scenario.extra is not None:
            scenario.extra()
        results = [run_case(case, k) for case in scenario.cases]
        metrics = tel.render_json()
    config = {"repeats": k, "cases": [c.name for c in scenario.cases]}
    if scenario.summary is not None:
        config.update(scenario.summary(results))
    return build_record(
        label=label or scenario.name,
        scenario=scenario.name,
        results=results,
        config=config,
        metrics=metrics,
    )

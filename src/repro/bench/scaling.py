"""Scaling-scenario analysis: speedup curves and the CI speedup gate.

The ``scaling`` scenario (:mod:`repro.bench.scenarios`) runs an identical
block workload at 1/2/4/8 jobs on the thread and process backends.  This
module turns those per-case results into:

* :func:`scaling_summary` -- per-backend speedup curves (relative to that
  backend's ``jobs=1`` case) plus a CPU-vs-IPC breakdown, merged into the
  record's ``config`` block so the curve ships inside ``BENCH_scaling.json``
  itself;
* :func:`check_scaling_gate` -- the CI gate: the process backend at
  ``jobs=4`` must beat its own ``jobs=1`` by 1.5x on ``compress_total``.
  On hosts with fewer than 4 cores the gate *skips with a notice* instead
  of failing -- a 1-core runner cannot demonstrate parallel speedup, and a
  fabricated pass would be worse than an honest skip.
"""

from __future__ import annotations

__all__ = ["check_scaling_gate", "scaling_summary"]

#: The gate: the ``_BACKEND`` curve at ``_JOBS`` must reach ``_MIN_SPEEDUP``
#: over its own ``jobs=1`` on ``_STAGE``, on hosts of ``_MIN_CORES`` or more.
_STAGE = "compress_total"
_BACKEND = "process"
_JOBS = 4
_MIN_SPEEDUP = 1.5
_MIN_CORES = 4


def _case_key(result: dict) -> tuple[str, int]:
    """(backend, jobs) for one scaling-scenario case result."""
    engine = result.get("engine", {})
    return (
        str(engine.get("backend", "thread")),
        int(engine.get("jobs", 1)),
    )


def _wall(result: dict) -> float | None:
    """Best-of-repeats ``_STAGE`` seconds of one case, or None."""
    summary = result.get("timing", {}).get(_STAGE)
    return float(summary.get("min", 0.0)) if summary else None


def scaling_summary(results: list) -> dict:
    """Per-backend speedup curves from the scaling scenario's case results.

    For each backend present, the curve reports best-of-repeats wall time
    at every job count and the speedup relative to that backend's own
    ``jobs=1`` point (so thread and process are each judged against their
    own serial dispatch cost, not against each other).  The cross-backend
    comparison lives in ``fastest_backend``.
    """
    curves: dict[str, list[dict]] = {}
    for result in results:
        backend, jobs = _case_key(result)
        wall = _wall(result)
        if wall is None:
            continue
        curves.setdefault(backend, []).append({
            "case": result.get("case", ""),
            "jobs": jobs,
            "wall_seconds": wall,
        })
    summary: dict[str, dict] = {}
    fastest: tuple[float, str] | None = None
    for backend, points in curves.items():
        points.sort(key=lambda p: p["jobs"])
        base = next(
            (p["wall_seconds"] for p in points if p["jobs"] == 1),
            points[0]["wall_seconds"],
        )
        for p in points:
            p["speedup"] = base / p["wall_seconds"] if p["wall_seconds"] else 0.0
            p["efficiency"] = p["speedup"] / max(p["jobs"], 1)
        best_wall = min(p["wall_seconds"] for p in points)
        if fastest is None or best_wall < fastest[0]:
            fastest = (best_wall, backend)
        summary[backend] = {
            "stage": _STAGE,
            "points": points,
            "max_speedup": max(p["speedup"] for p in points),
        }
    return {
        "scaling": summary,
        "fastest_backend": fastest[1] if fastest else "thread",
    }


def check_scaling_gate(record: dict) -> tuple[str, str]:
    """Judge a scaling record against the CI speedup gate.

    Returns ``(status, message)`` with status one of:

    * ``"pass"``  -- the process backend at ``jobs=4`` reached 1.5x over
      its own ``jobs=1`` case on ``compress_total``;
    * ``"fail"``  -- the curve exists but falls short;
    * ``"skip"``  -- the host cannot demonstrate the speedup (fewer than 4
      cores recorded in the environment fingerprint) or the record lacks
      the needed cases.  CI treats skip as success-with-notice.
    """
    cores = int(record.get("environment", {}).get("cpu_count") or 0)
    if cores and cores < _MIN_CORES:
        return (
            "skip",
            f"scaling gate skipped: host has {cores} core(s), "
            f"need >= {_MIN_CORES} to demonstrate a {_MIN_SPEEDUP:.2f}x "
            f"speedup honestly",
        )
    walls: dict[int, float] = {}
    for result in record.get("results", []):
        b, j = _case_key(result)
        if b != _BACKEND:
            continue
        wall = _wall(result)
        if wall is not None:
            walls[j] = wall
    if 1 not in walls or _JOBS not in walls:
        have = sorted(walls) or ["none"]
        return (
            "skip",
            f"scaling gate skipped: record lacks {_BACKEND} "
            f"jobs=1/jobs={_JOBS} cases for stage {_STAGE!r} "
            f"(have jobs={have})",
        )
    if walls[_JOBS] <= 0.0:
        return "skip", f"scaling gate skipped: zero wall time at jobs={_JOBS}"
    speedup = walls[1] / walls[_JOBS]
    detail = (
        f"{_BACKEND} backend {_STAGE}: jobs={_JOBS} "
        f"{walls[_JOBS] * 1e3:.1f} ms vs jobs=1 {walls[1] * 1e3:.1f} ms "
        f"-> {speedup:.2f}x (gate {_MIN_SPEEDUP:.2f}x)"
    )
    if speedup >= _MIN_SPEEDUP:
        return "pass", detail
    return "fail", detail

"""Experiment harness: table formatting and the experiment registry.

Every paper table/figure has one experiment function in
:mod:`repro.bench.experiments`; this module provides the shared plumbing --
fixed-width table rendering (so terminal output reads like the paper's
tables), an ASCII series plotter for the figures, and the registry the CLI
dispatches on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "format_table",
    "ascii_series",
    "Experiment",
    "register",
    "get_experiment",
    "all_experiments",
]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table (right-aligned numeric columns)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(
            " | ".join(
                c.ljust(w) if i == 0 else c.rjust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            )
        )
    return "\n".join(out)


def ascii_series(
    x: Sequence[float],
    ys: dict[str, Sequence[float]],
    width: int = 72,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Plot one or more series as ASCII art (the figure stand-in)."""
    symbols = "*o+x#@"
    all_y = [v for series in ys.values() for v in series if v == v]
    if not all_y:
        return "(no data)"
    ymin, ymax = min(all_y), max(all_y)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = min(x), max(x)
    if xmax == xmin:
        xmax = xmin + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, series) in enumerate(ys.items()):
        sym = symbols[si % len(symbols)]
        for xv, yv in zip(x, series):
            if yv != yv:
                continue
            col = int((xv - xmin) / (xmax - xmin) * (width - 1))
            row = int((yv - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = sym
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ymax:10.4g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{ymin:10.4g} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + f"{xmin:<10.4g}" + " " * (width - 20) + f"{xmax:>10.4g}")
    legend = "   ".join(
        f"{symbols[i % len(symbols)]} {name}" for i, name in enumerate(ys)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


@dataclass
class Experiment:
    """A registered paper experiment."""

    name: str
    description: str
    func: Callable[[], str]
    tags: tuple[str, ...] = ()
    #: Structured record of the most recent :meth:`run` (JSON-serializable):
    #: wall seconds, span/stage summary, and a metrics snapshot.  ``None``
    #: until the experiment has run.
    last_record: dict | None = field(default=None, compare=False, repr=False)

    def run(self) -> str:
        from .. import telemetry as tel

        t0 = time.perf_counter()
        with tel.trace(self.name) as tr:
            body = self.func()
        dt = time.perf_counter() - t0
        self.last_record = self._build_record(dt, tr)
        return f"== {self.name}: {self.description} ==\n{body}\n(ran in {dt:.1f}s)"

    def _build_record(self, seconds: float, tr) -> dict:
        from .. import telemetry as tel

        stage_seconds: dict[str, float] = {}
        n_spans = 0
        for path, stats in tel.fold_spans(tr).items():
            stage_seconds[path[-1]] = stage_seconds.get(path[-1], 0.0) + stats.wall
            n_spans += stats.count
        if tel.enabled():
            tel.REGISTRY.gauge("repro_experiment_seconds").set_value(
                seconds, experiment=self.name
            )
        return {
            "experiment": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "seconds": seconds,
            "telemetry_enabled": tel.enabled(),
            "n_spans": n_spans,
            "stage_seconds": stage_seconds,
            "metrics": tel.render_json(),
        }


_REGISTRY: dict[str, Experiment] = {}


def register(name: str, description: str, tags: tuple[str, ...] = ()):
    """Decorator adding an experiment function to the registry."""

    def deco(func):
        _REGISTRY[name] = Experiment(name=name, description=description, func=func, tags=tags)
        return func

    return deco


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> dict[str, Experiment]:
    return dict(_REGISTRY)

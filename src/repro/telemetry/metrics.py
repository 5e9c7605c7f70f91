"""Process-global metrics: counters, gauges, histograms, and exposition.

A deliberately small subset of the Prometheus client model:

* :class:`Counter` -- monotonically increasing totals (``inc``);
* :class:`Gauge` -- last-write-wins values (``set_value``/``inc``);
* :class:`Histogram` -- cumulative fixed-bucket distributions (``observe``).

All three support label sets passed as keyword arguments at observation
time (``SELECTOR_DECISIONS.inc(workflow="rle+vle")``).  The registry renders
the standard Prometheus text exposition format and a JSON equivalent for
the bench harness's structured run records; :func:`lint_prometheus`
validates the text format the way ``promtool check metrics`` would.  Over
HTTP the registry is served by ``repro serve`` (``/metrics``,
``/metrics.json``), the process that does the work.

Everything is thread-safe under one registry lock: pipeline stages run on
:mod:`repro.parallel` worker threads and must not corrupt shared buckets.
"""

from __future__ import annotations

import json
import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SUMMARY_QUANTILES",
    "counter",
    "gauge",
    "histogram",
    "lint_prometheus",
    "render_prometheus",
    "render_json",
    "reset_metrics",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets (seconds): 10 us .. 10 s, roughly log-spaced.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    """Canonical hashable key for a label set (sorted by label name)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: tuple, extra: tuple = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Metric:
    """Shared plumbing: name/help validation and the registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = lock

    def header_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonic counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        return self.header_lines() + [
            f"{self.name}{_format_labels(key)} {_num(v)}" for key, v in items
        ]

    def to_json(self) -> dict:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help,
                "values": [{"labels": dict(k), "value": v} for k, v in sorted(self._values.items())],
            }


class Gauge(_Metric):
    """Last-write-wins value, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[tuple, float] = {}

    def set_value(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        return self.header_lines() + [
            f"{self.name}{_format_labels(key)} {_num(v)}" for key, v in items
        ]

    def to_json(self) -> dict:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help,
                "values": [{"labels": dict(k), "value": v} for k, v in sorted(self._values.items())],
            }


class Histogram(_Metric):
    """Cumulative fixed-bucket histogram with per-label-set series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite and non-empty")
        self.buckets = bounds
        # per label-set: ([count per finite bucket], count, sum)
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * len(self.buckets), 0, 0.0]
                self._series[key] = series
            counts, _, _ = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            series[1] += 1
            series[2] += float(value)

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0.0

    def bucket_counts(self, **labels) -> dict[float, int]:
        """Cumulative counts per finite bucket bound."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            counts = series[0] if series else [0] * len(self.buckets)
            return dict(zip(self.buckets, counts))

    def quantile(self, q: float, **labels) -> float | None:
        """Estimated q-quantile (0..1) for one label set, or None if empty."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return None
            counts, n = list(series[0]), series[1]
        return _quantile_from_counts(self.buckets, counts, n, q)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted((k, (list(c), n, s)) for k, (c, n, s) in self._series.items())
        lines = self.header_lines()
        for key, (counts, n, total) in items:
            for bound, c in zip(self.buckets, counts):
                lines.append(
                    f"{self.name}_bucket{_format_labels(key, (('le', _num(bound)),))} {c}"
                )
            lines.append(f"{self.name}_bucket{_format_labels(key, (('le', '+Inf'),))} {n}")
            lines.append(f"{self.name}_sum{_format_labels(key)} {_num(total)}")
            lines.append(f"{self.name}_count{_format_labels(key)} {n}")
        return lines

    def to_json(self) -> dict:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help,
                "buckets": list(self.buckets),
                "values": [
                    {
                        "labels": dict(k),
                        "bucket_counts": list(c),
                        "count": n,
                        "sum": s,
                        "quantiles": {
                            f"p{int(q * 100)}": _quantile_from_counts(
                                self.buckets, c, n, q
                            )
                            for q in SUMMARY_QUANTILES
                        },
                    }
                    for k, (c, n, s) in sorted(self._series.items())
                ],
            }


#: Quantiles reported in every histogram's JSON snapshot.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _quantile_from_counts(
    bounds: tuple[float, ...], counts: list[int], n: int, q: float
) -> float | None:
    """Prometheus-style bucket quantile with linear interpolation.

    Observations that landed above the last finite bound (the implicit
    ``+Inf`` bucket) clamp to that bound -- the bucket layout caps what the
    estimate can resolve, exactly as ``histogram_quantile`` does.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if n <= 0:
        return None
    target = q * n
    prev_count = 0
    prev_bound = 0.0
    for bound, cum in zip(bounds, counts):
        if cum >= target:
            if cum == prev_count:
                return bound
            frac = (target - prev_count) / (cum - prev_count)
            return prev_bound + (bound - prev_bound) * frac
    return bounds[-1]


def _num(v: float) -> str:
    """Compact numeric rendering: integers without the trailing ``.0``."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class MetricsRegistry:
    """Get-or-create registry; one per process is the intended shape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                # Get-or-create is how independent modules (the pipeline's
                # instruments, the server's) share one family without double
                # registration -- but only when they agree on its shape.  A
                # histogram re-registered with different buckets would
                # silently fork the series, so that is an error instead.
                buckets = kwargs.get("buckets")
                if buckets is not None and isinstance(existing, Histogram):
                    bounds = tuple(sorted(float(b) for b in buckets))
                    if bounds != existing.buckets:
                        raise ValueError(
                            f"histogram {name!r} already registered with "
                            f"buckets {existing.buckets}; re-registering "
                            f"with {bounds} would fork the series"
                        )
                return existing
            metric = cls(name, help, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        Format contract (scrape targets and ``promtool check metrics``
        depend on it): each metric family's ``# HELP``/``# TYPE`` headers
        appear exactly once, immediately before its samples, and the
        payload is newline-terminated.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        declared: set[str] = set()
        for m in metrics:
            rendered = m.render()
            if m.name in declared:
                # A family declares its headers once; strip repeats so a
                # hypothetical duplicate registration can never produce an
                # exposition payload scrapers reject.
                rendered = [ln for ln in rendered if not ln.startswith("#")]
            declared.add(m.name)
            lines.extend(rendered)
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> dict:
        """JSON-serializable snapshot of every metric."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        snapshot = {m.name: m.to_json() for m in metrics}
        json.dumps(snapshot)  # guarantee serializability for callers
        return snapshot

    def reset(self) -> None:
        """Zero every series (metric objects stay registered) -- test aid."""
        with self._lock:
            for m in self._metrics.values():
                if isinstance(m, (Counter, Gauge)):
                    m._values.clear()
                elif isinstance(m, Histogram):
                    m._series.clear()


#: The process-global registry every pipeline instrument hangs off.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help, buckets=buckets)


def render_prometheus() -> str:
    return REGISTRY.render_prometheus()


def lint_prometheus(text: str) -> list[str]:
    """Problems with a Prometheus text exposition payload (empty = clean).

    Checks the invariants ``promtool check metrics`` enforces on the
    0.0.4 text format: exactly one ``# TYPE`` (and at most one ``# HELP``,
    appearing first) per metric family, samples only after their family's
    headers, histogram sample suffixes (``_bucket``/``_sum``/``_count``)
    resolving to a declared family, and a newline-terminated payload.
    """
    problems: list[str] = []
    if text and not text.endswith("\n"):
        problems.append("payload does not end with a newline")
    typed: dict[str, str] = {}
    helped: set[str] = set()
    sampled: set[str] = set()
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            family = line.split()[2]
            if family in helped:
                problems.append(f"line {i + 1}: duplicate # HELP for {family}")
            if family in typed or family in sampled:
                problems.append(f"line {i + 1}: # HELP for {family} after its TYPE/samples")
            helped.add(family)
        elif line.startswith("# TYPE "):
            parts = line.split()
            family, kind = parts[2], parts[3] if len(parts) > 3 else ""
            if family in typed:
                problems.append(f"line {i + 1}: duplicate # TYPE for {family}")
            if family in sampled:
                problems.append(f"line {i + 1}: # TYPE for {family} after its samples")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {i + 1}: unknown metric type {kind!r}")
            typed[family] = kind
        elif line.startswith("#"):
            continue  # free-form comment
        else:
            name = line.split("{")[0].split()[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in typed:
                    base = name[: -len(suffix)]
                    break
            if base not in typed:
                problems.append(f"line {i + 1}: sample {name} has no # TYPE header")
            else:
                sampled.add(base)
    return problems


def render_json() -> dict:
    return REGISTRY.render_json()


def reset_metrics() -> None:
    REGISTRY.reset()

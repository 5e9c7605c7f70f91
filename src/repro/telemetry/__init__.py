"""Unified telemetry: structured tracing, metrics, and trace export.

One instrumentation layer every pipeline stage reports through:

>>> from repro import telemetry as tel
>>> with tel.trace("demo") as tr:
...     result = repro.compress(field, eb=1e-3)
>>> print(tr.tree())                      # human-readable span tree
>>> tel.write_chrome_trace("t.json", tr)  # open in Perfetto
>>> print(tel.render_prometheus())        # counters/gauges/histograms

Tracing (:mod:`.context`) provides nested :class:`Span` context managers
with byte counters and contextvar propagation (parallel workers nest
correctly); :func:`fold_spans` (:mod:`.fold`) turns a span tree into the
stage times every reader reports.  Metrics (:mod:`.metrics`) is a
process-global registry with Prometheus-text and JSON exposition.  Export (:mod:`.export`) renders
traces as Chrome trace-event JSON or indented text.  The whole layer
switches off via ``REPRO_TELEMETRY=0`` (or :func:`set_enabled`), leaving
only no-op spans behind; see ``docs/observability.md``.

The continuous layer on top of the per-call one:

* :mod:`.ledger` -- append-only JSONL run ledger (``REPRO_LEDGER=path``),
  one record per compress/decompress/engine-batch invocation;
* :mod:`.log` -- span-correlated structured JSON log lines
  (``REPRO_LOG=stderr`` or a path).
"""

from .context import (
    Span,
    Trace,
    current_span,
    enabled,
    scope,
    set_enabled,
    span,
    trace,
)
from .export import render_tree, to_chrome_trace, write_chrome_trace
from .fold import fold_spans
from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    lint_prometheus,
    render_json,
    render_prometheus,
    reset_metrics,
)
from .ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    aggregate_ledger,
    config_fingerprint,
    flush_ledgers,
    ledger_for,
    read_ledger,
    render_ledger_report,
    reset_ledgers,
    span_self_times,
)
from .log import get_logger

__all__ = [
    # tracing
    "Span",
    "Trace",
    "span",
    "trace",
    "current_span",
    "enabled",
    "set_enabled",
    "scope",
    "fold_spans",
    # export
    "to_chrome_trace",
    "write_chrome_trace",
    "render_tree",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "lint_prometheus",
    "render_prometheus",
    "render_json",
    "reset_metrics",
    # ledger
    "LEDGER_SCHEMA",
    "RunLedger",
    "ledger_for",
    "flush_ledgers",
    "read_ledger",
    "aggregate_ledger",
    "render_ledger_report",
    "reset_ledgers",
    "config_fingerprint",
    "span_self_times",
    # logging
    "get_logger",
]

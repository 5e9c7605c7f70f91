"""Structured JSON log lines, span-correlated.

A deliberately tiny event logger for the *continuous* observability layer
(ledger rotation, metrics-server lifecycle, scaling sweeps): one JSON
object per line, machine-parseable, carrying enough context to join
against traces and ledger records:

* ``ts``     -- Unix seconds (``time.time()``);
* ``logger`` -- dotted component name (``repro.telemetry.ledger``);
* ``event``  -- short event name (``ledger.rotate``, ``server.start``);
* ``span``   -- the innermost open telemetry span's name in this context
  (``None`` at top level), so log lines correlate with the span tree;
* ``tid``    -- OS thread id, matching the Chrome-trace ``tid`` rows;
* any keyword fields the call site attaches.

Output goes to ``REPRO_LOG=path`` (append mode) when set, else to stderr
when ``REPRO_LOG=stderr``, else nowhere -- logging is opt-in exactly like
the run ledger, so the hot path pays one dict lookup when off.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from .context import current_span

__all__ = ["StructuredLogger", "get_logger"]

_LOCK = threading.Lock()


def _sink_path() -> str | None:
    """The configured log destination, or None when logging is off."""
    value = os.environ.get("REPRO_LOG", "").strip()
    return value or None


class StructuredLogger:
    """Named emitter of one-line JSON events (see module docstring)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def event(self, event: str, **fields) -> dict | None:
        """Emit one structured event; returns the record dict (or None
        when logging is disabled -- the common case)."""
        sink = _sink_path()
        if sink is None:
            return None
        span = current_span()
        record = {
            "ts": time.time(),
            "logger": self.name,
            "event": event,
            "span": span.name if span is not None else None,
            "tid": threading.get_ident(),
        }
        for key, value in fields.items():
            record[key] = value if isinstance(
                value, (int, float, str, bool, type(None))
            ) else repr(value)
        line = json.dumps(record, sort_keys=False)
        with _LOCK:
            if sink == "stderr":
                print(line, file=sys.stderr)
            else:
                with open(sink, "a") as fh:
                    fh.write(line + "\n")
        return record


def get_logger(name: str) -> StructuredLogger:
    return StructuredLogger(name)


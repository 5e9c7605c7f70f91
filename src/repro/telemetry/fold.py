"""The span-tree fold: one walk that turns spans into stage times.

``stage_stats``, ``repro_stage_seconds``, the ledger's ``stages``, bench
``timing``, ``repro profile`` and experiment records all project
:func:`fold_spans`.  Per span *path* (the span names from the root down):

* ``wall`` -- the union of the path's span intervals, so spans that repeat
  or overlap (per-block spans on a thread engine) count once in time;
* ``self`` -- the sum over those spans of each span's wall minus the union
  of its children's intervals (clipped to the span);
* ``count`` and ``bytes`` -- the spans on the path and the sum of their
  ``max(bytes_in, bytes_out)``.

Where no spans overlap, ``wall`` is the sum of the durations and ``self``
the duration minus the children's durations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Span, Trace

__all__ = ["PathStats", "SpanFold", "fold_spans"]


@dataclass
class PathStats:
    """Folded wall/self seconds, span count and bytes of one span path."""

    wall: float = 0.0
    self: float = 0.0
    count: int = 0
    bytes: int = 0


class SpanFold(dict):
    """``{path tuple: PathStats}`` in depth-first first-visit order."""


def _segments(intervals):
    """Merge ``(start, end)`` intervals into disjoint segments, in order."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start < merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def fold_spans(spans) -> SpanFold:
    """Fold a span tree into per-path wall, self, count and bytes.

    ``spans`` is a root :class:`Span`, a :class:`Trace`, a list of root
    spans, or a :class:`SpanFold` (returned as is, so a caller folds once
    and hands the result to every projection).  Anything else, such as
    ``None`` or a no-op span (telemetry disabled), folds to nothing.
    """
    if isinstance(spans, SpanFold):
        return spans
    if isinstance(spans, Span):
        roots = [spans]
    elif isinstance(spans, Trace):
        roots = spans.roots
    elif isinstance(spans, (list, tuple)):
        roots = [s for s in spans if isinstance(s, Span)]
    else:
        roots = []
    out = SpanFold()
    intervals: dict[tuple[str, ...], list] = {}
    stack = [((s.name,), s) for s in reversed(roots)]
    while stack:
        path, span = stack.pop()
        start = span.t_start
        end = span.t_end or start  # an open span has no extent yet
        if path not in out:
            out[path] = PathStats()
            intervals[path] = []
        intervals[path].append((start, end))
        own = end - start
        if span.children:
            clipped = [
                (max(c.t_start, start), min(c.t_end, end))
                for c in span.children if c.t_start < end and c.t_end > start
            ]
            for s, e in _segments(clipped):
                own -= e - s
            stack.extend((path + (c.name,), c) for c in reversed(span.children))
        stats = out[path]
        stats.self += max(own, 0.0)
        stats.count += 1
        stats.bytes += max(span.bytes_in, span.bytes_out)
    for path, stats in out.items():
        for s, e in _segments(intervals[path]):
            stats.wall += e - s
    return out

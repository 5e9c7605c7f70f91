"""Shared pieces: run state, spans, statistics, memory readings, output."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from statistics import median  # noqa: F401 -- shared with the workload modules

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

MB = 1e6


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Tracer:
    """In-memory spans around the calls into each layer.

    A span is ``(id, parent, trace, name, start, end)``; spans of one field
    or request share ``trace``.  Nothing is recorded when ``enabled`` is
    false, so the untraced runs pay one attribute test per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        if trace is None and parent is not None:
            trace = parent[1]
        stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": sid,
                    "parent": parent[0] if parent else None,
                    "trace": trace,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                })

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t


def timed_less_steal(fn, *args, **kwargs):
    """``(result, seconds, wall_seconds)`` of one call made in this process.

    ``seconds`` is the wall time less the steal the kernel recorded during
    the call (time the hypervisor held a vCPU), but never less than the
    process's CPU time, which the guest kernel keeps free of steal, and
    never more than the wall time.  Without steal it is the wall time.
    """
    w0, c0, s0 = time.perf_counter(), time.process_time(), steal_s()
    out = fn(*args, **kwargs)
    s1, c1, w1 = steal_s(), time.process_time(), time.perf_counter()
    wall = w1 - w0
    return out, min(wall, max(c1 - c0, wall - (s1 - s0))), wall


def steal_s() -> float:
    """Seconds stolen from all vCPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    v = sorted(values)
    if not v:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def proc_status(pid: int | str = "self") -> dict[str, int]:
    """VmRSS / VmHWM of a process in bytes, read from /proc."""
    out = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(rest.split()[0]) * 1024
    return out


class PeakTracker:
    """Peak resident memory above a baseline, over a set of processes.

    The baseline of each process is its resident size when it is added;
    the peak is its high-water mark when :meth:`peak_bytes` is read.  The
    sum over processes bounds their joint peak from above.
    """

    def __init__(self) -> None:
        self.base: dict = {}

    def add(self, pid="self") -> None:
        self.base[pid] = proc_status(pid)["VmRSS"]

    def peak_bytes(self) -> int:
        return sum(
            max(proc_status(pid)["VmHWM"] - base, 0) for pid, base in self.base.items()
        )


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def write_record(name: str, record: dict) -> str:
    path = os.path.join(OUT, "runs", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return path


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)

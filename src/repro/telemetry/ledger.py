"""The run ledger: an append-only JSONL record of real invocations.

Point-in-time tools (``bench run``, ``profile``, traces) answer "how fast
is this build"; the ledger answers "what do real invocations actually do
over time".  Every ``repro.compress`` / ``repro.decompress`` /
engine-batch call appends one JSON line describing what happened: the
configuration fingerprint, field geometry, the selector's decision,
per-stage *self* times from the span tree, sizes and ratio, cache
outcomes, and (for engine batches) worker count and the queue-depth
high-water mark.

Opt-in, like all continuous telemetry:

* ``REPRO_LEDGER=/path/to/ledger.jsonl`` enables it process-wide;
* ``CompressorConfig(ledger="...")`` enables it per call (compression
  paths only -- decompression has no config and follows the environment).

The record format is schema-versioned (``repro.ledger/v1``) mirroring
``repro.bench/v1``: additions are fine, renames/removals bump the
version.  Files rotate at ``REPRO_LEDGER_MAX_BYTES`` (default 16 MiB):
``ledger.jsonl`` becomes ``ledger.jsonl.1`` and so on up to
``REPRO_LEDGER_KEEP`` (default 3) rotated generations.

Records are written in batches, one ``write`` per batch: a record waits
in memory until ``FLUSH_RECORDS`` are pending, ``FLUSH_SECONDS`` after the
first pending one (a daemon thread), or an explicit flush -- ``close``,
:func:`reset_ledgers`, :func:`read_ledger` in the same process, the end of
each process-backend job, and interpreter exit.  Encoding and writing a
record right after a compress costs about 0.1 ms of CPU with cold caches,
a few percent of a small compress; a batch pays that once.  A process that
is killed loses its pending records (at most ``FLUSH_SECONDS`` worth).

``repro obs report`` aggregates a ledger into per-stage / per-workflow
summaries (see :func:`aggregate_ledger`).
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import os
import threading
import time
import traceback
import weakref
from pathlib import Path

from . import instruments as ins
from .context import enabled as _tel_enabled
from .fold import fold_spans
from .log import get_logger

__all__ = [
    "LEDGER_SCHEMA",
    "RECORD_REQUIRED_KEYS",
    "RunLedger",
    "ledger_for",
    "flush_ledgers",
    "reset_ledgers",
    "config_fingerprint",
    "span_self_times",
    "read_ledger",
    "aggregate_ledger",
    "render_ledger_report",
]

#: Current ledger record schema identifier.
LEDGER_SCHEMA = "repro.ledger/v1"

#: Keys every ledger record carries.
RECORD_REQUIRED_KEYS = ("schema", "ts", "op", "pid")

#: Default rotation threshold (bytes) and rotated-generation count.
DEFAULT_MAX_BYTES = 16 << 20
DEFAULT_KEEP = 3

#: A writer writes its pending records once this many are pending, and the
#: flusher thread writes them this many seconds after the first one.
FLUSH_RECORDS = 64
FLUSH_SECONDS = 1.0

_log = get_logger("repro.telemetry.ledger")

#: One shared encoder; a record holds no reference cycles to guard against.
_ENCODER = json.JSONEncoder(check_circular=False)

#: Open writers keyed by resolved path, so repeated calls share one handle;
#: ``_WRITERS_BY_RAW`` is a lock-free fast path keyed on the caller's raw
#: string/Path spelling.
_WRITERS: dict[Path, "RunLedger"] = {}
_WRITERS_BY_RAW: dict = {}
_WRITERS_LOCK = threading.Lock()

#: Every live writer (cached or not), for :func:`flush_ledgers`; the
#: flusher thread sleeps on ``_FLUSH_DUE`` and runs in ``_FLUSHER_PID``.
_LIVE: "weakref.WeakSet[RunLedger]" = weakref.WeakSet()
_FLUSH_LOCK = threading.Lock()
_FLUSH_DUE = threading.Event()
_FLUSHER_PID: int | None = None

#: CompressorConfig fields that shape the *output* and therefore the
#: fingerprint; observability knobs (telemetry, ledger) are excluded --
#: turning the ledger on must not change any record's fingerprint.
_FINGERPRINT_FIELDS = (
    "eb", "eb_mode", "dict_size", "workflow", "predictor", "chunks",
    "huffman_chunk", "rle_bitlen_threshold", "rle_encode_lengths",
    "rle_length_dtype",
)


@functools.lru_cache(maxsize=256)
def config_fingerprint(config) -> str:
    """Short stable digest of the codec-relevant configuration fields.

    Cached on the (frozen, hashable) config object: the hot path computes
    this once per distinct config, not once per compress call.
    """
    parts = [f"{name}={getattr(config, name, None)!r}" for name in _FINGERPRINT_FIELDS]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


def span_self_times(root) -> dict[str, float]:
    """Per-stage *self* seconds (:mod:`.fold`) from a span tree or its fold.

    Aggregates over the whole tree by span name, so repeated stages (e.g.
    per-block ``compress`` spans) sum into one key.  Returns ``{}`` for
    no-op spans (telemetry disabled).
    """
    out: dict[str, float] = {}
    for path, stats in fold_spans(root).items():
        out[path[-1]] = out.get(path[-1], 0.0) + stats.self
    return out


class RunLedger:
    """Append-only JSONL writer with size-based rotation (thread-safe).

    :meth:`record` queues a record; :meth:`flush` encodes the queue and
    appends it with one ``write`` (see the module docstring for when that
    happens on its own).
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        keep: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.max_bytes = int(
            max_bytes
            if max_bytes is not None
            else os.environ.get("REPRO_LEDGER_MAX_BYTES", DEFAULT_MAX_BYTES)
        )
        self.keep = int(
            keep if keep is not None else os.environ.get("REPRO_LEDGER_KEEP", DEFAULT_KEEP)
        )
        if self.max_bytes < 1:
            raise ValueError(f"ledger max_bytes must be positive, got {self.max_bytes}")
        if self.keep < 1:
            raise ValueError(f"ledger keep must be >= 1, got {self.keep}")
        self._lock = threading.Lock()
        self._pending: list[dict] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()
        self.records_written = 0
        with _FLUSH_LOCK:
            _LIVE.add(self)

    def _open(self) -> None:
        self._fh = open(self.path, "ab", buffering=0)
        self._size = os.fstat(self._fh.fileno()).st_size

    def record(self, op: str, **fields) -> dict:
        """Queue one schema-stamped record; returns the record dict."""
        rec = {"schema": LEDGER_SCHEMA, "ts": time.time(), "op": op,
               "pid": os.getpid(), **fields}
        with self._lock:
            if self._fh.closed:
                raise ValueError(f"ledger {self.path} is closed")
            self._pending.append(rec)
            pending = len(self._pending)
            if pending >= FLUSH_RECORDS:
                self._flush_locked()
        if pending == 1:
            _wake_flusher()
        if _tel_enabled():
            ins.LEDGER_RECORDS.inc(op=op)
        return rec

    def flush(self) -> None:
        """Append every queued record to the file."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._pending or self._fh.closed:
            return
        records, self._pending = self._pending, []
        # Other processes may append to the same file (process workers do).
        self._size = os.fstat(self._fh.fileno()).st_size
        batch: list[bytes] = []
        for rec in records:
            line = (_ENCODER.encode(rec) + "\n").encode()
            if self._size + len(line) > self.max_bytes:
                self._write_locked(b"".join(batch))
                batch = []
                self._rotate_locked()
            batch.append(line)
            self._size += len(line)
        self._write_locked(b"".join(batch))
        self.records_written += len(records)

    def _write_locked(self, data: bytes) -> None:
        view = memoryview(data)
        while view:  # a regular file takes it all unless the disk is full
            view = view[self._fh.write(view):]

    def _rotate_locked(self) -> None:
        """Shift ``path`` -> ``path.1`` -> ... -> ``path.keep`` (dropped)."""
        self._fh.close()
        oldest = self.path.with_name(self.path.name + f".{self.keep}")
        if oldest.exists():
            oldest.unlink()
        for gen in range(self.keep - 1, 0, -1):
            src = self.path.with_name(self.path.name + f".{gen}")
            if src.exists():
                src.rename(self.path.with_name(self.path.name + f".{gen + 1}"))
        if self.path.exists():
            self.path.rename(self.path.with_name(self.path.name + ".1"))
        self._open()
        _log.event("ledger.rotate", path=str(self.path), keep=self.keep,
                   max_bytes=self.max_bytes)

    def close(self) -> None:
        """Flush the queue and close the file."""
        with self._lock:
            if not self._fh.closed:
                self._flush_locked()
                self._fh.close()

    def __del__(self) -> None:
        # A writer dropped without ``close`` still writes its queue.
        if hasattr(self, "_fh"):
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r}, written={self.records_written})"


def ledger_for(config=None) -> RunLedger | None:
    """The active ledger for this invocation, or None (the common case).

    Resolution order: ``config.ledger`` (when a config is in hand), then
    the ``REPRO_LEDGER`` environment variable.  Writers are cached per
    resolved path so every invocation appends to one shared handle.
    """
    path = getattr(config, "ledger", None) if config is not None else None
    if path is None:
        path = os.environ.get("REPRO_LEDGER") or None
    if path is None:
        return None
    # Fast path: an open writer for this exact spelling of the path.  The
    # canonical cache below is keyed on Path so "l.jsonl" and Path("l.jsonl")
    # still share one handle.
    writer = _WRITERS_BY_RAW.get(path)
    if writer is not None and not writer._fh.closed:
        return writer
    resolved = Path(path)
    with _WRITERS_LOCK:
        writer = _WRITERS.get(resolved)
        if writer is None or writer._fh.closed:
            writer = RunLedger(resolved)
            _WRITERS[resolved] = writer
        _WRITERS_BY_RAW[path] = writer
        return writer


def reset_ledgers() -> None:
    """Close and forget every cached writer (test isolation aid)."""
    with _WRITERS_LOCK:
        for writer in _WRITERS.values():
            writer.close()
        _WRITERS.clear()
        _WRITERS_BY_RAW.clear()


def flush_ledgers() -> None:
    """Write every live writer's queued records."""
    with _FLUSH_LOCK:
        writers = list(_LIVE)
    for writer in writers:
        writer.flush()


def _wake_flusher() -> None:
    """Start this process's flusher thread if needed, and wake it."""
    global _FLUSHER_PID
    if _FLUSHER_PID != os.getpid():
        with _FLUSH_LOCK:
            if _FLUSHER_PID != os.getpid():
                threading.Thread(
                    target=_flush_loop, name="repro-ledger-flush", daemon=True
                ).start()
                _FLUSHER_PID = os.getpid()
    _FLUSH_DUE.set()


def _flush_loop() -> None:
    # A record queued after ``clear`` re-arms the event, so none waits for
    # more than one extra period.
    while True:
        _FLUSH_DUE.wait()
        time.sleep(FLUSH_SECONDS)
        _FLUSH_DUE.clear()
        try:
            flush_ledgers()
        except OSError:  # e.g. a full disk: report it, keep flushing later batches
            traceback.print_exc()


def _after_fork_in_child() -> None:
    # The parent still writes what it had queued; the child starts with
    # empty queues, unheld locks and no flusher thread.
    global _FLUSH_LOCK, _FLUSH_DUE, _FLUSHER_PID
    _FLUSH_LOCK = threading.Lock()
    _FLUSH_DUE = threading.Event()
    _FLUSHER_PID = None
    for writer in list(_LIVE):
        writer._lock = threading.Lock()
        writer._pending = []


atexit.register(flush_ledgers)
os.register_at_fork(after_in_child=_after_fork_in_child)


# ---------------------------------------------------------------------------
# Reading and aggregation (``repro obs report``)
# ---------------------------------------------------------------------------


def read_ledger(path: str | Path, include_rotated: bool = True) -> list[dict]:
    """Load a ledger's records, oldest first, tolerating torn tail lines.

    Rotated generations (``path.N``) are read before the live file when
    ``include_rotated``.  Records whose schema family is not
    ``repro.ledger`` are skipped (counted, not fatal): a ledger directory
    may accumulate foreign lines across versions.
    """
    flush_ledgers()  # records this process has queued belong in the read
    path = Path(path)
    files: list[Path] = []
    if include_rotated:
        gens = sorted(
            (p for p in path.parent.glob(path.name + ".*")
             if p.suffix[1:].isdigit()),
            key=lambda p: int(p.suffix[1:]),
            reverse=True,
        )
        files.extend(gens)
    files.append(path)
    records: list[dict] = []
    for file in files:
        if not file.exists():
            continue
        for line in file.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write at a crash boundary; skip the line
            if not isinstance(rec, dict):
                continue
            if not str(rec.get("schema", "")).startswith("repro.ledger/"):
                continue
            if any(k not in rec for k in RECORD_REQUIRED_KEYS):
                continue
            records.append(rec)
    return records


def aggregate_ledger(records: list[dict]) -> dict:
    """Fold ledger records into per-op / per-stage / per-workflow summaries."""
    ops: dict[str, int] = {}
    stages: dict[str, dict[str, dict]] = {}  # op -> stage -> {total, n}
    workflows: dict[str, dict] = {}
    cache_hits = cache_misses = 0
    queue_depth_max = 0
    jobs_seen: set[int] = set()
    bytes_in = bytes_out = 0
    t_first = t_last = None
    for rec in records:
        op = rec["op"]
        ops[op] = ops.get(op, 0) + 1
        ts = rec.get("ts")
        if isinstance(ts, (int, float)):
            t_first = ts if t_first is None else min(t_first, ts)
            t_last = ts if t_last is None else max(t_last, ts)
        for stage, seconds in (rec.get("stages") or {}).items():
            slot = stages.setdefault(op, {}).setdefault(
                stage, {"total_seconds": 0.0, "n": 0}
            )
            slot["total_seconds"] += float(seconds)
            slot["n"] += 1
        wf = (rec.get("selector") or {}).get("decision") or rec.get("workflow")
        sizes = rec.get("sizes") or {}
        if wf:
            slot = workflows.setdefault(
                wf, {"n": 0, "ratio_sum": 0.0, "ratio_n": 0}
            )
            slot["n"] += 1
            ratio = sizes.get("ratio")
            if isinstance(ratio, (int, float)):
                slot["ratio_sum"] += float(ratio)
                slot["ratio_n"] += 1
        bytes_in += int(sizes.get("original_bytes") or 0)
        bytes_out += int(sizes.get("compressed_bytes") or 0)
        cache = rec.get("cache") or {}
        cache_hits += int(cache.get("hits") or 0)
        cache_misses += int(cache.get("misses") or 0)
        engine = rec.get("engine") or {}
        if "queue_depth_max" in engine:
            queue_depth_max = max(queue_depth_max, int(engine["queue_depth_max"]))
        if "jobs" in rec:
            jobs_seen.add(int(rec["jobs"]))
    for op, table in stages.items():
        for stage, slot in table.items():
            slot["mean_seconds"] = slot["total_seconds"] / slot["n"] if slot["n"] else 0.0
    for wf, slot in workflows.items():
        slot["mean_ratio"] = (
            slot["ratio_sum"] / slot["ratio_n"] if slot["ratio_n"] else None
        )
        del slot["ratio_sum"], slot["ratio_n"]
    cache_total = cache_hits + cache_misses
    return {
        "schema": LEDGER_SCHEMA,
        "n_records": len(records),
        "ops": ops,
        "window_seconds": (t_last - t_first) if t_first is not None else 0.0,
        "stages": stages,
        "workflows": workflows,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": cache_hits / cache_total if cache_total else 0.0,
        },
        "engine": {
            "queue_depth_max": queue_depth_max,
            "jobs_seen": sorted(jobs_seen),
        },
        "bytes": {"original": bytes_in, "compressed": bytes_out},
    }


def render_ledger_report(report: dict) -> str:
    """Human-readable rendering of :func:`aggregate_ledger`'s summary."""
    from ..bench.harness import format_table  # lazy: avoid import cycle

    lines = [
        f"ledger report ({report['n_records']} records, "
        f"{report['window_seconds']:.1f} s window)",
        "  ops: " + (", ".join(
            f"{op}={n}" for op, n in sorted(report["ops"].items())
        ) or "(none)"),
    ]
    cache = report["cache"]
    if cache["hits"] or cache["misses"]:
        lines.append(
            f"  cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate']:.1%} hit rate)"
        )
    eng = report["engine"]
    if eng["jobs_seen"]:
        lines.append(
            f"  engine: jobs seen {eng['jobs_seen']}, "
            f"queue depth high-water {eng['queue_depth_max']}"
        )
    if report["workflows"]:
        rows = [
            [wf, slot["n"],
             f"{slot['mean_ratio']:.2f}" if slot["mean_ratio"] else "-"]
            for wf, slot in sorted(report["workflows"].items())
        ]
        lines.append(format_table(
            ["workflow", "records", "mean ratio"], rows, title="workflows"))
    for op, table in sorted(report["stages"].items()):
        rows = [
            [stage, slot["n"], f"{slot['total_seconds'] * 1e3:.2f}",
             f"{slot['mean_seconds'] * 1e3:.3f}"]
            for stage, slot in sorted(
                table.items(), key=lambda kv: -kv[1]["total_seconds"]
            )
        ]
        lines.append(format_table(
            ["stage", "n", "total ms", "mean ms"], rows,
            title=f"self-time by stage · {op}"))
    return "\n".join(lines)

"""Tests for engine scaling diagnostics, the obs/trend CLI surface, the
bench-compare newer-schema exit code, and Chrome-trace export of
engine-parallel runs."""

import json
import time

import numpy as np
import pytest

import repro
from repro import telemetry as tel
from repro.cli import main
from repro.core.config import CompressorConfig
from repro.core.streaming import compress_blocks
from repro.encoding.huffman import memo_counts
from repro.engine import CompressionEngine
from repro.engine.diagnostics import (
    ScalingPoint,
    make_sweep_fields,
    run_scaling_sweep,
)
from repro.telemetry import ledger as lm


def make_field(seed=0, shape=(48, 64)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32).cumsum(axis=1)


class TestEngineAccounting:
    def test_worker_stats_and_snapshot(self):
        fields = [make_field(s) for s in range(6)]
        with CompressionEngine(CompressorConfig(eb=1e-3), jobs=2) as eng:
            eng.map(fields)
            snap = eng.diagnostics_snapshot()
        assert snap["jobs_completed"] == 6
        assert 1 <= snap["n_worker_threads"] <= 2
        assert snap["worker_wall_seconds"] > 0.0
        assert snap["worker_cpu_seconds"] >= 0.0
        assert snap["worker_wait_seconds"] >= 0.0
        assert snap["queue_depth_max"] >= 1
        assert snap["queue_depth"] == 0  # drained
        assert snap["submit_wait_seconds"] >= 0.0
        for worker in snap["workers"]:
            assert worker["jobs"] >= 1
            assert worker["wall_seconds"] >= worker["cpu_seconds"] * 0.0
        json.dumps(snap)  # ledger embeds this; must serialize

    def test_queue_depth_high_water_monotone(self):
        with CompressionEngine(jobs=1, max_inflight=4) as eng:
            futures = [eng.submit(make_field(s), eb=1e-2) for s in range(4)]
            [f.result() for f in futures]
            high = eng.queue_depth_max
            eng.submit(make_field(9), eb=1e-2).result()
            assert eng.queue_depth_max >= high >= 1

    def test_depth_timeline_records_transitions(self):
        with CompressionEngine(jobs=2) as eng:
            eng.map([make_field(s) for s in range(3)])
            timeline = eng.depth_timeline()
        assert len(timeline) == 6  # one +1 and one -1 per job
        times = [t for t, _ in timeline]
        assert times == sorted(times)
        assert timeline[-1][1] == 0

    def test_submit_wait_counts_backpressure(self):
        # max_inflight == jobs == 1 forces the producer to block on every
        # submit after the first.
        with CompressionEngine(jobs=1, max_inflight=1) as eng:
            futures = [eng.submit(make_field(s, shape=(96, 96)), eb=1e-3)
                       for s in range(4)]
            [f.result() for f in futures]
            assert eng.submit_wait_seconds > 0.0

    def test_queue_depth_max_gauge_exported(self):
        tel.reset_metrics()
        from repro.telemetry import instruments as ins

        with tel.scope(True), CompressionEngine(jobs=2) as eng:
            eng.map([make_field(s) for s in range(4)])
        exported = ins.ENGINE_QUEUE_DEPTH_MAX.value()
        assert exported >= 1
        text = tel.render_prometheus()
        assert "repro_engine_queue_depth_max" in text
        tel.reset_metrics()


class TestScalingSweep:
    def test_sweep_reports_breakdown(self):
        report = run_scaling_sweep(
            jobs_list=(1, 2), n_fields=3, shape=(48, 48), repeats=1
        )
        assert [p.jobs for p in report.points] == [1, 2]
        baseline = report.points[0]
        assert baseline.speedup == 1.0 and baseline.efficiency == 1.0
        for point in report.points:
            assert point.wall_seconds > 0.0
            assert point.worker_cpu_seconds >= 0.0
            assert point.lock_wait_seconds >= 0.0
            blob = point.to_json()
            # the acceptance-required CPU-vs-wait breakdown, per job count
            assert "worker_cpu_seconds" in blob
            assert "lock_wait_seconds" in blob
            assert 0.0 <= blob["cpu_fraction"] <= 1.0 + 1e-9
        rendered = report.render()
        assert "speedup vs jobs" in rendered
        assert "lock-wait ms" in rendered
        assert "verdict:" in rendered
        json.dumps(report.to_json())

    def test_sweep_fields_are_distinct(self):
        fields = make_sweep_fields(4, (32, 32))
        fingerprints = {f.tobytes() for f in fields}
        assert len(fingerprints) == 4
        again = make_sweep_fields(4, (32, 32), seed=1)
        assert not fingerprints & {f.tobytes() for f in again}

    def test_every_run_builds_its_own_codebooks(self):
        # Process workers start with an empty memo; an in-process backend
        # must not find an earlier run's codebooks in the caller's either.
        before = memo_counts()
        run_scaling_sweep(jobs_list=(1, 2), n_fields=3, shape=(48, 48),
                          repeats=2, backend="serial")
        run_scaling_sweep(jobs_list=(1,), n_fields=3, shape=(48, 48),
                          repeats=1, backend="serial")
        hits, misses = memo_counts()
        assert hits == before[0]
        assert misses - before[1] >= 5 * 3

    def test_empty_jobs_list_rejected(self):
        with pytest.raises(ValueError):
            run_scaling_sweep(jobs_list=())

    def test_verdict_classifies_gil_bound(self):
        report_points = [
            ScalingPoint(1, 1.0, 1.0, 0.9, 0.1, 0.0, 1, 1, 4, 1.0, 1.0),
            ScalingPoint(4, 0.9, 3.6, 1.0, 2.6, 0.0, 4, 4, 4, 1.11, 0.28),
        ]
        from repro.engine.diagnostics import ScalingReport

        report = ScalingReport(4, (32, 32), 4096, 1, report_points)
        verdict = report.verdict()
        assert "thread backend is GIL-bound" in verdict
        assert "backend='process'" in verdict

    def test_verdict_classifies_process_ipc_overhead(self):
        # Workers are busy briefly; most of the parent wall is dispatch +
        # shared-memory traffic -- the process backend's distinct failure
        # story, which must not be labeled GIL-bound.
        report_points = [
            ScalingPoint(1, 1.0, 0.4, 0.4, 0.0, 0.0, 1, 1, 4, 1.0, 1.0,
                         ipc_overhead_seconds=0.6, backend="process"),
            ScalingPoint(4, 0.9, 0.5, 0.5, 0.0, 0.0, 4, 4, 4, 1.11, 0.28,
                         ipc_overhead_seconds=0.775, backend="process"),
        ]
        from repro.engine.diagnostics import ScalingReport

        report = ScalingReport(4, (32, 32), 4096, 1, report_points, backend="process")
        verdict = report.verdict()
        assert "process backend pays IPC overhead" in verdict
        assert "GIL" not in verdict


class TestChromeTraceParallel:
    """Satellite: engine-parallel runs export distinct tids and counter
    events that survive the JSON round trip."""

    def _parallel_trace(self):
        with tel.scope(True), tel.trace("batch") as tr:
            compress_blocks(
                make_field(1, shape=(128, 32)),
                CompressorConfig(eb=1e-2, eb_mode="abs"),
                max_block_bytes=1024, jobs=2,
            )
        return tr

    def test_worker_spans_have_distinct_tids(self):
        payload = json.loads(json.dumps(tel.to_chrome_trace(self._parallel_trace())))
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        compress_tids = {e["tid"] for e in spans if e["name"] == "compress"}
        root_tid = next(e["tid"] for e in spans if e["name"] == "compress_blocks")
        # 16 tiny blocks over 2 workers: both worker threads virtually
        # certainly ran at least one block, and neither is the producer.
        assert len(compress_tids) >= 2
        assert root_tid not in compress_tids

    def test_counter_events_survive_roundtrip(self):
        payload = json.loads(json.dumps(tel.to_chrome_trace(self._parallel_trace())))
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters, "byte-moving spans must emit throughput counters"
        for event in counters:
            assert event["name"] == "throughput_gbps"
            assert isinstance(event["args"], dict) and event["args"]
        # the compress_blocks root moved bytes: a nonzero sample + a zero
        root_samples = [e for e in counters if "compress_blocks" in e["args"]]
        values = sorted(e["args"]["compress_blocks"] for e in root_samples)
        assert values[0] == 0 and values[-1] > 0


class TestObsCli:
    def test_report_renders_ledger(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ledger report (1 records" in out
        assert "compress=1" in out

    def test_report_json(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        assert main(["obs", "report", str(path), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["command"] == "obs report"
        assert blob["n_records"] == 1

    def test_report_env_fallback(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "l.jsonl"
        repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        assert main(["obs", "report"]) == 0

    def test_report_missing_ledger(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["obs", "report"]) == 2
        assert main(["obs", "report", str(tmp_path / "absent.jsonl")]) == 2

    def test_scaling_emits_curve_and_breakdown(self, capsys):
        assert main(["obs", "scaling", "--jobs", "1,2", "--fields", "3",
                     "--shape", "48", "48", "--repeats", "1",
                     "--backends", "thread"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs jobs" in out
        assert "cpu ms" in out and "lock-wait ms" in out and "ipc ms" in out
        assert "verdict:" in out
        assert "recommended backend:" in out

    def test_scaling_json_has_per_job_breakdown(self, capsys):
        assert main(["obs", "scaling", "--jobs", "1,2", "--fields", "3",
                     "--shape", "48", "48", "--repeats", "1",
                     "--backends", "thread", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        report = blob["backends"]["thread"]
        assert [p["jobs"] for p in report["points"]] == [1, 2]
        for point in report["points"]:
            assert "worker_cpu_seconds" in point
            assert "lock_wait_seconds" in point
            assert "ipc_overhead_seconds" in point
        assert blob["recommendation"] in ("serial", "thread", "process")

    def test_scaling_sweeps_process_backend(self, capsys):
        assert main(["obs", "scaling", "--jobs", "1,2", "--fields", "2",
                     "--shape", "32", "32", "--repeats", "1",
                     "--backends", "process", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        report = blob["backends"]["process"]
        assert report["workload"]["backend"] == "process"
        assert all(p["backend"] == "process" for p in report["points"])

    def test_scaling_rejects_bad_jobs(self, capsys):
        assert main(["obs", "scaling", "--jobs", "two"]) == 2
        assert main(["obs", "scaling", "--jobs", "0,2"]) == 2

    def test_scaling_rejects_bad_backends(self, capsys):
        assert main(["obs", "scaling", "--jobs", "1,2",
                     "--backends", "gpu"]) == 2


class TestBenchCompareSchema:
    """Satellite: a baseline written by a newer schema exits 3, not a
    traceback."""

    def _write(self, path, schema):
        record = {"schema": schema, "label": "x", "results": []}
        path.write_text(json.dumps(record))

    def test_newer_schema_exits_3(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, "repro.bench/v2")
        self._write(new, "repro.bench/v2")
        assert main(["bench", "compare", str(old), str(new)]) == 3
        assert "newer than this tool" in capsys.readouterr().err

    def test_malformed_schema_exits_2(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, "something/else")
        self._write(new, "something/else")
        assert main(["bench", "compare", str(old), str(new)]) == 2


class TestBenchTrend:
    def _record(self, label, created, ratio, ms):
        from repro.bench.record import SCHEMA

        return {
            "schema": SCHEMA, "label": label, "scenario": "smoke",
            "created_unix": created,
            "environment": {"python": "3", "cpu": "x"},
            "config": {},
            "results": [{
                "case": "demo", "dataset": "d", "field": "f", "eb": 1e-3,
                "workflow": "auto", "repeats": 1,
                "timing": {"compress_total": {
                    "mean": ms / 1e3, "min": ms / 1e3, "max": ms / 1e3,
                    "stdev": 0.0, "n": 1}},
                "quality": {"compression_ratio": ratio, "psnr_db": 80.0},
                "sizes": {}, "selector": {},
            }],
            "metrics": {},
        }

    def test_trend_orders_by_created_and_plots(self, tmp_path, capsys):
        t0 = time.time()
        (tmp_path / "BENCH_new.json").write_text(
            json.dumps(self._record("new", t0 + 100, 12.0, 5.0)))
        (tmp_path / "BENCH_old.json").write_text(
            json.dumps(self._record("old", t0, 10.0, 6.0)))
        assert main(["bench", "trend", str(tmp_path), "--metric", "ratio"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "+20.0%" in out  # 10 -> 12 oldest-to-newest
        assert "records: old, new" in out

    def test_trend_skips_future_schema_records(self, tmp_path, capsys):
        t0 = time.time()
        (tmp_path / "BENCH_a.json").write_text(
            json.dumps(self._record("a", t0, 10.0, 5.0)))
        future = self._record("b", t0 + 1, 11.0, 5.0)
        future["schema"] = "repro.bench/v9"
        (tmp_path / "BENCH_b.json").write_text(json.dumps(future))
        assert main(["bench", "trend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "newer schema" in out
        assert "records: a" in out

    def test_trend_no_records_exits_2(self, tmp_path, capsys):
        assert main(["bench", "trend", str(tmp_path)]) == 2

    def test_trend_json(self, tmp_path, capsys):
        (tmp_path / "BENCH_a.json").write_text(
            json.dumps(self._record("a", time.time(), 10.0, 5.0)))
        assert main(["bench", "trend", str(tmp_path), "--json",
                     "--metric", "compress_ms"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["series"]["demo"]["y"] == [5.0]

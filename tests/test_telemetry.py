"""Tests for the unified telemetry layer (tracing, metrics, export)."""

import json
import threading

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def force_telemetry_on():
    """Make telemetry deterministic regardless of REPRO_TELEMETRY in the
    environment (the suite must also pass under REPRO_TELEMETRY=0)."""
    telemetry.set_enabled(True)
    yield
    telemetry.set_enabled(None)


class TestSpans:
    def test_nesting_builds_tree(self):
        with telemetry.trace() as tr:
            with telemetry.span("root"):
                with telemetry.span("a"):
                    with telemetry.span("a1"):
                        pass
                with telemetry.span("b"):
                    pass
        assert len(tr.roots) == 1
        root = tr.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_duration_positive_and_nested_within_parent(self):
        with telemetry.trace() as tr:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    sum(range(1000))
        outer = tr.roots[0]
        inner = outer.children[0]
        assert outer.duration > 0
        assert inner.duration > 0
        assert inner.duration <= outer.duration
        assert inner.t_start >= outer.t_start
        assert inner.t_end <= outer.t_end

    def test_set_updates_bytes_and_attrs(self):
        with telemetry.trace() as tr:
            with telemetry.span("s", bytes_in=10) as sp:
                sp.set(bytes_out=4, note="hi")
        s = tr.roots[0]
        assert s.bytes_in == 10
        assert s.bytes_out == 4
        assert s.attrs["note"] == "hi"

    def test_throughput_from_bytes(self):
        sp = telemetry.Span("x", bytes_in=1_000_000_000)
        sp.t_start, sp.t_end = 0.0, 0.5
        assert sp.throughput_gbps == pytest.approx(2.0)

    def test_exception_recorded_and_propagated(self):
        with telemetry.trace() as tr:
            with pytest.raises(ValueError):
                with telemetry.span("boom"):
                    raise ValueError("no")
        assert tr.roots[0].attrs["error"] == "ValueError"

    def test_walk_and_find(self):
        with telemetry.trace() as tr:
            with telemetry.span("r"):
                with telemetry.span("x"):
                    with telemetry.span("y"):
                        pass
        root = tr.roots[0]
        assert [s.name for s in root.walk()] == ["r", "x", "y"]
        assert root.find("y").name == "y"
        assert root.find("zzz") is None

    def test_spans_outside_trace_are_dropped(self):
        with telemetry.span("orphan"):
            pass  # no active trace: completes without error, goes nowhere
        with telemetry.trace() as tr:
            pass
        assert tr.roots == []

    def test_current_span_tracks_innermost(self):
        assert telemetry.current_span() is None
        with telemetry.span("a") as a:
            assert telemetry.current_span() is a
            with telemetry.span("b") as b:
                assert telemetry.current_span() is b
            assert telemetry.current_span() is a
        assert telemetry.current_span() is None


class TestTraceCollection:
    def test_multiple_roots(self):
        with telemetry.trace() as tr:
            with telemetry.span("first"):
                pass
            with telemetry.span("second"):
                pass
        assert [r.name for r in tr.roots] == ["first", "second"]
        assert tr.span_names() == {"first", "second"}

    def test_threads_get_independent_trees(self):
        """Worker threads (parallel ranks) each root their own tree in the
        shared trace, distinguished by thread id."""

        barrier = threading.Barrier(3)

        def work(tag):
            barrier.wait()  # keep all threads alive at once: distinct idents
            with telemetry.span(f"rank.{tag}"):
                with telemetry.span("stage"):
                    pass

        with telemetry.trace() as tr:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert {r.name for r in tr.roots} == {"rank.0", "rank.1", "rank.2"}
        assert len({r.tid for r in tr.roots}) == 3
        for r in tr.roots:
            assert [c.name for c in r.children] == ["stage"]

    def test_tree_render(self):
        with telemetry.trace() as tr:
            with telemetry.span("pipeline", bytes_in=2048):
                with telemetry.span("stage_a"):
                    pass
        text = tr.tree()
        assert "pipeline" in text
        assert "stage_a" in text
        assert "ms" in text
        assert "2.0 KiB" in text


class TestEnableSwitch:
    def test_env_var_disables(self, monkeypatch):
        telemetry.set_enabled(None)  # fall through to the environment
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert not telemetry.enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry.enabled()

    def test_global_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.set_enabled(True)
        assert telemetry.enabled()

    def test_scope_beats_global(self):
        telemetry.set_enabled(True)
        with telemetry.scope(False):
            assert not telemetry.enabled()
            with telemetry.scope(True):
                assert telemetry.enabled()
            assert not telemetry.enabled()
        assert telemetry.enabled()

    def test_scope_none_is_noop(self):
        with telemetry.scope(None):
            assert telemetry.enabled()

    def test_disabled_span_is_shared_noop(self):
        with telemetry.scope(False):
            s1 = telemetry.span("a", bytes_in=10)
            s2 = telemetry.span("b")
            assert s1 is s2  # shared singleton, no allocation
            assert not s1
            with s1 as s:
                s.set(bytes_out=5, anything="goes")
            assert s1.duration == 0.0
            assert s1.children == ()

    def test_disabled_spans_never_reach_trace(self):
        with telemetry.trace() as tr:
            with telemetry.scope(False):
                with telemetry.span("hidden"):
                    pass
        assert tr.roots == []


class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("test_total", "help text")
        c.inc()
        c.inc(2.5)
        c.inc(workflow="rle")
        assert c.value() == pytest.approx(3.5)
        assert c.value(workflow="rle") == 1.0
        assert c.total() == pytest.approx(4.5)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set_value(7.0)
        g.set_value(3.0)
        assert g.value() == 3.0
        g.inc(2.0)
        assert g.value() == 5.0

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)
        assert h.bucket_counts() == {0.1: 1, 1.0: 3, 10.0: 4}

    def test_histogram_labelled_series_independent(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5, stage="quantize")
        h.observe(0.5, stage="encode")
        h.observe(0.5, stage="encode")
        assert h.count(stage="quantize") == 1
        assert h.count(stage="encode") == 2

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name!")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        c = reg.counter("runs_total", "Total runs")
        c.inc(3, workflow="huffman")
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP runs_total Total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{workflow="huffman"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.05" in text
        assert "lat_seconds_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(dataset='we"ird\\name')
        text = reg.render_prometheus()
        assert 'dataset="we\\"ird\\\\name"' in text

    def test_json_render_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "c help").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5, k="v")
        snapshot = reg.render_json()
        payload = json.loads(json.dumps(snapshot))
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["values"][0]["value"] == 2
        assert payload["h"]["values"][0]["labels"] == {"k": "v"}
        assert payload["h"]["values"][0]["count"] == 1

    def test_reset_zeroes_but_keeps_registration(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc(5)
        reg.reset()
        assert c.value() == 0.0
        assert reg.get("c_total") is c

    def test_thread_safety_of_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000

    def test_thread_safety_under_churning_label_sets(self):
        """Concurrent writers each minting new label sets must not corrupt
        shared dicts, and concurrent renders must not crash mid-churn."""
        reg = MetricsRegistry()
        c = reg.counter("churn_total")
        h = reg.histogram("churn_seconds", buckets=(0.01, 0.1, 1.0))
        errors = []

        def churn(worker: int):
            try:
                for i in range(500):
                    c.inc(worker=str(worker), batch=str(i % 7))
                    h.observe(0.05 * (i % 3), worker=str(worker), batch=str(i % 7))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def render():
            try:
                for _ in range(50):
                    reg.render_prometheus()
                    reg.render_json()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=render) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert c.total() == 4 * 500
        # every (worker, batch) series is intact
        total_observed = sum(
            entry["count"] for entry in h.to_json()["values"]
        )
        assert total_observed == 4 * 500

    def test_reset_isolates_consecutive_snapshots(self):
        """The bench runner's contract: reset between runs means a record's
        metrics snapshot reflects exactly that run."""
        reg = MetricsRegistry()
        c = reg.counter("runs_total")
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        c.inc(7, phase="warmup")
        h.observe(0.5, phase="warmup")
        reg.reset()
        c.inc(2, phase="measured")
        h.observe(0.05, phase="measured")
        snapshot = reg.render_json()
        assert snapshot["runs_total"]["values"] == [
            {"labels": {"phase": "measured"}, "value": 2.0}
        ]
        labels = [e["labels"] for e in snapshot["lat_seconds"]["values"]]
        assert labels == [{"phase": "measured"}]

    def test_reset_during_concurrent_observation_keeps_invariants(self):
        reg = MetricsRegistry()
        h = reg.histogram("r_seconds", buckets=(0.01, 1.0))
        stop = threading.Event()

        def observe():
            while not stop.is_set():
                h.observe(0.005, k="a")

        t = threading.Thread(target=observe)
        t.start()
        try:
            for _ in range(20):
                reg.reset()
        finally:
            stop.set()
            t.join()
        # after the dust settles, cumulative invariant holds for the series
        for entry in h.to_json()["values"]:
            assert entry["bucket_counts"] == sorted(entry["bucket_counts"])
            assert entry["bucket_counts"][-1] <= entry["count"]

    def test_histogram_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("q_seconds", buckets=(0.1, 0.2, 0.4, 0.8))
        for v in (0.05, 0.15, 0.15, 0.3, 0.3, 0.3, 0.5, 0.5, 0.6, 0.7):
            h.observe(v)
        p50 = h.quantile(0.5)
        assert 0.2 <= p50 <= 0.4
        p99 = h.quantile(0.99)
        assert 0.4 <= p99 <= 0.8
        assert h.quantile(0.0) <= p50 <= h.quantile(1.0)
        # empty series and out-of-range q
        assert h.quantile(0.5, missing="yes") is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_clamps_to_last_finite_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("big_seconds", buckets=(0.1, 1.0))
        h.observe(50.0)  # lands in the implicit +Inf bucket
        assert h.quantile(0.99) == 1.0

    def test_json_snapshot_carries_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("s_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        entry = reg.render_json()["s_seconds"]["values"][0]
        assert set(entry["quantiles"]) == {"p50", "p95", "p99"}
        assert all(v is not None for v in entry["quantiles"].values())


class TestChromeExport:
    def _capture(self):
        with telemetry.trace("unit") as tr:
            with telemetry.span("root", bytes_in=100) as sp:
                sp.set(bytes_out=10, workflow="huffman")
                with telemetry.span("child"):
                    pass
        return tr

    def test_schema_roundtrip(self, tmp_path):
        tr = self._capture()
        path = telemetry.write_chrome_trace(tmp_path / "t.json", tr)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"root", "child"}
        for e in spans:
            assert e["cat"] == "repro"
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["ts"] >= 0
            assert e["dur"] >= 0

    def test_counter_events_track_throughput(self):
        payload = telemetry.to_chrome_trace(self._capture())
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        # "root" moved bytes, so it contributes a (value, zero) pair.
        root_samples = [e for e in counters if "root" in e["args"]]
        assert len(root_samples) == 2
        assert all(e["name"] == "throughput_gbps" for e in root_samples)
        first, last = sorted(root_samples, key=lambda e: e["ts"])
        assert first["args"]["root"] > 0
        assert last["args"]["root"] == 0
        # "child" moved no bytes: no counter track for it.
        assert not any("child" in e["args"] for e in counters)

    def test_child_interval_inside_parent(self):
        payload = telemetry.to_chrome_trace(self._capture())
        by_name = {e["name"]: e for e in payload["traceEvents"]
                   if e["ph"] == "X"}
        root, child = by_name["root"], by_name["child"]
        assert child["ts"] >= root["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3

    def test_args_carry_bytes_and_attrs(self):
        payload = telemetry.to_chrome_trace(self._capture())
        root = next(e for e in payload["traceEvents"] if e["name"] == "root")
        assert root["args"]["bytes_in"] == 100
        assert root["args"]["bytes_out"] == 10
        assert root["args"]["workflow"] == "huffman"


class TestPipelineIntegration:
    COMPRESS_STAGES = {
        "compress", "quantize", "histogram", "select_workflow",
        "encode", "outliers", "archive",
    }
    DECOMPRESS_STAGES = {
        "decompress", "archive_read", "decode", "scatter_outliers", "reconstruct",
    }

    def test_compress_trace_covers_every_stage(self, field_2d):
        with telemetry.trace() as tr:
            repro.compress(field_2d, eb=1e-3)
        assert self.COMPRESS_STAGES <= tr.span_names()

    def test_decompress_trace_covers_every_stage(self, field_2d):
        blob = repro.compress(field_2d, eb=1e-3).archive
        with telemetry.trace() as tr:
            repro.decompress(blob)
        assert self.DECOMPRESS_STAGES <= tr.span_names()

    def test_workflow_internals_traced(self, sparse_field_2d):
        with telemetry.trace() as tr:
            res = repro.compress(sparse_field_2d, eb=1e-2, workflow="rle+vle")
            repro.decompress(res.archive)
        names = tr.span_names()
        assert {"rle.encode", "rle.vle_values", "rle.vle_lengths", "rle.decode"} <= names

    def test_round_trip_increments_prometheus_counters(self, field_2d):
        ins = telemetry.REGISTRY
        c0 = ins.counter("repro_compress_calls_total").total()
        d0 = ins.counter("repro_decompress_calls_total").total()
        b0 = ins.counter("repro_compress_input_bytes_total").total()
        res = repro.compress(field_2d, eb=1e-3)
        repro.decompress(res.archive)
        assert ins.counter("repro_compress_calls_total").total() == c0 + 1
        assert ins.counter("repro_decompress_calls_total").total() == d0 + 1
        assert ins.counter("repro_compress_input_bytes_total").total() == b0 + field_2d.nbytes
        text = telemetry.render_prometheus()
        assert "repro_compress_calls_total" in text
        assert "repro_stage_seconds_bucket" in text
        assert ins.gauge("repro_last_compression_ratio").value() == pytest.approx(
            res.compression_ratio
        )

    def test_selector_decision_labelled(self, sparse_field_2d):
        sel = telemetry.REGISTRY.counter("repro_selector_decisions_total")
        before = sel.value(workflow="rle+vle")
        repro.compress(sparse_field_2d, eb=1e-2)  # auto -> rle+vle on this field
        assert sel.value(workflow="rle+vle") == before + 1

    def test_gpu_runtime_kernel_spans(self):
        from repro.gpu.device import V100
        from repro.gpu.runtime import run_compression, run_decompression
        from repro.core.config import CompressorConfig

        rng = np.random.default_rng(0)
        data = rng.normal(size=(64, 64)).astype(np.float32)
        with telemetry.trace() as tr:
            art, _ = run_compression(data, CompressorConfig(eb=1e-3), V100)
            run_decompression(art, CompressorConfig(eb=1e-3), V100)
        names = tr.span_names()
        assert {"gpu.run_compression", "kernel.lorenzo_construct",
                "kernel.gather_outlier", "kernel.huffman_encode"} <= names
        assert {"gpu.run_decompression", "kernel.huffman_decode",
                "kernel.scatter_outlier", "kernel.lorenzo_reconstruct"} <= names
        enc = next(s for s in tr.spans() if s.name == "kernel.huffman_encode")
        assert enc.attrs["simulated_seconds"] > 0
        assert enc.attrs["bound"] in ("compute", "memory", "serial", "overhead")

    def test_disabled_archive_identical_and_no_timing_keys(self, field_2d):
        with telemetry.scope(False):
            res_off = repro.compress(field_2d, eb=1e-3)
        res_on = repro.compress(field_2d, eb=1e-3)
        assert res_off.archive == res_on.archive
        assert not any(k.endswith("_seconds") for k in res_off.stage_stats)
        assert "total_seconds" in res_on.stage_stats
        # Workflow statistics survive disabled mode (they are not span-derived).
        assert "avg_bitlen" in res_off.stage_stats

    def test_parallel_checkpoint_rank_spans(self, field_2d):
        from repro.parallel import run_spmd
        from repro.parallel.checkpoint import write_checkpoint
        from repro.parallel.decomposition import slab_bounds
        from repro.core.config import CompressorConfig

        def job(comm):
            lo, hi = slab_bounds(field_2d.shape[0], comm.size, comm.rank)
            return write_checkpoint(comm, field_2d[lo:hi], CompressorConfig(eb=1e-3))

        with telemetry.trace() as tr:
            run_spmd(2, job)
        writes = [r for r in tr.roots if r.name == "checkpoint.write"]
        assert len(writes) == 2
        assert sorted(w.attrs["rank"] for w in writes) == [0, 1]
        assert len({w.tid for w in writes}) == 2
        for w in writes:
            assert w.find("compress") is not None  # rank compress nests inside

    def test_bench_harness_run_record(self):
        from repro.bench.harness import Experiment

        exp = Experiment(name="unit", description="test experiment",
                         func=lambda: "body")
        out = exp.run()
        assert "unit" in out and "body" in out
        rec = exp.last_record
        assert rec["experiment"] == "unit"
        assert rec["seconds"] >= 0
        assert rec["telemetry_enabled"] is True
        assert "metrics" in rec
        json.dumps(rec)  # structured record must be JSON-serializable


class TestPwrelStages:
    def test_pwrel_records_transform_stage(self, field_2d):
        data = np.abs(field_2d) + 1.0
        res = repro.compress(data, eb=1e-3, mode="pwrel")
        for key in ("pwrel_transform_seconds", "compress_seconds",
                    "pwrel_container_seconds", "total_seconds"):
            assert key in res.stage_stats, key
        # The inner pipeline's own stages ride along too.
        assert "quantize_seconds" in res.stage_stats

    def test_pwrel_decompress_stats(self, field_2d):
        data = np.abs(field_2d) + 1.0
        res = repro.compress(data, eb=1e-3, mode="pwrel")
        out = repro.decompress_with_stats(res.archive)
        assert "pwrel_inverse_seconds" in out.stage_stats
        assert "total_seconds" in out.stage_stats
        assert np.all(np.abs(out.data - data) <= 1e-3 * np.abs(data))


def _hand_span(name, t0, t1, children=(), bytes_in=0, bytes_out=0):
    span = telemetry.Span(name, bytes_in=bytes_in, bytes_out=bytes_out)
    span.t_start, span.t_end = t0, t1
    span.children.extend(children)
    return span


class TestSpanFold:
    """The one fold every stage-time reader projects."""

    def hand_tree(self):
        # Timestamps are binary fractions, so every sum below is exact.
        return _hand_span("root", 0.0, 10.0, bytes_in=100, children=[
            _hand_span("a", 1.0, 4.0, bytes_in=10, bytes_out=20,
                       children=[_hand_span("x", 1.5, 2.0, bytes_out=7)]),
            _hand_span("a", 3.0, 6.0, bytes_in=5),        # overlaps the first a
            _hand_span("b", 5.0, 9.0, children=[         # overlaps the second a
                _hand_span("y", 6.0, 8.0),
                _hand_span("y", 7.0, 8.5),               # overlaps its sibling
            ]),
        ])

    def test_hand_built_tree_exact(self):
        folded = telemetry.fold_spans(self.hand_tree())
        got = {path: (s.wall, s.self, s.count, s.bytes) for path, s in folded.items()}
        assert got == {
            ("root",): (10.0, 2.0, 1, 100),               # 10 - |[1, 9]|
            ("root", "a"): (5.0, 5.5, 2, 25),             # |[1, 6]|; (3 - .5) + 3
            ("root", "a", "x"): (0.5, 0.5, 1, 7),
            ("root", "b"): (4.0, 1.5, 1, 0),              # 4 - |[6, 8.5]|
            ("root", "b", "y"): (2.5, 3.5, 2, 0),         # |[6, 8.5]|; 2 + 1.5
        }
        assert list(folded) == [("root",), ("root", "a"), ("root", "a", "x"),
                                ("root", "b"), ("root", "b", "y")]

    def test_projections_of_hand_built_tree(self):
        from repro.bench.profiler import fold_trace
        from repro.telemetry.instruments import stage_stats_from_span

        root = self.hand_tree()
        assert stage_stats_from_span(root) == {
            "a_seconds": 5.0, "b_seconds": 4.0, "total_seconds": 10.0}
        assert telemetry.span_self_times(root) == {
            "root": 2.0, "a": 5.5, "x": 0.5, "b": 1.5, "y": 3.5}
        view = fold_trace([root])
        assert view.total_seconds == 10.0
        assert {h.name: (h.count, h.self_seconds) for h in view.hotspots} == {
            "root": (1, 2.0), "a": (2, 5.5), "x": (1, 0.5),
            "b": (1, 1.5), "y": (2, 3.5)}
        assert view.folded["root;b;y"] == 3.5e6

    def test_fold_of_a_fold_and_of_nothing(self):
        folded = telemetry.fold_spans(self.hand_tree())
        assert telemetry.fold_spans(folded) is folded
        with telemetry.scope(False):
            null = telemetry.span("off")
        for nothing in (None, null, "nope", []):
            assert telemetry.fold_spans(nothing) == {}

    def test_child_outliving_its_parent_is_clipped(self):
        root = _hand_span("root", 0.0, 4.0, children=[_hand_span("late", 3.0, 6.0)])
        folded = telemetry.fold_spans(root)
        assert folded[("root",)].self == 3.0
        assert folded[("root", "late")].wall == 3.0


def _old_formulas(root):
    """Every reader's per-span arithmetic as it stood before the fold."""
    stats = {f"{c.name}_seconds": c.duration for c in root.children}
    stats["total_seconds"] = root.duration
    observed = [(c.duration, c.name) for c in root.children]
    observed.append((root.duration, "total"))
    self_times = {}
    stack = [root]
    while stack:
        s = stack.pop()
        own = s.duration
        for c in s.children:
            own -= c.duration
        stack.extend(reversed(s.children))
        self_times[s.name] = self_times.get(s.name, 0.0) + max(own, 0.0)
    samples = {f"{root.name}_total": root.duration}
    for c in root.children:
        key = f"{root.name}.{c.name}"
        samples[key] = samples.get(key, 0.0) + c.duration
    hot, folded = {}, {}

    def visit(span, path):
        here = f"{path};{span.name}" if path else span.name
        own = max(span.duration - sum(c.duration for c in span.children), 0.0)
        n, total, self_s, moved = hot.get(span.name, (0, 0.0, 0.0, 0))
        hot[span.name] = (n + 1, total + span.duration, self_s + own,
                          moved + max(span.bytes_in, span.bytes_out))
        folded[here] = folded.get(here, 0.0) + own * 1e6
        for c in span.children:
            visit(c, here)

    visit(root, "")
    stage_seconds = {}
    for s in root.walk():
        stage_seconds[s.name] = stage_seconds.get(s.name, 0.0) + s.duration
    return stats, observed, self_times, samples, hot, folded, stage_seconds


class TestFoldMatchesSerialFormulas:
    """Where no spans overlap, every projection equals the old arithmetic."""

    def roots(self, field_2d):
        positive = np.abs(field_2d) + 1.0
        with telemetry.trace() as tr:
            res = repro.compress(field_2d, eb=1e-3)
            repro.decompress_with_stats(res.archive)
            pw = repro.compress(positive, eb=1e-3, mode="pwrel")
            repro.decompress_with_stats(pw.archive)
        assert [r.name for r in tr.roots] == [
            "compress", "decompress", "compress_pwrel", "decompress_pwrel"]
        return tr.roots

    def test_every_projection_equals_the_old_formula(self, field_2d, monkeypatch):
        from repro.bench.harness import Experiment
        from repro.bench.profiler import fold_trace
        from repro.bench.runner import _stage_samples
        from repro.telemetry import instruments as ins

        def close(value):  # equal up to the order of float additions
            return pytest.approx(value, rel=1e-12, abs=1e-12)

        class Recorder:
            def observe(self, value, op, stage):
                self.calls.append((value, stage))

        roots = self.roots(field_2d)
        recorder = Recorder()
        monkeypatch.setattr(ins, "STAGE_SECONDS", recorder)
        for root in roots:
            stats, observed, self_times, samples, hot, folded, stage_seconds = (
                _old_formulas(root))
            fold = telemetry.fold_spans(root)
            assert ins.stage_stats_from_span(fold) == stats
            recorder.calls = []
            ins.record_stage_metrics(fold, op="x")
            assert recorder.calls == observed
            assert telemetry.span_self_times(fold) == self_times
            if root.name in ("compress", "decompress"):
                assert _stage_samples(fold, root.name, blocked=False) == samples
            view = fold_trace([root])
            assert {h.name: (h.count, h.total_seconds, h.self_seconds, h.bytes_moved)
                    for h in view.hotspots} == {
                name: (n, close(total), close(self_s), moved)
                for name, (n, total, self_s, moved) in hot.items()}
            assert view.folded == {k: close(v) for k, v in folded.items()}
            record = Experiment("unit", "", lambda: "")._build_record(0.0, [root])
            assert record["stage_seconds"] == {
                k: close(v) for k, v in stage_seconds.items()}
            assert record["n_spans"] == sum(1 for _ in root.walk())


class TestConcurrentBlocksCountOnce:
    """Overlapping per-block spans count once in every stage wall."""

    def test_serial_blocks_decompress_seconds_covers_every_block(self, field_2d):
        from repro.core.streaming import compress_blocks, decompress_blocks_with_stats

        blob = compress_blocks(field_2d, eb=1e-3, max_block_bytes=field_2d.nbytes // 4)
        with telemetry.trace() as tr:
            res = decompress_blocks_with_stats(blob)
        blocks = [s for s in tr.spans() if s.name == "decompress"]
        assert len(blocks) == 4
        assert res.stage_stats["decompress_seconds"] == pytest.approx(
            sum(s.duration for s in blocks), rel=1e-9)
        assert res.stage_stats["decompress_seconds"] <= res.stage_stats["total_seconds"]

    def test_bench_block_case_walls_stay_under_root(self):
        from repro.bench.runner import run_case
        from repro.bench.scenarios import BenchCase

        case = BenchCase("ps_blocks_thread_j2", "CESM", "PS", 1e-3,
                         jobs=2, block_bytes=1 << 18, backend="thread")
        timing = run_case(case, repeats=1)["timing"]
        assert "decompress.decode" in timing and "compress.encode" in timing
        for op in ("compress", "decompress"):
            root = timing[f"{op}_total"]["min"]
            stages = {k: v["min"] for k, v in timing.items() if k.startswith(op + ".")}
            assert stages
            for key, wall in stages.items():
                assert wall <= root, (key, wall, root)

    def test_thread_engine_stage_walls_and_ledger_root_self(self, field_2d, tmp_path):
        from repro.core.config import CompressorConfig
        from repro.core.streaming import compress_blocks
        from repro.engine.backends import get_executor
        from repro.telemetry import instruments as ins
        from repro.telemetry import ledger as lm

        def sums():
            return {(v["labels"]["op"], v["labels"]["stage"]): v["sum"]
                    for v in ins.STAGE_SECONDS.to_json()["values"]}

        path = tmp_path / "l.jsonl"
        cfg = CompressorConfig(eb=1e-3, ledger=str(path))
        field = np.tile(field_2d, (4, 1))
        before = sums()
        eng = get_executor("thread", jobs=2, config=cfg)
        try:
            blob = compress_blocks(field, cfg, max_block_bytes=field.nbytes // 8,
                                   backend=eng)
            res = repro.decompress_with_stats(blob, backend=eng)
        finally:
            eng.shutdown(wait=True)
        after = sums()
        stage_keys = [k for k in res.stage_stats if k.endswith("_seconds")]
        assert "decompress_seconds" in stage_keys
        for key in stage_keys:
            assert res.stage_stats[key] <= res.stage_stats["total_seconds"], key
        delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
        for (op, stage), seconds in delta.items():
            if stage != "total" and seconds:
                assert seconds <= delta[(op, "total")] + 1e-9, (op, stage)
        batch = [r for r in lm.read_ledger(path) if r["op"] == "engine_batch"]
        assert len(batch) == 1
        assert batch[0]["stages"]["compress_blocks"] > 0.0
        lm.reset_ledgers()

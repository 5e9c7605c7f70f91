"""Tests for the Prometheus text format contract (promtool-style lint), the
registry served over HTTP by the ``repro serve`` front door -- the one HTTP
stack -- and the structured JSON log lines."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry as tel
from repro.core.errors import ConfigError
from repro.server import CompressionServer, ServerConfig
from repro.telemetry import instruments as ins
from repro.telemetry import lint_prometheus
from repro.telemetry.metrics import MetricsRegistry, render_prometheus


@pytest.fixture(autouse=True)
def _fresh_metrics():
    tel.reset_metrics()
    yield
    tel.reset_metrics()


def populate_registry():
    field = np.sin(np.linspace(0, 8, 4096)).astype(np.float32).reshape(64, 64)
    with tel.scope(True):  # instruments only tick when telemetry is on
        repro.compress(field, eb=1e-3)


def front_door() -> CompressionServer:
    """An unstarted front door on an ephemeral port with a serial engine."""
    return CompressionServer(
        ServerConfig(port=0, jobs=1, backend="serial", max_inflight=2)
    )


class TestPrometheusFormat:
    """Satellite: render_prometheus emits # TYPE/# HELP once per family
    and terminates with a newline, promtool-style."""

    def test_headers_once_per_family_and_trailing_newline(self):
        populate_registry()
        text = render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        types = [ln.split()[2] for ln in lines if ln.startswith("# TYPE ")]
        helps = [ln.split()[2] for ln in lines if ln.startswith("# HELP ")]
        assert len(types) == len(set(types)), "duplicate # TYPE family"
        assert len(helps) == len(set(helps)), "duplicate # HELP family"
        assert set(types) == set(helps)

    def test_help_precedes_type_precedes_samples(self):
        populate_registry()
        text = render_prometheus()
        assert lint_prometheus(text) == []

    def test_histogram_suffixes_resolve_to_family(self):
        reg = MetricsRegistry()
        h = reg.histogram("demo_seconds", "demo", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = reg.render_prometheus()
        assert "# TYPE demo_seconds histogram" in text
        assert "demo_seconds_bucket" in text
        assert "demo_seconds_count" in text
        assert lint_prometheus(text) == []

    def test_empty_registry_renders_clean(self):
        reg = MetricsRegistry()
        text = reg.render_prometheus()
        assert lint_prometheus(text) == []

    def test_lint_catches_missing_newline(self):
        assert lint_prometheus("# TYPE x counter\nx 1") != []

    def test_lint_catches_duplicate_type(self):
        bad = "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"
        assert any("duplicate # TYPE" in p for p in lint_prometheus(bad))

    def test_lint_catches_headerless_sample(self):
        assert any(
            "no # TYPE" in p for p in lint_prometheus("mystery_total 3\n")
        )

    def test_lint_catches_type_after_samples(self):
        bad = "x 1\n# TYPE x counter\n"
        problems = lint_prometheus(bad)
        assert problems  # sample before its header


class TestMetricsServer:
    """The process's registry over HTTP, as ``repro serve`` answers it."""

    def test_scrape_metrics_over_http(self):
        populate_registry()
        with front_door() as srv:
            with urllib.request.urlopen(srv.address + "/metrics") as resp:
                assert resp.status == 200
                ctype = resp.headers["Content-Type"]
                body = resp.read().decode()
        assert "version=0.0.4" in ctype
        assert body.endswith("\n")
        assert "repro_compress_calls_total 1" in body
        assert lint_prometheus(body) == []

    def test_scrape_json(self):
        populate_registry()
        with front_door() as srv:
            with urllib.request.urlopen(srv.address + "/metrics.json") as resp:
                snapshot = json.loads(resp.read())
        assert snapshot["repro_compress_calls_total"]["type"] == "counter"

    def test_healthz_and_404(self):
        with front_door() as srv:
            with urllib.request.urlopen(srv.address + "/healthz") as resp:
                assert json.loads(resp.read())["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(srv.address + "/nope")
            assert exc.value.code == 404

    def test_ephemeral_port_resolves(self):
        srv = front_door()
        assert srv.port == 0
        with srv:
            assert srv.port != 0
            assert srv.address == f"http://127.0.0.1:{srv.port}"

    def test_double_start_raises(self):
        with front_door() as srv:
            with pytest.raises(ConfigError):
                srv.start()

    def test_stop_is_idempotent(self):
        srv = front_door().start()
        srv.stop()
        srv.stop()

    def test_live_updates_between_scrapes(self):
        with front_door() as srv:
            before = urllib.request.urlopen(srv.address + "/metrics").read().decode()
            populate_registry()
            after = urllib.request.urlopen(srv.address + "/metrics").read().decode()
        assert "repro_compress_calls_total 0" in before
        assert "repro_compress_calls_total 1" in after


class TestImportCost:
    def test_import_repro_skips_http_server(self):
        # The HTTP stack loads with `repro serve`, not with `import repro`.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; assert 'http.server' not in sys.modules"],
            env=env, check=True, timeout=120,
        )


class TestStructuredLog:
    def test_off_by_default(self, capsys):
        from repro.telemetry.log import get_logger

        get_logger("test").event("nothing.happens", x=1)
        assert capsys.readouterr().err == ""

    def test_file_sink_emits_span_correlated_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", str(tmp_path / "log.jsonl"))
        from repro.telemetry.log import get_logger

        log = get_logger("test.sink")
        with tel.scope(True), tel.span("outer"):
            log.event("unit.test", answer=42)
        log.event("unit.test", answer=43)
        lines = [
            json.loads(ln)
            for ln in (tmp_path / "log.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 2
        assert lines[0]["event"] == "unit.test"
        assert lines[0]["logger"] == "test.sink"
        assert lines[0]["span"] == "outer"
        assert lines[0]["answer"] == 42
        assert lines[1]["span"] is None


class TestSharedRegistry:
    """Satellite: the front door's /metrics endpoint and an in-process
    render show ONE process-global registry -- booting the server never
    double-registers a family."""

    def test_obs_exporter_and_front_door_share_one_registry(self):
        with front_door() as front:
            # Tick a server instrument through the front door...
            urllib.request.urlopen(front.address + "/healthz").read()
            front_text = (
                urllib.request.urlopen(front.address + "/metrics").read().decode()
            )
            # ...and the in-process render must see the same families.
            local_text = render_prometheus()
        for text in (front_text, local_text):
            assert "repro_server_requests_total" in text
            assert lint_prometheus(text) == [], "double-registered family"
        front_families = {
            ln.split()[2] for ln in front_text.splitlines()
            if ln.startswith("# TYPE ")
        }
        local_families = {
            ln.split()[2] for ln in local_text.splitlines()
            if ln.startswith("# TYPE ")
        }
        assert front_families == local_families

    def test_reimporting_instruments_is_idempotent(self):
        import importlib

        before = ins.SERVER_REQUESTS
        importlib.reload(ins)
        assert ins.SERVER_REQUESTS is before  # same family object, no fork
        assert lint_prometheus(render_prometheus()) == []

    def test_counter_reregistration_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("shared_total", "first registration")
        b = reg.counter("shared_total", "second registration ignored")
        assert a is b
        a.inc()
        assert b.total() == 1.0

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("shape_shifter", "")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("shape_shifter", "")

    def test_histogram_bucket_mismatch_raises(self):
        """Regression: silently returning the existing histogram under
        different buckets would fork the series between exporters."""
        reg = MetricsRegistry()
        reg.histogram("latency_seconds", "", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("latency_seconds", "", buckets=(0.5, 5.0))
        # Same buckets (any ordering) is the dedupe path, not an error.
        again = reg.histogram("latency_seconds", "", buckets=(1.0, 0.1))
        again.observe(0.05)
        assert lint_prometheus(reg.render_prometheus()) == []

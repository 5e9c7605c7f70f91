"""End-to-end lifecycle tests for the compression front door.

Every test drives a real :class:`repro.server.CompressionServer` listening
on an ephemeral port through real sockets -- the library pipeline is the
reference for byte-identity, and admission control / drain / fault paths
are exercised exactly as a client would hit them.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import compress
from repro.core.errors import ConfigError
from repro.core.streaming import compress_blocks
from repro.server import (
    CompressionServer,
    QuotaExceeded,
    RequestScheduler,
    Saturated,
    ServerConfig,
    TokenBucket,
    parse_quota,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def request(port, method, path, body=b"", headers=None, timeout=60):
    """One HTTP request; returns (status, lowercase headers, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, data
    finally:
        conn.close()


def err_payload(body: bytes) -> dict:
    return json.loads(body)["error"]


def make_field(shape=(48, 64), dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    wave = np.sin(np.linspace(0.0, 8.0 * np.pi, n))
    return (wave + np.cumsum(rng.standard_normal(n) * 0.01) + 5.0).astype(
        dtype
    ).reshape(shape)


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, jobs=2, backend="thread", max_inflight=8, quota_rate=500.0
    )
    with CompressionServer(config) as srv:
        yield srv


# ---------------------------------------------------------------------------
# Round trips: every container kind must match the library pipeline exactly
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def _roundtrip(self, server, field, query, reference_blob):
        status, headers, blob = request(
            server.port, "POST", "/v1/compress?" + query, body=field.tobytes()
        )
        assert status == 200, blob
        assert blob == reference_blob  # byte-identical to the library path
        status, headers, raw = request(server.port, "POST", "/v1/decompress", body=blob)
        assert status == 200, raw
        dims = tuple(int(d) for d in headers["x-repro-dims"].split(","))
        assert dims == field.shape
        restored = np.frombuffer(raw, dtype=field.dtype).reshape(dims)
        return restored

    def test_single_container_f32(self, server):
        field = make_field()
        reference = compress(field, eb=1e-3).archive
        restored = self._roundtrip(
            server, field, "dims=48,64&dtype=f32&eb=1e-3", reference
        )
        span = float(field.max() - field.min())
        assert np.abs(restored - field).max() <= 1e-3 * span * 1.0000001

    def test_single_container_f64(self, server):
        field = make_field(dtype=np.float64, seed=3)
        reference = compress(field, eb=1e-4).archive
        status, headers, blob = request(
            server.port, "POST",
            "/v1/compress?dims=48,64&dtype=f64&eb=1e-4",
            body=field.tobytes(),
        )
        assert status == 200 and blob == reference
        assert headers["x-repro-container"] == "single"
        status, headers, raw = request(server.port, "POST", "/v1/decompress", body=blob)
        assert status == 200 and headers["x-repro-dtype"] == "f64"
        assert raw == np.ascontiguousarray(
            np.frombuffer(raw, dtype=np.float64).reshape(48, 64)
        ).tobytes()

    def test_blocks_container(self, server):
        field = make_field(shape=(64, 64), seed=5)
        reference = compress_blocks(field, eb=1e-3, max_block_bytes=4096)
        restored = self._roundtrip(
            server, field,
            "dims=64,64&dtype=f32&eb=1e-3&block_bytes=4096",
            reference,
        )
        span = float(field.max() - field.min())
        assert np.abs(restored - field).max() <= 1e-3 * span * 1.0000001

    def test_pwrel_container(self, server):
        field = make_field(seed=7)  # strictly positive by construction
        reference = compress(field, eb=1e-3, mode="pwrel").archive
        status, headers, blob = request(
            server.port, "POST",
            "/v1/compress?dims=48,64&dtype=f32&eb=1e-3&mode=pwrel",
            body=field.tobytes(),
        )
        assert status == 200 and blob == reference
        assert headers["x-repro-container"] == "pwrel"
        status, _, raw = request(server.port, "POST", "/v1/decompress", body=blob)
        assert status == 200
        restored = np.frombuffer(raw, dtype=np.float32).reshape(48, 64)
        assert np.abs(restored - field).max() <= (1e-3 * np.abs(field)).max()

    def test_verify_reports_ok_and_corruption(self, server):
        blob = compress(make_field(), eb=1e-3).archive
        status, _, body = request(server.port, "POST", "/v1/verify", body=blob)
        assert status == 200
        report = json.loads(body)
        assert report["ok"] is True and report["sections_checked"] > 0
        # A corrupt archive is a *finding*, not a server error.
        status, _, body = request(
            server.port, "POST", "/v1/verify", body=blob[: len(blob) // 2]
        )
        assert status == 200
        report = json.loads(body)
        assert report["ok"] is False
        assert report["error"]["type"] in ("ArchiveError", "IntegrityError")


# ---------------------------------------------------------------------------
# Error mapping: malformed input must be a 4xx with a library hint, never 500
# ---------------------------------------------------------------------------


class TestErrorMapping:
    def test_garbage_archive_is_400_archive_error(self, server):
        status, _, body = request(
            server.port, "POST", "/v1/decompress", body=b"definitely not an archive"
        )
        assert status == 400
        err = err_payload(body)
        assert err["type"] == "ArchiveError"

    def test_truncated_archive_is_400_with_hint(self, server):
        blob = compress(make_field(), eb=1e-3).archive
        status, _, body = request(
            server.port, "POST", "/v1/decompress", body=blob[: len(blob) // 3]
        )
        assert status == 400
        err = err_payload(body)
        assert err["type"] in ("ArchiveError", "IntegrityError")
        assert err["detail"]  # a human-readable hint, not a traceback

    def test_body_size_mismatch_is_400_config_error(self, server):
        status, _, body = request(
            server.port, "POST", "/v1/compress?dims=48,64&dtype=f32",
            body=b"\x00" * 17,
        )
        assert status == 400
        err = err_payload(body)
        assert err["type"] == "ConfigError"
        assert "body size mismatch" in err["detail"]

    def test_missing_dims_is_400(self, server):
        status, _, body = request(
            server.port, "POST", "/v1/compress", body=b"\x00" * 8
        )
        assert status == 400
        assert "dims" in err_payload(body)["detail"]

    def test_empty_decompress_body_is_400(self, server):
        status, _, body = request(server.port, "POST", "/v1/decompress")
        assert status == 400
        assert err_payload(body)["type"] == "ArchiveError"

    def test_unknown_route_404_and_wrong_method_405(self, server):
        status, _, _ = request(server.port, "GET", "/v2/nope")
        assert status == 404
        status, _, _ = request(server.port, "GET", "/v1/compress")
        assert status == 405
        status, _, _ = request(server.port, "POST", "/healthz")
        assert status == 405

    def test_unknown_priority_is_400(self, server):
        status, _, body = request(
            server.port, "POST", "/v1/verify", body=b"x",
            headers={"X-Repro-Priority": "turbo"},
        )
        assert status == 400
        assert "priority" in err_payload(body)["detail"]

    def test_truncated_http_body_is_400_protocol_error(self, server):
        # Declare more bytes than we send, then close: the server must
        # answer 400 (the response races our FIN, so tolerate a reset too).
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/decompress HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 1000\r\n\r\nshort"
            )
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10)
            data = b""
            try:
                while chunk := sock.recv(65536):
                    data += chunk
            except (ConnectionResetError, TimeoutError):
                pass
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"truncated" in data

    def test_chunked_transfer_is_501(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/compress HTTP/1.1\r\n"
                b"Host: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            sock.settimeout(10)
            data = sock.recv(65536)
        assert b"501" in data.split(b"\r\n", 1)[0]

    def test_oversized_body_is_413(self):
        config = ServerConfig(
            port=0, jobs=1, backend="serial", max_inflight=2, max_body=1024
        )
        with CompressionServer(config) as srv:
            status, _, body = request(
                srv.port, "POST", "/v1/verify", body=b"\x00" * 2048
            )
            assert status == 413


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_quota_exhaustion_is_429_with_retry_after(self):
        config = ServerConfig(
            port=0, jobs=1, backend="serial", max_inflight=4,
            quota_rate=0.5, quota_burst=1.0,
        )
        field = make_field(shape=(16, 16))
        blob = compress(field, eb=1e-3).archive
        with CompressionServer(config) as srv:
            status, _, _ = request(
                srv.port, "POST", "/v1/verify", body=blob,
                headers={"X-Repro-Tenant": "greedy"},
            )
            assert status == 200
            status, headers, body = request(
                srv.port, "POST", "/v1/verify", body=blob,
                headers={"X-Repro-Tenant": "greedy"},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert err_payload(body)["type"] == "QuotaExceeded"
            # Another tenant draws from its own bucket and sails through.
            status, _, _ = request(
                srv.port, "POST", "/v1/verify", body=blob,
                headers={"X-Repro-Tenant": "patient"},
            )
            assert status == 200
            info = json.loads(request(srv.port, "GET", "/v1/info")[2])
            assert info["scheduler"]["rejected"].get("quota", 0) >= 1

    def test_capacity_exhaustion_is_429_saturated(self):
        config = ServerConfig(
            port=0, jobs=1, backend="thread", max_inflight=1, quota_rate=1000.0
        )
        big = make_field(shape=(1400, 1400), seed=11)
        with CompressionServer(config) as srv:
            results = {}

            def slow():
                results["slow"] = request(
                    srv.port, "POST",
                    "/v1/compress?dims=1400,1400&dtype=f32&eb=1e-3",
                    body=big.tobytes(), timeout=120,
                )

            worker = threading.Thread(target=slow)
            worker.start()
            try:
                deadline = time.time() + 30
                got_429 = None
                while time.time() < deadline and got_429 is None:
                    info = json.loads(request(srv.port, "GET", "/v1/info")[2])
                    if info["scheduler"]["inflight"] < 1:
                        time.sleep(0.005)
                        continue
                    status, headers, body = request(
                        srv.port, "POST", "/v1/verify", body=b"x" * 8
                    )
                    if status == 429:
                        got_429 = (headers, body)
                    elif results.get("slow"):
                        break  # the slow request already finished; re-race
            finally:
                worker.join(timeout=120)
            assert got_429 is not None, "never observed the saturated window"
            headers, body = got_429
            assert int(headers["retry-after"]) >= 1
            assert err_payload(body)["type"] == "Saturated"
            assert results["slow"][0] == 200  # in-flight work was unaffected


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new_work(self):
        config = ServerConfig(
            port=0, jobs=2, backend="thread", max_inflight=4, quota_rate=1000.0
        )
        big = make_field(shape=(1400, 1400), seed=13)
        srv = CompressionServer(config).start()
        try:
            results = {}

            def slow():
                results["slow"] = request(
                    srv.port, "POST",
                    "/v1/compress?dims=1400,1400&dtype=f32&eb=1e-3",
                    body=big.tobytes(), timeout=120,
                )

            worker = threading.Thread(target=slow)
            worker.start()
            deadline = time.time() + 30
            while time.time() < deadline:
                info = json.loads(request(srv.port, "GET", "/v1/info")[2])
                if info["scheduler"]["inflight"] >= 1:
                    break
                time.sleep(0.005)
            srv.begin_drain()
            # New job-endpoint work is refused while the listener stays up...
            status, _, body = request(srv.port, "POST", "/v1/verify", body=b"x")
            assert status == 503
            assert err_payload(body)["type"] == "ServerDraining"
            # ...liveness still answers 200 and says so...
            status, _, body = request(srv.port, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "draining"
            # ...and the in-flight request completes untouched.
            worker.join(timeout=120)
            assert results["slow"][0] == 200
        finally:
            srv.stop(drain=True)
        # Fully stopped: the port no longer accepts connections.
        with pytest.raises(OSError):
            request(srv.port, "GET", "/healthz", timeout=2)


# ---------------------------------------------------------------------------
# Fault injection: a murdered process-backend worker must not take the
# server down
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_killed_worker_fails_request_but_server_survives(self):
        config = ServerConfig(
            port=0, jobs=1, backend="process", max_inflight=2, quota_rate=1000.0
        )
        small = make_field(shape=(16, 16))
        big = make_field(shape=(1600, 1600), seed=17)
        with CompressionServer(config) as srv:
            # Warm up the pool so /v1/info reports the worker's pid.
            status, _, _ = request(
                srv.port, "POST", "/v1/compress?dims=16,16&dtype=f32&eb=1e-3",
                body=small.tobytes(), timeout=120,
            )
            assert status == 200
            # Worker accounting lands just after the result future resolves;
            # poll briefly instead of racing it.
            workers = []
            deadline = time.time() + 10
            while time.time() < deadline and not workers:
                info = json.loads(request(srv.port, "GET", "/v1/info")[2])
                workers = info["engine"]["workers"]
                if not workers:
                    time.sleep(0.01)
            assert workers, "process backend reported no workers"
            victim_pid = int(workers[0]["tid"])
            assert victim_pid != os.getpid()

            results = {}

            def doomed():
                results["doomed"] = request(
                    srv.port, "POST",
                    "/v1/compress?dims=1600,1600&dtype=f32&eb=1e-3",
                    body=big.tobytes(), timeout=120,
                )

            worker = threading.Thread(target=doomed)
            worker.start()
            deadline = time.time() + 30
            while time.time() < deadline:
                info = json.loads(request(srv.port, "GET", "/v1/info")[2])
                if info["engine"]["queue_depth"] >= 1:
                    break
                time.sleep(0.005)
            time.sleep(0.05)  # let the job reach the worker process
            os.kill(victim_pid, signal.SIGKILL)
            worker.join(timeout=120)

            status, _, body = results["doomed"]
            assert status == 500
            err = err_payload(body)
            assert err["type"] == "EngineError"
            assert "worker process died" in err["detail"]
            # The server is still alive and healthy...
            status, _, body = request(srv.port, "GET", "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            # ...and subsequent requests succeed on a fresh engine.
            status, _, blob = request(
                srv.port, "POST", "/v1/compress?dims=16,16&dtype=f32&eb=1e-3",
                body=small.tobytes(), timeout=120,
            )
            assert status == 200
            assert blob == compress(small, eb=1e-3).archive


# ---------------------------------------------------------------------------
# Info and metrics endpoints
# ---------------------------------------------------------------------------


class TestIntrospection:
    def test_info_shape(self, server):
        status, _, body = request(server.port, "GET", "/v1/info")
        assert status == 200
        info = json.loads(body)
        assert set(info) >= {"server", "scheduler", "engine", "endpoints"}
        assert info["server"]["draining"] is False
        assert info["engine"]["backend"] == "thread"
        assert info["scheduler"]["limit"] == 8

    def test_metrics_exposes_server_families(self, server):
        # Serve at least one request so the families have samples.
        request(server.port, "GET", "/healthz")
        status, headers, body = request(server.port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "repro_server_requests_total" in text
        assert "repro_server_request_seconds" in text
        from repro.telemetry import lint_prometheus

        assert lint_prometheus(text) == []

    def test_metrics_json(self, server):
        status, _, body = request(server.port, "GET", "/metrics.json")
        assert status == 200
        assert "repro_server_requests_total" in json.loads(body)


# ---------------------------------------------------------------------------
# Scheduler unit tests (fake clock -- no sockets)
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_token_bucket_refills_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        now[0] += 0.5
        assert bucket.try_take() == 0.0

    def test_quota_rejection_carries_retry_after(self):
        now = [0.0]
        sched = RequestScheduler(
            limit=4, quota_rate=1.0, quota_burst=1.0, clock=lambda: now[0]
        )
        sched.admit("t", "interactive")
        sched.release()
        with pytest.raises(QuotaExceeded) as exc:
            sched.admit("t", "interactive")
        assert exc.value.retry_after >= 1
        assert sched.rejected["quota"] == 1

    def test_batch_reserve_protects_interactive_slots(self):
        sched = RequestScheduler(
            limit=4, batch_reserve=2, quota_rate=1000.0
        )
        sched.admit("t", "batch")
        sched.admit("t", "batch")
        with pytest.raises(Saturated):
            sched.admit("t", "batch")  # batch capped at limit - reserve = 2
        sched.admit("t", "interactive")
        sched.admit("t", "interactive")  # interactive sees the full limit
        with pytest.raises(Saturated):
            sched.admit("t", "interactive")
        assert sched.inflight_peak == 4

    def test_engine_spare_overrides_admission(self):
        sched = RequestScheduler(limit=8, quota_rate=1000.0)
        with pytest.raises(Saturated):
            sched.admit("t", "interactive", spare=0)
        sched.admit("t", "interactive", spare=3)

    def test_tenant_quota_overrides(self):
        sched = RequestScheduler(
            limit=4, quota_rate=1000.0,
            tenant_quotas={"slow": (1.0, 1.0)},
        )
        sched.admit("slow", "interactive")
        sched.release()
        with pytest.raises(QuotaExceeded):
            sched.admit("slow", "interactive")
        sched.admit("fast", "interactive")  # default bucket unaffected

    def test_parse_quota(self):
        assert parse_quota("100") == (100.0, 200.0)
        assert parse_quota("2:8") == (2.0, 8.0)
        with pytest.raises(ConfigError):
            parse_quota("zero")
        with pytest.raises(ConfigError):
            parse_quota("0")

    def test_invalid_scheduler_config_rejected(self):
        with pytest.raises(ConfigError):
            RequestScheduler(limit=0)
        with pytest.raises(ConfigError):
            RequestScheduler(limit=4, batch_reserve=4)
        with pytest.raises(ConfigError):
            RequestScheduler(limit=4).admit("t", "turbo")

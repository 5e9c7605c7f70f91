"""The ``service`` workload: ``python -m repro serve`` under an open loop.

The server runs in its own process with the thread backend and one worker
per core.  One generator thread releases requests on a seeded Poisson
schedule into a queue; at most ``nproc`` keep-alive connections, one
thread each, take them in order.  A request's latency runs from when it was
due to its last response byte, so a stall also charges the requests that
queue behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import select
import signal
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np

import inputs
from checks import (
    CheckFailed,
    abs_bound,
    check_restored,
    check_same_bytes,
    check_verify_report,
    flip_payload_byte,
)
from common import MB, OUT, ROOT, SRC, PeakTracker, median, metric, nproc, quantile, timed

#: Mean arrival rate of the open loop, requests per second.
RATE = 9.0
#: Keep-alive connections of the generator (at most nproc).  One connection
#: serialises the server's work, so the schedule's overlaps do not move
#: the per-request service times from one seed to the next.
CONNECTIONS = 1
#: Requests of one round: per field shape, two compress (the shape's
#: repeated field and a fresh one) and two decompress (the repeated
#: archive and the fresh field's archive); then three verify, one of them
#: on a corrupted archive.  24 + 3 = 27 requests, 44/44/11 %.
VERIFY_PER_ROUND = 3
TENANTS = ("climate-lab", "fusion-lab")
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_NAME_DTYPES = {v: k for k, v in _DTYPE_NAMES.items()}


def n_rounds(seconds: float) -> int:
    per_round = 4 * len(inputs.SERVICE_SHAPES) + VERIFY_PER_ROUND
    return max(2, int(round(seconds * RATE / per_round)))


# -- inputs ---------------------------------------------------------------


def prepare(seed: int, seconds: float, dirpath: str) -> None:
    """Fields and their library archives, computed before the clock starts."""
    sys.path.insert(0, SRC)
    import repro

    arrays = {}
    for tag, shape, dtype, kind, eb in inputs.SERVICE_SHAPES:
        for r in range(-1, n_rounds(seconds)):
            key = f"{tag}.hot" if r < 0 else f"{tag}.r{r}"
            x = inputs.service_field(kind, shape, dtype, seed, key)
            arrays["field/" + key] = x
            arrays["archive/" + key] = np.frombuffer(
                repro.compress(x, eb=eb).archive, dtype=np.uint8
            )
    np.savez(os.path.join(dirpath, "service.npz"), **arrays)


class Req:
    __slots__ = ("kind", "path", "body", "tenant", "field", "bound", "expect", "intact")

    def __init__(self, kind, path, body, tenant, field=None, bound=0.0, expect=None, intact=True):
        self.kind, self.path, self.body, self.tenant = kind, path, body, tenant
        self.field, self.bound, self.expect, self.intact = field, bound, expect, intact


def build_plan(seed: int, seconds: float, data) -> list[list[Req]]:
    """Rounds of requests in send order; every round holds the same mix."""
    rng = inputs.rng_for(seed, "service-plan")
    rounds = []
    hot = {}
    for tag, shape, dtype, kind, eb in inputs.SERVICE_SHAPES:
        x = data["field/" + f"{tag}.hot"]
        hot[tag] = (x, data["archive/" + f"{tag}.hot"].tobytes(), abs_bound(x, eb), eb)
    tags = [s[0] for s in inputs.SERVICE_SHAPES]
    for r in range(n_rounds(seconds)):
        reqs = []
        for tag, shape, dtype, kind, eb in inputs.SERVICE_SHAPES:
            hx, harc, hbound, _ = hot[tag]
            ux = data["field/" + f"{tag}.r{r}"]
            uarc = data["archive/" + f"{tag}.r{r}"].tobytes()
            ubound = abs_bound(ux, eb)
            for x, arc, bound in ((hx, harc, hbound), (ux, uarc, ubound)):
                dims = ",".join(str(d) for d in x.shape)
                q = f"/v1/compress?dims={dims}&dtype={_DTYPE_NAMES[x.dtype]}&eb={eb!r}"
                reqs.append(Req("compress", q, x.tobytes(), None, x, bound, arc))
                reqs.append(Req("decompress", "/v1/decompress", arc, None, x, bound))
        picks = rng.choice(len(tags), size=VERIFY_PER_ROUND, replace=False)
        for j, k in enumerate(picks):
            arc = hot[tags[k]][1]
            intact = j > 0
            reqs.append(Req("verify", "/v1/verify", arc if intact else flip_payload_byte(arc),
                            None, intact=intact))
        order = rng.permutation(len(reqs))
        reqs = [reqs[i] for i in order]
        for req in reqs:
            req.tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        rounds.append(reqs)
    return rounds


# -- server process -----------------------------------------------------------


class Server:
    """``python -m repro serve`` in a child process, stopped on :meth:`stop`."""

    def __init__(self, jobs: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        os.makedirs(OUT, exist_ok=True)
        self.log = open(os.path.join(OUT, "server.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--backend", "thread", "-j", str(jobs)],
            stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=ROOT, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, _, port = line.rsplit("/", 1)[-1].strip().rpartition(":")
            self.port = int(port)
            while True:
                try:
                    status, _, _ = get(self.host, self.port, "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - t0 > 120:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
            self.start_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def get(host: str, port: int, path: str):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def send(conn, req: Req):
    """One request on a kept-alive connection: ``(status, headers, body,
    t_send, t_first, t_last)``; ``t_first`` is when the headers arrived."""
    headers = {"X-Repro-Tenant": req.tenant, "Content-Type": "application/octet-stream"}
    t_send = time.perf_counter()
    conn.request("POST", req.path, body=req.body, headers=headers)
    resp = conn.getresponse()
    t_first = time.perf_counter()
    body = resp.read()
    t_last = time.perf_counter()
    return resp.status, resp.getheaders(), body, t_send, t_first, t_last


def check_response(req: Req, status: int, headers, body: bytes) -> None:
    """Raises :class:`CheckFailed` when a 200 answer is wrong."""
    if req.kind == "compress":
        check_same_bytes(body, req.expect, "server archive")
    elif req.kind == "decompress":
        h = {k.lower(): v for k, v in headers}
        dims = tuple(int(d) for d in h["x-repro-dims"].split(","))
        y = np.frombuffer(body, dtype=_NAME_DTYPES[h["x-repro-dtype"]]).reshape(dims)
        check_restored(req.field, y, req.bound)
    else:
        check_verify_report(json.loads(body), req.intact)


class Outcome:
    """Timings and verdict of one request."""

    __slots__ = ("req", "round", "seq", "status", "due", "put", "pick", "send", "first",
                 "last", "error", "check")

    def __init__(self, req, rnd):
        self.req, self.round, self.seq = req, rnd, 0
        self.status = None
        self.error = self.check = None


def open_loop(host, port, rounds, seed, tracer, conns: int) -> list[Outcome]:
    """Run the rounds on a Poisson schedule; returns one outcome per request."""
    flat = [Outcome(req, r) for r, reqs in enumerate(rounds) for req in reqs]
    for seq, out in enumerate(flat):
        out.seq = seq
    gaps = inputs.rng_for(seed, "service-arrivals").exponential(1.0 / RATE, size=len(flat))
    due = np.cumsum(gaps)
    work: queue.Queue = queue.Queue()

    def connection():
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                out = work.get()
                if out is None:
                    return
                out.pick = time.perf_counter()
                with tracer.span(f"server.{out.req.kind}", f"req{out.seq}"):
                    try:
                        status, headers, body, out.send, out.first, out.last = send(conn, out.req)
                    except (OSError, http.client.HTTPException) as exc:
                        out.error = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = http.client.HTTPConnection(host, port, timeout=120)
                        continue
                out.status = status
                if status == 200:
                    try:
                        check_response(out.req, status, headers, body)
                    except (CheckFailed, KeyError, ValueError) as exc:
                        out.check = str(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=connection, daemon=True) for _ in range(conns)]
    for t in threads:
        t.start()
    t0 = time.perf_counter() + 0.05
    try:
        for i, out in enumerate(flat):
            out.due = t0 + due[i]
            wait = out.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.put = time.perf_counter()
            work.put(out)
    finally:
        for _ in threads:
            work.put(None)
        for t in threads:
            t.join()
    return flat


def summarize(outcomes: list[Outcome], n_rounds_: int) -> dict:
    ok = [o for o in outcomes if o.status == 200]
    lat = [o.last - o.due for o in ok]
    per_round = []
    for r in range(n_rounds_):
        row = {}
        for kind in ("compress", "decompress"):
            sel = [o for o in ok if o.round == r and o.req.kind == kind]
            if sel:
                row[kind] = sum(o.req.field.nbytes for o in sel) / MB / sum(
                    o.last - o.send for o in sel)
        per_round.append(row)
    comp = [o for o in ok if o.req.kind == "compress"]
    by_kind = {}
    for kind in ("compress", "decompress", "verify"):
        sel = [o.last - o.due for o in ok if o.req.kind == kind]
        if sel:
            by_kind[kind] = {"n": len(sel), "p50_ms": quantile(sel, 0.5) * 1e3,
                             "p95_ms": quantile(sel, 0.95) * 1e3}
    return {
        "latency_by_kind": by_kind,
        "compress_MBps": max(r["compress"] for r in per_round if "compress" in r),
        "decompress_MBps": max(r["decompress"] for r in per_round if "decompress" in r),
        "compression_ratio": sum(o.req.field.nbytes for o in comp)
        / sum(len(o.req.expect) for o in comp),
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_p95_ms": quantile(lat, 0.95) * 1e3,
    }


def warm_round_trip(host, port) -> None:
    """One compress + decompress of a small field over HTTP."""
    x = np.linspace(0.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        req = Req("compress", "/v1/compress?dims=64,64&dtype=f32&eb=0.001", x.tobytes(), "warmup")
        status, _, arc, *_ = send(conn, req)
        if status != 200:
            raise RuntimeError(f"warm-up compress answered {status}")
        status, _, _, *_ = send(conn, Req("decompress", "/v1/decompress", arc, "warmup"))
        if status != 200:
            raise RuntimeError(f"warm-up decompress answered {status}")
    finally:
        conn.close()


def run(args, tracer, data_dir: str) -> dict:
    data = dict(np.load(os.path.join(data_dir, "service.npz")))
    rounds = build_plan(args.seed, args.seconds, data)
    t_setup = time.perf_counter()
    server = Server(nproc())
    try:
        warm_round_trip(server.host, server.port)
        setup_s = time.perf_counter() - t_setup
        peak = PeakTracker()
        peak.add(server.pid)
        outcomes = open_loop(server.host, server.port, rounds, args.seed, tracer, CONNECTIONS)
        peak_mb = peak.peak_bytes() / MB
        summary = summarize(outcomes, len(rounds))
        layer = None
        if args.trace:
            layer = server_layer_metrics(server, outcomes)
    finally:
        server.stop()
    failed = [o for o in outcomes if o.status != 200]
    bad = [o.check for o in outcomes if o.check]
    result = {
        "attempted": len(outcomes),
        "failed": len(failed),
        "errors": sorted({o.error or f"status {o.status}" for o in failed}),
        "check_failures": bad[:10],
        "correct": not bad,
        "setup_after_inputs_s": setup_s,
        "end_to_end": {
            "compress_MBps": metric(summary["compress_MBps"], "MB/s"),
            "decompress_MBps": metric(summary["decompress_MBps"], "MB/s"),
            "compression_ratio": metric(summary["compression_ratio"], "ratio"),
            "peak_rss_MB": metric(peak_mb, "MB"),
            "latency_p50_ms": metric(summary["latency_p50_ms"], "ms"),
            "latency_p95_ms": metric(summary["latency_p95_ms"], "ms"),
        },
        "server_start_s": server.start_s,
        "latency_by_kind": summary["latency_by_kind"],
    }
    if layer is not None:
        import layers

        hot = [
            (tag, data[f"field/{tag}.hot"], eb) for tag, _, _, _, eb in inputs.SERVICE_SHAPES
        ]
        per_layer = dict(layers.pipeline_probe(hot, tracer)["metrics"])
        try:
            per_layer.update(layers.engine_probe(hot, tracer))
        finally:
            layers.stop_mp_helpers()
        # The server's own engine cache, read through /v1/info, replaces the
        # probe's figure.
        per_layer.update(layer)
        result["layers"] = per_layer
    return result


# -- traced run ---------------------------------------------------------------


def healthz_p50(host, port, n: int = 30) -> float:
    samples = []
    for _ in range(n):
        time.sleep(0.01)
        _, sec = timed(get, host, port, "/healthz")
        samples.append(sec)
    return median(samples) * 1e3


def library_times(outcomes, reps: int = 2) -> dict:
    """In-process library seconds per distinct payload, keyed by body id.

    Verify requests on corrupted archives have no library counterpart that
    does the same work, so they are left out.
    """
    import repro

    out = {}
    for o in outcomes:
        key = (o.req.kind, id(o.req.body))
        if key in out or o.status != 200 or not o.req.intact:
            continue
        if o.req.kind == "compress":
            call = partial(repro.compress, o.req.field, eb=_eb_of(o.req.path))
        elif o.req.kind == "decompress":
            call = partial(repro.decompress, o.req.body)
        else:
            call = partial(repro.verify_archive, o.req.body, deep=True)
        out[key] = min(timed(call)[1] for _ in range(reps))
    return out


def _eb_of(path: str) -> float:
    return float(path.rsplit("eb=", 1)[1])


def server_overheads(outcomes) -> dict:
    lib = library_times(outcomes)
    per_kind: dict[str, list[float]] = {}
    for o in outcomes:
        key = (o.req.kind, id(o.req.body))
        if key in lib:
            per_kind.setdefault(o.req.kind, []).append((o.last - o.send) - lib[key])
    return per_kind


def server_layer_metrics(server, outcomes) -> dict:
    ok = [o for o in outcomes if o.status == 200]
    status, _, body = get(server.host, server.port, "/v1/info")
    cache = json.loads(body)["engine"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    per_kind = server_overheads(ok)
    return {
        "server.start_s": metric(server.start_s, "s"),
        "server.healthz_ms": metric(healthz_p50(server.host, server.port), "ms"),
        "server.overhead_ms": metric(
            median([v for vals in per_kind.values() for v in vals]) * 1e3, "ms"),
        "server.transfer_ms": metric(quantile([o.last - o.first for o in ok], 0.95) * 1e3, "ms"),
        "server.client_queue_ms": metric(
            quantile([o.pick - o.put for o in ok], 0.95) * 1e3, "ms"),
        "loadgen.late_ms": metric(quantile([o.put - o.due for o in outcomes], 0.95) * 1e3, "ms"),
        "engine.cache_hit_ratio": metric(cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "_overhead_by_kind_ms": {k: median(v) * 1e3 for k, v in per_kind.items()},
    }


def server_probe(fields, tracer, reps: int = 3) -> dict:
    """Server figures for a library workload's fields, in a closed loop.

    One connection sends each field's compress and decompress requests in
    turn; a request is due when the previous one has finished.
    """
    import repro

    server = Server(nproc())
    try:
        outcomes = []
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        try:
            plan = []
            for name, x, eb in fields:
                arc = repro.compress(x, eb=eb).archive
                dims = ",".join(str(d) for d in x.shape)
                bound = abs_bound(x, eb)
                pair = (
                    Req("compress", f"/v1/compress?dims={dims}&dtype="
                        f"{_DTYPE_NAMES[x.dtype]}&eb={eb!r}", x.tobytes(), TENANTS[0],
                        x, bound, arc),
                    Req("decompress", "/v1/decompress", arc, TENANTS[1], x, bound),
                )
                plan += [(name, req) for _ in range(reps) for req in pair]
            last = time.perf_counter()
            for name, req in plan:
                out = Outcome(req, 0)
                out.due = out.put = last
                out.pick = time.perf_counter()
                with tracer.span(f"server.{req.kind}", name):
                    status, headers, body, out.send, out.first, out.last = send(conn, req)
                out.status = status
                if status != 200:
                    raise CheckFailed(f"{name}: {req.kind} answered {status}")
                check_response(req, status, headers, body)
                outcomes.append(out)
                last = time.perf_counter()
        finally:
            conn.close()
        per_kind = server_overheads(outcomes)
        return {
            "server.start_s": metric(server.start_s, "s"),
            "server.healthz_ms": metric(healthz_p50(server.host, server.port), "ms"),
            "server.overhead_ms": metric(
                median([v for vals in per_kind.values() for v in vals]) * 1e3, "ms"),
            "server.transfer_ms": metric(
                quantile([o.last - o.first for o in outcomes], 0.95) * 1e3, "ms"),
            "server.client_queue_ms": metric(
                quantile([o.pick - o.put for o in outcomes], 0.95) * 1e3, "ms"),
            "loadgen.late_ms": metric(
                quantile([o.send - o.due for o in outcomes], 0.95) * 1e3, "ms"),
            "_overhead_by_kind_ms": {k: median(v) * 1e3 for k, v in per_kind.items()},
        }
    finally:
        server.stop()

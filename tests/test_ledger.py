"""Tests for the run ledger: opt-in, record schema, rotation, aggregation,
fingerprint stability, batched writes, and the <5 % overhead acceptance
bound."""

import json
import os
import statistics
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import telemetry as tel
from repro.core.config import CompressorConfig
from repro.core.streaming import compress_blocks
from repro.telemetry import ledger as lm
from repro.telemetry.ledger import (
    LEDGER_SCHEMA,
    RECORD_REQUIRED_KEYS,
    RunLedger,
    aggregate_ledger,
    config_fingerprint,
    ledger_for,
    read_ledger,
    render_ledger_report,
    span_self_times,
)


@pytest.fixture(autouse=True)
def _isolate_ledgers(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    lm.reset_ledgers()
    yield
    lm.reset_ledgers()


def make_field(seed=0, shape=(48, 64)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32).cumsum(axis=1)


class TestOptIn:
    def test_off_by_default(self, tmp_path):
        assert ledger_for(None) is None
        assert ledger_for(CompressorConfig()) is None
        repro.compress(make_field(), eb=1e-3)
        assert list(tmp_path.iterdir()) == []

    def test_config_opt_in_records_compress(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        result = repro.compress(
            make_field(), CompressorConfig(eb=1e-3, ledger=str(path))
        )
        lm.reset_ledgers()
        recs = read_ledger(path)
        assert [r["op"] for r in recs] == ["compress"]
        rec = recs[0]
        for key in RECORD_REQUIRED_KEYS:
            assert key in rec
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["pid"] == os.getpid()
        assert rec["shape"] == [48, 64]
        assert rec["dtype"] == "float32"
        assert rec["sizes"]["original_bytes"] == result.original_bytes
        assert rec["sizes"]["compressed_bytes"] == result.compressed_bytes
        assert rec["selector"]["decision"] == result.workflow
        assert rec["fingerprint"] == config_fingerprint(
            CompressorConfig(eb=1e-3)
        )

    def test_env_opt_in_records_decompress(self, tmp_path, monkeypatch):
        blob = repro.compress(make_field(), eb=1e-3).archive
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        repro.decompress(blob)
        lm.reset_ledgers()
        recs = read_ledger(path)
        assert [r["op"] for r in recs] == ["decompress"]
        assert recs[0]["sizes"]["compressed_bytes"] == len(blob)
        assert recs[0]["sizes"]["ratio"] > 1.0

    def test_ledger_does_not_change_archive(self, tmp_path):
        field = make_field()
        plain = repro.compress(field, CompressorConfig(eb=1e-3)).archive
        logged = repro.compress(
            field, CompressorConfig(eb=1e-3, ledger=str(tmp_path / "l.jsonl"))
        ).archive
        assert plain == logged

    def test_config_rejects_non_path_ledger(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="ledger"):
            CompressorConfig(ledger=123)

    def test_stage_self_times_recorded(self, tmp_path):
        from repro import telemetry as tel

        path = tmp_path / "l.jsonl"
        with tel.scope(True):  # stages come from spans; force them on
            repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        (rec,) = read_ledger(path)
        assert "quantize" in rec["stages"]
        assert all(v >= 0.0 for v in rec["stages"].values())

    def test_records_even_when_telemetry_disabled(self, tmp_path):
        from repro import telemetry as tel

        path = tmp_path / "l.jsonl"
        with tel.scope(False):
            repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        (rec,) = read_ledger(path)
        assert rec["op"] == "compress"
        assert rec["stages"] == {}  # no spans, but the record still lands
        assert rec["sizes"]["compressed_bytes"] > 0


class TestEngineBatchRecords:
    def test_parallel_compress_blocks_records_engine(self, tmp_path):
        path = tmp_path / "l.jsonl"
        cfg = CompressorConfig(eb=1e-2, eb_mode="abs", ledger=str(path))
        field = make_field(3, shape=(64, 32))
        compress_blocks(field, cfg, max_block_bytes=2048, jobs=2)
        lm.reset_ledgers()
        recs = read_ledger(path)
        batches = [r for r in recs if r["op"] == "engine_batch"]
        assert len(batches) == 1
        batch = batches[0]
        assert batch["jobs"] == 2
        assert batch["n_blocks"] > 1
        assert batch["engine"]["queue_depth_max"] >= 1
        assert batch["engine"]["worker_wall_seconds"] > 0.0
        assert batch["engine"]["worker_cpu_seconds"] >= 0.0
        # each block's compress() also wrote its own record
        assert sum(r["op"] == "compress" for r in recs) == batch["n_blocks"]

    def test_serial_compress_blocks_records_batch_without_engine(self, tmp_path):
        path = tmp_path / "l.jsonl"
        cfg = CompressorConfig(eb=1e-2, eb_mode="abs", ledger=str(path))
        compress_blocks(make_field(4), cfg, max_block_bytes=4096)
        lm.reset_ledgers()
        batch = [r for r in read_ledger(path) if r["op"] == "engine_batch"][0]
        assert batch["jobs"] == 1
        assert "engine" not in batch


class TestRotation:
    def test_rotation_shifts_generations(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path, max_bytes=400, keep=2)
        for k in range(30):
            ledger.record("compress", k=k)
        ledger.close()
        assert path.exists()
        assert path.with_name("l.jsonl.1").exists()
        assert path.with_name("l.jsonl.2").exists()
        assert not path.with_name("l.jsonl.3").exists()
        # every surviving line is intact JSON
        recs = read_ledger(path)
        ks = [r["k"] for r in recs]
        assert ks == sorted(ks)  # oldest-first across generations
        assert ks[-1] == 29

    def test_live_only_read_skips_rotated(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path, max_bytes=400, keep=2)
        for k in range(30):
            ledger.record("compress", k=k)
        ledger.close()
        live = read_ledger(path, include_rotated=False)
        everything = read_ledger(path)
        assert 0 < len(live) < len(everything)

    def test_invalid_rotation_params_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(tmp_path / "l.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            RunLedger(tmp_path / "l.jsonl", keep=0)

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path)
        ledger.record("compress", k=1)
        ledger.close()
        with open(path, "a") as fh:
            fh.write('{"not": "a ledger record"}\n')
            fh.write("garbage not json\n")
            fh.write('{"schema": "repro.ledger/v1", "ts": 1, "op": "x"')  # torn
        recs = read_ledger(path)
        assert len(recs) == 1 and recs[0]["k"] == 1


class TestFingerprint:
    def test_stable_across_observability_knobs(self):
        base = CompressorConfig(eb=1e-3)
        assert config_fingerprint(base) == config_fingerprint(
            base.with_(ledger="/tmp/x.jsonl", telemetry=False)
        )

    def test_changes_with_codec_fields(self):
        base = CompressorConfig(eb=1e-3)
        assert config_fingerprint(base) != config_fingerprint(base.with_(eb=1e-4))
        assert config_fingerprint(base) != config_fingerprint(
            base.with_(workflow="rle")
        )


class TestSpanSelfTimes:
    def test_null_span_yields_empty(self):
        assert span_self_times(None) == {}
        assert span_self_times("nope") == {}

    def test_self_excludes_children_and_aggregates_by_name(self):
        from repro import telemetry as tel

        with tel.scope(True):
            with tel.span("outer") as outer:
                with tel.span("inner"):
                    time.sleep(0.002)
                with tel.span("inner"):
                    time.sleep(0.002)
        times = span_self_times(outer)
        assert set(times) == {"outer", "inner"}
        assert times["inner"] >= 0.004 * 0.5  # two sleeps, coarse clocks
        assert times["outer"] < outer.duration  # children subtracted


class TestAggregation:
    def test_aggregate_and_render(self, tmp_path):
        from repro import telemetry as tel

        path = tmp_path / "l.jsonl"
        cfg = CompressorConfig(eb=1e-2, eb_mode="abs", ledger=str(path))
        with tel.scope(True):
            repro.compress(make_field(0), cfg)
            repro.compress(make_field(1), cfg)
            compress_blocks(make_field(2, shape=(64, 32)), cfg,
                            max_block_bytes=2048, jobs=2)
        lm.reset_ledgers()
        recs = read_ledger(path)
        report = aggregate_ledger(recs)
        assert report["schema"] == LEDGER_SCHEMA
        assert report["n_records"] == len(recs)
        assert report["ops"]["compress"] >= 2
        assert report["ops"]["engine_batch"] == 1
        assert report["engine"]["jobs_seen"] == [2]
        assert report["engine"]["queue_depth_max"] >= 1
        assert report["bytes"]["original"] > report["bytes"]["compressed"]
        assert "quantize" in report["stages"]["compress"]
        text = render_ledger_report(report)
        assert "ledger report" in text
        assert "engine_batch" in text
        assert "quantize" in text

    def test_aggregate_empty(self):
        report = aggregate_ledger([])
        assert report["n_records"] == 0
        assert report["ops"] == {}
        assert "(none)" in render_ledger_report(report)

    def test_records_json_roundtrip(self, tmp_path):
        path = tmp_path / "l.jsonl"
        repro.compress(make_field(), CompressorConfig(eb=1e-3, ledger=str(path)))
        lm.reset_ledgers()
        for line in path.read_text().splitlines():
            json.loads(line)  # every line independently parseable


class TestSharedWriter:
    def test_ledger_for_caches_by_path(self, tmp_path):
        cfg = CompressorConfig(ledger=str(tmp_path / "l.jsonl"))
        a = ledger_for(cfg)
        b = ledger_for(cfg)
        assert a is b

    def test_ledger_for_recreates_after_close(self, tmp_path):
        cfg = CompressorConfig(ledger=str(tmp_path / "l.jsonl"))
        a = ledger_for(cfg)
        a.close()
        b = ledger_for(cfg)
        assert b is not a
        b.record("compress")
        assert read_ledger(tmp_path / "l.jsonl")


class TestBatchedWrites:
    def test_records_wait_for_a_full_batch(self, tmp_path, monkeypatch):
        # Keep the flusher thread out of it: only a full batch may write.
        monkeypatch.setattr(lm, "flush_ledgers", lambda: None)
        monkeypatch.setattr(lm, "FLUSH_RECORDS", 3)
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.record("compress", k=0)
        ledger.record("compress", k=1)
        assert ledger.records_written == 0
        assert (tmp_path / "l.jsonl").read_text() == ""
        ledger.record("compress", k=2)
        assert ledger.records_written == 3
        lines = (tmp_path / "l.jsonl").read_text().splitlines()
        assert [json.loads(line)["k"] for line in lines] == [0, 1, 2]
        ledger.close()

    def test_the_flusher_writes_a_partial_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lm, "FLUSH_SECONDS", 0.05)
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path)
        ledger.record("compress", k=0)
        deadline = time.monotonic() + 10.0
        while not path.read_text() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert json.loads(path.read_text())["k"] == 0
        ledger.close()

    def test_an_in_process_read_sees_queued_records(self, tmp_path):
        cfg = CompressorConfig(eb=1e-3, ledger=str(tmp_path / "l.jsonl"))
        repro.compress(make_field(0), cfg)
        repro.compress(make_field(1), cfg)
        assert [r["op"] for r in read_ledger(tmp_path / "l.jsonl")] == [
            "compress", "compress"
        ]

    def test_process_workers_write_their_records_per_job(self, tmp_path):
        path = tmp_path / "l.jsonl"
        cfg = CompressorConfig(eb=1e-2, eb_mode="abs", ledger=str(path))
        compress_blocks(make_field(5, shape=(64, 32)), cfg,
                        max_block_bytes=2048, jobs=2, backend="process")
        # Read the file itself, not through read_ledger (which flushes this
        # process's queue): the workers' records must already be there.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        worker_records = [r for r in lines if r["pid"] != os.getpid()]
        assert len(worker_records) == 4
        assert {r["op"] for r in worker_records} == {"compress"}

    def test_concurrent_records_are_written_once_in_order(self, tmp_path, monkeypatch):
        # Small batches, a fast flusher, rotation and a tiny switch interval
        # make recorders, the flusher and rotation interleave.
        monkeypatch.setattr(lm, "FLUSH_RECORDS", 7)
        monkeypatch.setattr(lm, "FLUSH_SECONDS", 0.001)
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path, max_bytes=4096, keep=100)
        n_threads, per_thread = 8, 200

        def recorder(t):
            for k in range(per_thread):
                ledger.record("compress", t=t, k=k)

        threads = [threading.Thread(target=recorder, args=(t,)) for t in range(n_threads)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        ledger.close()
        seen = [(r["t"], r["k"]) for r in read_ledger(path)]
        assert len(seen) == n_threads * per_thread
        for t in range(n_threads):
            assert [k for u, k in seen if u == t] == list(range(per_thread))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_leaves_the_parents_queue_alone(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path)
        with tel.scope(False):
            ledger.record("parent")
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                try:
                    ledger.record("child")
                    ledger.flush()
                finally:
                    os._exit(0)
        os.waitpid(pid, 0)
        ledger.close()
        assert sorted(r["op"] for r in read_ledger(path)) == ["child", "parent"]


class TestOverheadBudget:
    def test_ledger_overhead_under_five_percent(self, tmp_path):
        """Acceptance bound: ledger writes add <5 % to compress CPU time.

        Plain and ledger batches run in interleaved pairs (which side goes
        first alternates), each timed in process CPU time
        (``time.process_time``), which leaves out time the host gives to
        other processes; the bound is on the median of the per-pair ratios,
        so drift that hits both sides of a pair cancels and no single
        batch decides.  A best-of-k wall-time bound failed on host noise
        alone while the ledger's own paired cost was about 1.7 %.
        """
        fields = [make_field(s, shape=(256, 256)) for s in range(3)]
        plain_cfg = CompressorConfig(eb=1e-3)
        ledger_cfg = plain_cfg.with_(ledger=str(tmp_path / "l.jsonl"))

        def run(cfg):
            t0 = time.process_time()
            for f in fields:
                repro.compress(f, cfg)
            return time.process_time() - t0

        run(plain_cfg), run(ledger_cfg)  # warm caches and the writer
        ratios, bases = [], []
        for pair in range(10):
            if pair % 2:
                with_ledger, base = run(ledger_cfg), run(plain_cfg)
            else:
                base, with_ledger = run(plain_cfg), run(ledger_cfg)
            ratios.append(with_ledger / base)
            bases.append(base)
        lm.reset_ledgers()
        overhead = statistics.median(ratios) - 1.0
        assert overhead <= 0.05, (
            f"ledger overhead {overhead:.1%} exceeds 5% (median of {len(ratios)} "
            f"paired CPU-time ratios; median plain batch "
            f"{statistics.median(bases) * 1e3:.1f} ms)"
        )

"""Bench harness: record schema, regression gating, profiler, diagnostics."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.diagnose import DiagnoseField, diagnose_report, render_report
from repro.bench.profiler import profile_scenario
from repro.bench.record import (
    RECORD_REQUIRED_KEYS,
    RESULT_REQUIRED_KEYS,
    SCHEMA,
    build_record,
    load_record,
    record_filename,
    validate_record,
    write_record,
)
from repro.bench.regression import PROFILES, compare_records
from repro.bench.runner import run_scenario
from repro.bench.scenarios import BenchCase, Scenario, get_scenario
from repro.cli import main


def tiny_scenario(repeats: int = 1) -> Scenario:
    """One small case -- keeps harness tests fast."""
    return Scenario(
        name="tiny",
        description="unit-test scenario",
        cases=(BenchCase("cesm_ps_tiny", "CESM", "PS", 1e-2),),
        repeats=repeats,
    )


def fixture_record(label: str = "fix") -> dict:
    """Hand-built minimal valid record for detector tests."""
    def result(case: str, tmin: float, stdev: float = 0.0) -> dict:
        return {
            "case": case, "dataset": "CESM", "field": "PS", "eb": 1e-3,
            "workflow": "auto", "repeats": 3,
            "timing": {
                "compress_total": {"mean": tmin * 1.1, "min": tmin,
                                   "max": tmin * 1.2, "stdev": stdev, "n": 3},
            },
            "quality": {"compression_ratio": 20.0, "psnr_db": 66.0,
                        "max_error": 1e-3, "bound_satisfied": True},
            "sizes": {}, "selector": {},
        }

    return build_record(
        label=label, scenario="fixture",
        results=[result("case_a", 0.100, 0.002), result("case_b", 0.050, 0.001)],
        config={"repeats": 3}, metrics={},
    )


class TestRecordSchema:
    def test_run_scenario_produces_required_keys(self):
        record = run_scenario(tiny_scenario(), repeats=1)
        for key in RECORD_REQUIRED_KEYS:
            assert key in record
        assert record["schema"] == SCHEMA
        result = record["results"][0]
        for key in RESULT_REQUIRED_KEYS:
            assert key in result
        assert "compress_total" in result["timing"]
        assert "decompress_total" in result["timing"]
        for summary in result["timing"].values():
            assert summary["n"] == 1
            assert summary["min"] <= summary["mean"] <= summary["max"]
        assert result["quality"]["bound_satisfied"] is True
        assert result["selector"]["decision"] in (
            "huffman", "rle", "rle+vle",
        )
        # environment fingerprint is populated
        assert record["environment"]["python"]
        assert record["environment"]["cpu"]

    def test_record_roundtrips_through_disk(self, tmp_path):
        record = fixture_record("disk")
        path = write_record(record, tmp_path)
        assert path.name == record_filename("disk") == "BENCH_disk.json"
        assert load_record(path) == json.loads(json.dumps(record))

    def test_validation_rejects_missing_keys(self):
        record = fixture_record()
        bad = copy.deepcopy(record)
        del bad["environment"]
        with pytest.raises(ValueError, match="environment"):
            validate_record(bad)
        bad = copy.deepcopy(record)
        del bad["results"][0]["quality"]
        with pytest.raises(ValueError, match="quality"):
            validate_record(bad)
        bad = copy.deepcopy(record)
        del bad["results"][0]["timing"]["compress_total"]["stdev"]
        with pytest.raises(ValueError, match="stdev"):
            validate_record(bad)
        bad = copy.deepcopy(record)
        bad["schema"] = "repro.bench/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_record(bad)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("nope")


class TestRegressionDetector:
    def test_identical_records_pass(self):
        rec = fixture_record()
        report = compare_records(rec, rec)
        assert report.ok and report.exit_code == 0

    def test_2x_stage_time_regression_fails(self):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 2.0
        report = compare_records(old, new)
        assert not report.ok
        assert report.exit_code == 1
        assert any(r.status == "regression" for r in report.rows)
        # the generous CI profile tolerates 2x (+100% < +150%) but not 3x
        assert compare_records(old, new, "ci").ok is True
        worse = copy.deepcopy(old)
        for result in worse["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 3.0
        assert compare_records(old, worse, "ci").ok is False

    def test_noise_widens_tolerance(self):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        # +30% on a noisy stage (cv ~0.2 -> tolerance 3*0.2=60%) is not gated
        noisy = new["results"][0]["timing"]["compress_total"]
        noisy["stdev"] = noisy["mean"] * 0.2
        old["results"][0]["timing"]["compress_total"]["stdev"] = noisy["stdev"]
        for k in ("mean", "min", "max"):
            noisy[k] *= 1.30
        rows = [r for r in compare_records(old, new).rows
                if r.case == "case_a" and r.metric == "compress_total"]
        assert rows[0].status == "ok"

    def test_micro_stage_under_floor_never_gates(self):
        old = fixture_record("old")
        for result in old["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 1e-3  # well under min_seconds
        new = copy.deepcopy(old)
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 10.0
        assert compare_records(old, new).ok

    def test_quality_regression_gates(self):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        new["results"][0]["quality"]["compression_ratio"] = 15.0  # -25%
        report = compare_records(old, new)
        assert not report.ok
        assert any(r.metric == "compression_ratio" and r.status == "regression"
                   for r in report.rows)

    def test_missing_case_is_a_regression_new_case_is_not(self):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        dropped = new["results"].pop(0)
        report = compare_records(old, new)
        assert not report.ok
        assert any(r.status == "missing" for r in report.rows)
        # the reverse direction: an extra case is informational only
        report = compare_records(new, old)
        assert report.ok
        assert any(r.status == "new" and r.case == dropped["case"]
                   for r in report.rows)

    def test_render_mentions_verdict(self):
        rec = fixture_record()
        assert "no regressions" in compare_records(rec, rec).render()
        assert set(PROFILES) == {"default", "ci"}

    def test_gated_stage_ignores_min_seconds_floor(self):
        old = fixture_record("old")
        for result in old["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max", "stdev"):
                    summary[k] *= 1e-3  # under the floor: normally demoted
        new = copy.deepcopy(old)
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 10.0
        assert compare_records(old, new).ok  # ungated: info only
        report = compare_records(old, new, gate_stages=["compress_total"])
        assert not report.ok
        assert any(r.metric == "compress_total" and r.status == "regression"
                   for r in report.rows)

    def test_gated_stage_missing_from_either_record_is_a_regression(self):
        old = fixture_record("old")
        for result in old["results"]:
            timing = result["timing"]
            timing["other_stage"] = copy.deepcopy(timing["compress_total"])
        new = copy.deepcopy(old)
        del new["results"][0]["timing"]["compress_total"]
        report = compare_records(old, new, gate_stages=["compress_total"])
        assert not report.ok
        assert any(r.metric == "compress_total" and r.status == "missing"
                   for r in report.rows)
        # Same stage absent ungated: informational only.
        assert compare_records(old, new).ok
        # A gate naming a stage neither record has must fail, not no-op.
        assert not compare_records(old, new, gate_stages=["no.such.stage"]).ok

    def test_gated_improvement_still_passes(self):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 0.2
        report = compare_records(old, new, gate_stages=["compress_total"])
        assert report.ok
        assert any(r.status == "improved" for r in report.rows)


class TestProfiler:
    def test_profile_scenario_folds_and_kernels(self):
        view, kernels = profile_scenario("smoke", repeats=1)
        names = {h.name for h in view.hotspots}
        assert "quantize" in names and "reconstruct" in names
        assert view.total_seconds > 0
        # self time never exceeds inclusive time
        for h in view.hotspots:
            assert h.self_seconds <= h.total_seconds + 1e-9
        folded = view.folded_lines()
        assert any(line.startswith("compress;") for line in folded)
        for line in folded:
            path, us = line.rsplit(" ", 1)
            assert int(us) >= 1
        # the smoke scenario's gpu workload populates kernel counters
        assert "lorenzo_construct" in kernels
        assert "GB/s" in kernels


class TestDiagnose:
    FIELDS = (
        DiagnoseField("CESM", "PS", 1e-3),      # huffman regime
        DiagnoseField("CESM", "FSDSC", 1e-2),   # rle regime
    )

    def test_predicted_bounds_hold_for_both_regimes(self):
        report = diagnose_report(self.FIELDS)
        assert report["regime_counts"]["huffman"] >= 1
        assert report["regime_counts"]["rle"] >= 1
        for entry in report["fields"]:
            assert entry["predicted_bitlen_lower"] <= entry["actual_avg_bitlen"]
            assert entry["actual_avg_bitlen"] <= entry["predicted_bitlen_upper"]
            assert entry["within_bounds"]
        assert report["all_within_bounds"]
        assert report["mispredict_total"] == 0

    def test_render_report_is_human_readable(self):
        report = diagnose_report(self.FIELDS)
        text = render_report(report)
        assert "selector estimator audit" in text
        assert "bounds hold: True" in text


class TestBenchCli:
    def test_bench_run_writes_validated_record(self, tmp_path, capsys):
        rc = main(["bench", "run", "--scenario", "smoke", "--repeats", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        record = load_record(tmp_path / "BENCH_smoke.json")
        assert {r["case"] for r in record["results"]} == {
            "cesm_ps_1e-3_auto", "cesm_fsdsc_1e-2_auto",
        }
        assert "wrote" in capsys.readouterr().out

    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        old = fixture_record("old")
        new = copy.deepcopy(old)
        new["label"] = "new"
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 2.0
        old_path = write_record(old, tmp_path)
        new_path = write_record(new, tmp_path)
        assert main(["bench", "compare", str(old_path), str(old_path)]) == 0
        assert main(["bench", "compare", str(old_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        rc = main(["bench", "compare", str(old_path), str(new_path), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["n_regressions"] >= 1

    def test_bench_compare_gate_stage_flag(self, tmp_path, capsys):
        old = fixture_record("old")
        for result in old["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max", "stdev"):
                    summary[k] *= 1e-3  # below the min-seconds floor
        new = copy.deepcopy(old)
        new["label"] = "new"
        for result in new["results"]:
            for summary in result["timing"].values():
                for k in ("mean", "min", "max"):
                    summary[k] *= 10.0
        old_path = write_record(old, tmp_path)
        new_path = write_record(new, tmp_path)
        # Without the gate the sub-floor stages are informational only.
        assert main(["bench", "compare", str(old_path), str(new_path)]) == 0
        capsys.readouterr()
        rc = main(["bench", "compare", str(old_path), str(new_path),
                   "--gate-stage", "compress_total"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_compare_rejects_invalid_record(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema": SCHEMA}))
        good = write_record(fixture_record(), tmp_path)
        assert main(["bench", "compare", str(good), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_cli_writes_folded_stacks(self, tmp_path, capsys):
        fold = tmp_path / "out.folded"
        rc = main(["profile", "--scenario", "smoke", "--top", "5",
                   "--fold", str(fold)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hotspots by self time" in out
        assert "simulated kernels" in out
        lines = fold.read_text().strip().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_diagnose_cli_json(self, capsys):
        rc = main(["diagnose", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "diagnose"
        assert payload["regime_counts"]["huffman"] >= 1
        assert payload["regime_counts"]["rle"] >= 1
        assert payload["all_within_bounds"] is True


def scaling_record(
    process_walls: dict[int, float],
    thread_walls: dict[int, float] | None = None,
    cpu_count: int | None = 8,
) -> dict:
    """Hand-built scaling-scenario record for summary/gate tests."""
    from repro.bench.scaling import scaling_summary

    def result(backend: str, jobs: int, wall: float) -> dict:
        return {
            "case": f"blocks_{backend}_j{jobs}", "dataset": "CESM",
            "field": "PS", "eb": 1e-3, "workflow": "auto", "repeats": 3,
            "timing": {
                "compress_total": {"mean": wall * 1.1, "min": wall,
                                    "max": wall * 1.2, "stdev": 0.0, "n": 3},
            },
            "quality": {"compression_ratio": 20.0, "psnr_db": 66.0,
                        "max_error": 1e-3, "bound_satisfied": True},
            "sizes": {}, "selector": {},
            "engine": {"jobs": jobs, "block_bytes": 1 << 20,
                       "backend": backend},
        }

    results = [result("process", j, w) for j, w in process_walls.items()]
    results += [result("thread", j, w)
                for j, w in (thread_walls or {}).items()]
    record = build_record(
        label="scaling", scenario="scaling",
        results=results,
        config={"repeats": 3, **scaling_summary(results)}, metrics={},
    )
    if cpu_count is None:
        record["environment"].pop("cpu_count", None)
    else:
        record["environment"]["cpu_count"] = cpu_count
    return record


class TestScalingSummaryAndGate:
    def test_summary_builds_per_backend_curves(self):
        record = scaling_record({1: 0.4, 4: 0.2}, {1: 0.4, 4: 0.38})
        summary = record["config"]["scaling"]
        process = summary["process"]
        assert [p["jobs"] for p in process["points"]] == [1, 4]
        assert process["points"][-1]["speedup"] == pytest.approx(2.0)
        assert process["max_speedup"] == pytest.approx(2.0)
        assert summary["thread"]["max_speedup"] < 1.1
        assert record["config"]["fastest_backend"] == "process"

    def test_gate_passes_on_sufficient_speedup(self):
        record = scaling_record({1: 0.4, 4: 0.2})
        from repro.bench.scaling import check_scaling_gate

        status, message = check_scaling_gate(record)
        assert status == "pass"
        assert "2.00x" in message

    def test_gate_fails_below_threshold(self):
        from repro.bench.scaling import check_scaling_gate

        record = scaling_record({1: 0.4, 4: 0.35})
        status, message = check_scaling_gate(record)
        assert status == "fail"
        assert "gate 1.50x" in message

    def test_gate_skips_on_small_hosts(self):
        from repro.bench.scaling import check_scaling_gate

        record = scaling_record({1: 0.4, 4: 0.35}, cpu_count=1)
        status, message = check_scaling_gate(record)
        assert status == "skip"
        assert "1 core" in message

    def test_gate_skips_when_cases_missing(self):
        from repro.bench.scaling import check_scaling_gate

        record = scaling_record({1: 0.4, 2: 0.3})
        status, message = check_scaling_gate(record)
        assert status == "skip"
        assert "lacks" in message

    def test_gate_cli(self, tmp_path, capsys):
        passing = write_record(scaling_record({1: 0.4, 4: 0.2}), tmp_path)
        assert main(["bench", "scaling-gate", str(passing)]) == 0
        assert "PASS" in capsys.readouterr().out
        failing = scaling_record({1: 0.4, 4: 0.38})
        failing["label"] = "scaling-fail"
        failing_path = write_record(failing, tmp_path)
        assert main(["bench", "scaling-gate", str(failing_path)]) == 1
        skipping = scaling_record({1: 0.4, 4: 0.38}, cpu_count=2)
        skipping["label"] = "scaling-skip"
        skipping_path = write_record(skipping, tmp_path)
        capsys.readouterr()
        assert main(["bench", "scaling-gate", str(skipping_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "skip"

    def test_scaling_scenario_is_registered(self):
        scenario = get_scenario("scaling")
        backends = {c.backend for c in scenario.cases}
        jobs = {c.jobs for c in scenario.cases}
        assert backends == {"thread", "process"}
        assert jobs == {1, 2, 4, 8}
        assert scenario.summary is not None

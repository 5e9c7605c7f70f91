"""Tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import save_binary

VECTOR_DIR = Path(__file__).parent / "vectors"


@pytest.fixture()
def field_file(tmp_path):
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 120)
    data = (np.sin(x)[:, None] * np.cos(x)[None, :] * 4 + rng.normal(0, 0.01, (120, 120))).astype(
        np.float32
    )
    path = tmp_path / "field.f32"
    save_binary(path, data)
    return path, data


class TestCompressDecompress:
    def test_roundtrip(self, field_file, tmp_path, capsys):
        path, data = field_file
        archive = tmp_path / "field.rpsz"
        restored = tmp_path / "restored.f32"
        assert main(["compress", str(path), "-o", str(archive),
                     "--dims", "120", "120", "--eb", "1e-3"]) == 0
        assert archive.exists()
        out = capsys.readouterr().out
        assert "workflow=" in out and "x)" in out
        assert main(["decompress", str(archive), "-o", str(restored)]) == 0
        back = np.fromfile(restored, dtype=np.float32).reshape(120, 120)
        eb = 1e-3 * float(data.max() - data.min())
        assert np.abs(data - back).max() <= eb

    def test_compress_options(self, field_file, tmp_path):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        assert main([
            "compress", str(path), "-o", str(archive), "--dims", "120", "120",
            "--eb", "0.01", "--mode", "abs", "--workflow", "rle+vle",
            "--predictor", "regression", "--dict-size", "512",
        ]) == 0

    def test_decompress_jobs_matches_serial(self, field_file, tmp_path, capsys):
        path, _ = field_file
        archive = tmp_path / "field.rpsz"
        serial = tmp_path / "serial.f32"
        threaded = tmp_path / "threaded.f32"
        assert main(["compress", str(path), "-o", str(archive),
                     "--dims", "120", "120", "--eb", "1e-3"]) == 0
        assert main(["decompress", str(archive), "-o", str(serial)]) == 0
        assert main(["decompress", str(archive), "-o", str(threaded),
                     "--jobs", "2"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_wrong_dims_fails_cleanly(self, field_file, tmp_path, capsys):
        path, _ = field_file
        rc = main(["compress", str(path), "-o", str(tmp_path / "x.rpsz"),
                   "--dims", "64", "64"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["compress", str(tmp_path / "missing.f32"),
                   "-o", str(tmp_path / "x.rpsz"), "--dims", "4"])
        assert rc == 2


class TestTelemetryFlags:
    def _compress(self, field_file, tmp_path, *extra):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        rc = main(["compress", str(path), "-o", str(archive),
                   "--dims", "120", "120", "--eb", "1e-3", *extra])
        return rc, archive

    def test_trace_writes_chrome_json(self, field_file, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        rc, _ = self._compress(field_file, tmp_path, "--trace", str(trace_path))
        assert rc == 0
        payload = json.loads(trace_path.read_text())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"compress", "quantize", "histogram", "select_workflow",
                "encode", "outliers", "archive"} <= names
        for e in spans:
            assert e["dur"] >= 0
        # byte-moving stages additionally get a throughput counter track
        assert any(e["ph"] == "C" for e in payload["traceEvents"])
        assert str(trace_path) in capsys.readouterr().out

    def test_stats_prints_stage_table(self, field_file, tmp_path, capsys):
        rc, _ = self._compress(field_file, tmp_path, "--stats")
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage timings:" in out
        assert "quantize" in out and "total" in out

    def test_decompress_trace_and_stats(self, field_file, tmp_path, capsys):
        _, archive = self._compress(field_file, tmp_path)
        trace_path = tmp_path / "d.json"
        capsys.readouterr()
        rc = main(["decompress", str(archive), "-o", str(tmp_path / "r.f32"),
                   "--trace", str(trace_path), "--stats"])
        assert rc == 0
        names = {e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]}
        assert {"decompress", "archive_read", "decode", "reconstruct"} <= names
        assert "stage timings:" in capsys.readouterr().out


class TestJsonOutput:
    def _compress_json(self, field_file, tmp_path, capsys):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        rc = main(["compress", str(path), "-o", str(archive),
                   "--dims", "120", "120", "--eb", "1e-3", "--json"])
        assert rc == 0
        return archive, json.loads(capsys.readouterr().out)

    def test_compress_json(self, field_file, tmp_path, capsys):
        archive, payload = self._compress_json(field_file, tmp_path, capsys)
        assert payload["command"] == "compress"
        assert payload["compressed_bytes"] == archive.stat().st_size
        assert payload["compression_ratio"] > 1
        assert payload["workflow"] in ("huffman", "rle", "rle+vle")
        assert "section_sizes" in payload and "stage_stats" in payload
        assert payload["diagnostics"]["decision"] == payload["workflow"]

    def test_decompress_json(self, field_file, tmp_path, capsys):
        archive, _ = self._compress_json(field_file, tmp_path, capsys)
        rc = main(["decompress", str(archive), "-o", str(tmp_path / "r.f32"),
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "decompress"
        assert payload["shape"] == [120, 120]
        assert payload["dtype"] == "float32"

    def test_info_json(self, field_file, tmp_path, capsys):
        archive, _ = self._compress_json(field_file, tmp_path, capsys)
        assert main(["info", str(archive), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == [120, 120]
        assert payload["archive_bytes"] == archive.stat().st_size
        assert sum(payload["section_sizes"].values()) <= payload["archive_bytes"]
        assert payload["format_version"] == 3
        assert payload["indexed_payload"] is True

    def test_verify_json(self, field_file, tmp_path, capsys):
        path, _ = field_file
        archive, _ = self._compress_json(field_file, tmp_path, capsys)
        assert main(["verify", str(path), str(archive),
                     "--dims", "120", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["bound_satisfied"] is True
        assert payload["max_error"] <= payload["eb_abs"]


class TestInfoVerify:
    def test_info(self, field_file, tmp_path, capsys):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        main(["compress", str(path), "-o", str(archive), "--dims", "120", "120"])
        capsys.readouterr()
        assert main(["info", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "shape      : (120, 120)" in out
        assert "sections" in out
        assert "ratio" in out
        assert "sync points" in out and "parallel-decodable" in out

    def test_info_v2_archive_reports_no_sync_points(self, capsys):
        archive = VECTOR_DIR / "v2-single-huff-f4-2d.rpsz"
        assert main(["info", str(archive), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 2
        assert payload["indexed_payload"] is False

    def test_verify_pass(self, field_file, tmp_path, capsys):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        main(["compress", str(path), "-o", str(archive), "--dims", "120", "120",
              "--eb", "1e-3"])
        capsys.readouterr()
        assert main(["verify", str(path), str(archive), "--dims", "120", "120"]) == 0
        assert "satisfied=True" in capsys.readouterr().out

    def test_verify_shape_mismatch(self, field_file, tmp_path, capsys):
        path, data = field_file
        archive = tmp_path / "f.rpsz"
        main(["compress", str(path), "-o", str(archive), "--dims", "120", "120"])
        other = tmp_path / "other.f32"
        save_binary(other, data[:60].copy())
        capsys.readouterr()
        assert main(["verify", str(other), str(archive), "--dims", "60", "120"]) == 1

    def test_info_garbage_archive(self, tmp_path):
        bad = tmp_path / "bad.rpsz"
        bad.write_bytes(b"definitely not an archive")
        assert main(["info", str(bad)]) == 2


class TestDeepVerify:
    def _archive(self, field_file, tmp_path):
        path, _ = field_file
        archive = tmp_path / "f.rpsz"
        assert main(["compress", str(path), "-o", str(archive),
                     "--dims", "120", "120", "--eb", "1e-3"]) == 0
        return path, archive

    def test_deep_verify_archive_only(self, field_file, tmp_path, capsys):
        _, archive = self._archive(field_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(archive), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "integrity OK" in out
        assert "format v3" in out

    def test_deep_verify_json(self, field_file, tmp_path, capsys):
        _, archive = self._archive(field_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(archive), "--deep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["deep"] is True
        assert payload["format_version"] == 3
        assert payload["sections_checked"] >= 1

    def test_deep_verify_detects_corruption(self, field_file, tmp_path, capsys):
        _, archive = self._archive(field_file, tmp_path)
        blob = bytearray(archive.read_bytes())
        blob[-1] ^= 0x10
        bad = tmp_path / "bad.rpsz"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify", str(bad), "--deep"]) == 2
        assert "FAIL" in capsys.readouterr().err

    def test_deep_combined_with_quality_check(self, field_file, tmp_path, capsys):
        path, archive = self._archive(field_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(path), str(archive),
                     "--dims", "120", "120", "--deep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_satisfied"] is True
        assert payload["deep_ok"] is True

    def test_verify_without_deep_needs_original(self, field_file, tmp_path, capsys):
        _, archive = self._archive(field_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(archive)]) == 2
        assert capsys.readouterr().err


class TestErrorPaths:
    """Failure modes must exit nonzero with an actionable message."""

    def _archive(self, field_file, tmp_path):
        path, _ = field_file
        archive = tmp_path / "field.rpsz"
        assert main(["compress", str(path), "-o", str(archive),
                     "--dims", "120", "120"]) == 0
        return archive

    def test_decompress_truncated_archive(self, field_file, tmp_path, capsys):
        archive = self._archive(field_file, tmp_path)
        blob = archive.read_bytes()
        cut = tmp_path / "cut.rpsz"
        cut.write_bytes(blob[: len(blob) // 3])
        capsys.readouterr()
        rc = main(["decompress", str(cut), "-o", str(tmp_path / "r.f32")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        # v2 archives fail the framing total first; a cut below the header
        # reports truncation directly.  Either way the hint names the cause.
        assert "truncated" in err or "framing mismatch" in err

    def test_decompress_wrong_kind_container(self, tmp_path, capsys):
        from repro.core.archive import ArchiveBuilder

        junk = tmp_path / "junk.rpsz"
        junk.write_bytes(
            ArchiveBuilder().add_bytes("mystery", b"\x00" * 32).to_bytes()
        )
        rc = main(["decompress", str(junk), "-o", str(tmp_path / "r.f32")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no recognizable payload" in err
        assert "mystery" in err  # the report names what *was* found

    def test_decompress_non_archive_bytes(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.rpsz"
        bogus.write_bytes(b"this is not an archive at all, not even close")
        rc = main(["decompress", str(bogus), "-o", str(tmp_path / "r.f32")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_verify_corrupted_payload_names_integrity_error(
        self, field_file, tmp_path, capsys
    ):
        archive = self._archive(field_file, tmp_path)
        blob = bytearray(archive.read_bytes())
        blob[len(blob) // 2] ^= 0x40  # payload byte: framing parses, CRC must not
        bad = tmp_path / "bad.rpsz"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify", str(bad), "--deep", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"].startswith("IntegrityError:")
        assert "checksum mismatch" in payload["error"]

    def test_deep_verify_corrupted_file_plain_output(
        self, field_file, tmp_path, capsys
    ):
        archive = self._archive(field_file, tmp_path)
        blob = bytearray(archive.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        bad = tmp_path / "bad.rpsz"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify", str(bad), "--deep"]) == 2
        err = capsys.readouterr().err
        assert "FAIL" in err
        assert "checksum mismatch" in err

    def test_conformance_check_missing_corpus_exits_nonzero(
        self, tmp_path, capsys
    ):
        rc = main(["conformance", "check", "--dir", str(tmp_path / "none")])
        assert rc == 1
        assert "conformance generate" in capsys.readouterr().out

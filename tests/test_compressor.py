"""End-to-end tests for the public compression API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import telemetry
from repro.core.config import CompressorConfig
from repro.core.errors import ArchiveError, ConfigError


def roundtrip(data, **kw):
    res = repro.compress(data, **kw)
    out = repro.decompress(res.archive)
    return res, out


class TestRoundtrip:
    @pytest.mark.parametrize("eb", [1e-2, 1e-3, 1e-4])
    def test_bound_1d(self, field_1d, eb):
        res, out = roundtrip(field_1d, eb=eb)
        assert out.shape == field_1d.shape
        assert np.abs(field_1d.astype(np.float64) - out.astype(np.float64)).max() <= res.eb_abs

    @pytest.mark.parametrize("eb", [1e-2, 1e-3, 1e-4])
    def test_bound_2d(self, field_2d, eb):
        res, out = roundtrip(field_2d, eb=eb)
        assert np.abs(field_2d.astype(np.float64) - out.astype(np.float64)).max() <= res.eb_abs

    @pytest.mark.parametrize("eb", [1e-2, 1e-3])
    def test_bound_3d(self, field_3d, eb):
        res, out = roundtrip(field_3d, eb=eb)
        assert np.abs(field_3d.astype(np.float64) - out.astype(np.float64)).max() <= res.eb_abs

    def test_4d(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 8, 10, 12)).astype(np.float32)
        res, out = roundtrip(data, eb=1e-3)
        assert out.shape == data.shape
        assert np.abs(data - out).max() <= res.eb_abs

    def test_abs_mode(self, field_2d):
        res, out = roundtrip(field_2d, eb=0.05, eb_mode="abs")
        assert res.eb_abs == 0.05
        assert np.abs(field_2d - out).max() <= 0.05

    def test_float64_dtype_preserved(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100,))
        res, out = roundtrip(data, eb=1e-5)
        assert out.dtype == np.float64
        assert np.abs(data - out).max() <= res.eb_abs

    def test_float32_dtype_preserved(self, field_1d):
        _, out = roundtrip(field_1d, eb=1e-3)
        assert out.dtype == np.float32

    def test_integer_input_rejected(self):
        with pytest.raises(ConfigError):
            repro.compress(np.arange(10), eb=1e-3)

    def test_float16_upcast(self):
        data = np.linspace(0, 1, 64, dtype=np.float16)
        res, out = roundtrip(data, eb=1e-2)
        assert out.dtype == np.float32

    def test_constant_field(self):
        data = np.full((128,), 7.25, dtype=np.float32)
        res, out = roundtrip(data, eb=1e-3)
        assert np.abs(data - out).max() <= res.eb_abs

    def test_tiny_field(self):
        data = np.array([1.0], dtype=np.float32)
        res, out = roundtrip(data, eb=1e-3)
        assert out.shape == (1,)


class TestWorkflows:
    @pytest.mark.parametrize("wf", ["huffman", "rle", "rle+vle"])
    def test_forced_workflow_roundtrip(self, sparse_field_2d, wf):
        res, out = roundtrip(sparse_field_2d, eb=1e-3, workflow=wf)
        assert res.workflow == wf
        assert np.abs(sparse_field_2d - out).max() <= res.eb_abs

    def test_auto_selects_rle_on_sparse(self, sparse_field_2d):
        res = repro.compress(sparse_field_2d, eb=1e-2)
        assert res.workflow == "rle+vle"

    def test_auto_selects_huffman_on_noise(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=(256, 256)).astype(np.float32)
        res = repro.compress(noise, eb=1e-4)
        assert res.workflow == "huffman"

    def test_rle_beats_huffman_on_sparse(self, sparse_field_2d):
        r_h = repro.compress(sparse_field_2d, eb=1e-2, workflow="huffman")
        r_r = repro.compress(sparse_field_2d, eb=1e-2, workflow="rle+vle")
        assert r_r.compression_ratio > r_h.compression_ratio

    def test_vle_after_rle_gains(self, sparse_field_2d):
        """The paper's steady 2-3x extra from VLE over run values."""
        r_rle = repro.compress(sparse_field_2d, eb=1e-2, workflow="rle")
        r_both = repro.compress(sparse_field_2d, eb=1e-2, workflow="rle+vle")
        assert r_both.compression_ratio >= r_rle.compression_ratio

    def test_huffman_cr_capped_at_symbol_width(self, sparse_field_2d):
        """Huffman alone cannot exceed 32x for float32 (1 bit/element floor)."""
        res = repro.compress(sparse_field_2d, eb=1e-2, workflow="huffman")
        # +metadata means strictly under 32.
        assert res.compression_ratio < 32.0

    def test_rle_can_exceed_huffman_cap(self, sparse_field_2d):
        res = repro.compress(sparse_field_2d, eb=1e-2, workflow="rle+vle")
        assert res.compression_ratio > 32.0

    @pytest.mark.parametrize("wf", ["huffman", "huffman+lz"])
    def test_one_histogram_pass_per_huffman_compress(self, monkeypatch, field_2d, wf):
        """The Huffman stage reuses the histogram the selector was given."""
        import repro.core.compressor as compressor_mod
        import repro.core.workflow as workflow_mod
        from repro.core.archive import ArchiveBuilder, ArchiveReader
        from repro.core.dual_quant import quantize_field
        from repro.core.workflow import emit_huffman_sections
        from repro.encoding.histogram import histogram

        calls = []

        def counting(symbols, dict_size):
            calls.append(np.asarray(symbols).size)
            return histogram(symbols, dict_size)

        monkeypatch.setattr(compressor_mod, "histogram", counting)
        monkeypatch.setattr(workflow_mod, "histogram", counting)
        cfg = CompressorConfig(eb=1e-3, workflow=wf)
        res = repro.compress(field_2d, cfg)
        assert res.workflow == wf
        assert calls == [field_2d.size]
        # Same section bytes as a Huffman stage that histograms on its own.
        bundle, _ = quantize_field(field_2d, cfg)
        builder = ArchiveBuilder()
        emit_huffman_sections(
            bundle.quant.reshape(-1), cfg.dict_size, cfg.huffman_chunk, builder,
            lz_stage=wf == "huffman+lz",
        )
        assert len(calls) == 2
        expected = ArchiveReader(builder.to_bytes())
        got = ArchiveReader(res.archive)
        for name in expected.names():
            assert got.get_bytes(name) == expected.get_bytes(name), name


class TestReporting:
    def test_result_fields(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3)
        assert res.original_bytes == field_2d.nbytes
        assert res.compressed_bytes == len(res.archive)
        assert res.compression_ratio == pytest.approx(
            field_2d.nbytes / len(res.archive)
        )
        assert res.diagnostics is not None
        assert res.workflow == res.diagnostics.decision
        assert sum(res.section_sizes.values()) <= len(res.archive)

    def test_diagnostics_reason_populated(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3)
        assert res.diagnostics.reason

    def test_compressor_class(self, field_1d):
        comp = repro.Compressor(eb=1e-3)
        res = comp.compress(field_1d)
        out = comp.decompress(res.archive)
        assert np.abs(field_1d - out).max() <= res.eb_abs

    def test_compressor_config_override(self):
        comp = repro.Compressor(CompressorConfig(eb=1e-2), workflow="huffman")
        assert comp.config.workflow == "huffman"
        assert comp.config.eb == 1e-2


class TestStageStats:
    """Both directions report a stable set of per-stage timing keys."""

    COMPRESS_KEYS = {
        "quantize_seconds", "histogram_seconds", "select_workflow_seconds",
        "encode_seconds", "outliers_seconds", "archive_seconds", "total_seconds",
    }
    DECOMPRESS_KEYS = {
        "archive_read_seconds", "decode_seconds", "scatter_outliers_seconds",
        "reconstruct_seconds", "total_seconds",
    }

    @pytest.fixture(autouse=True)
    def _telemetry_on(self):
        telemetry.set_enabled(True)
        yield
        telemetry.set_enabled(None)

    @pytest.mark.parametrize("wf", ["huffman", "rle+vle"])
    def test_compress_stage_keys_stable(self, sparse_field_2d, wf):
        res = repro.compress(sparse_field_2d, eb=1e-2, workflow=wf)
        assert self.COMPRESS_KEYS <= set(res.stage_stats)
        assert all(res.stage_stats[k] >= 0 for k in self.COMPRESS_KEYS)

    @pytest.mark.parametrize("wf", ["huffman", "rle+vle"])
    def test_decompress_stage_keys_stable(self, sparse_field_2d, wf):
        blob = repro.compress(sparse_field_2d, eb=1e-2, workflow=wf).archive
        out = repro.decompress_with_stats(blob)
        assert self.DECOMPRESS_KEYS <= set(out.stage_stats)
        assert out.workflow == wf
        assert sum(out.section_sizes.values()) <= len(blob)

    def test_decompress_with_stats_matches_decompress(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3)
        out = repro.decompress_with_stats(res.archive)
        np.testing.assert_array_equal(out.data, repro.decompress(res.archive))
        assert out.eb_abs == pytest.approx(res.eb_abs)
        assert out.predictor == res.predictor

    def test_total_bounds_stage_sum(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3)
        stages = [v for k, v in res.stage_stats.items()
                  if k.endswith("_seconds") and k != "total_seconds"]
        assert sum(stages) <= res.stage_stats["total_seconds"]

    def test_config_telemetry_flag_forces_on(self, field_2d):
        telemetry.set_enabled(False)
        res = repro.compress(field_2d, eb=1e-3, telemetry=True)
        assert "total_seconds" in res.stage_stats

    def test_config_telemetry_flag_forces_off(self, field_2d):
        res = repro.compress(field_2d, eb=1e-3, telemetry=False)
        assert not any(k.endswith("_seconds") for k in res.stage_stats)


class TestArchiveRobustness:
    def test_garbage_blob_rejected(self):
        with pytest.raises(ArchiveError):
            repro.decompress(b"not an archive at all")

    def test_truncated_archive_rejected(self, field_1d):
        res = repro.compress(field_1d, eb=1e-3)
        with pytest.raises(ArchiveError):
            repro.decompress(res.archive[: len(res.archive) // 2])

    def test_archive_is_self_contained(self, field_2d, tmp_path):
        """Write to disk, read back in a fresh call -- no shared state."""
        res = repro.compress(field_2d, eb=1e-3)
        p = tmp_path / "field.rpsz"
        p.write_bytes(res.archive)
        out = repro.decompress(p.read_bytes())
        assert np.abs(field_2d - out).max() <= res.eb_abs


class TestPropertyBased:
    @given(
        data=hnp.arrays(
            np.float32,
            st.tuples(st.integers(2, 40), st.integers(2, 40)),
            elements=st.floats(-1e4, 1e4, width=32),
        ),
        eb=st.sampled_from([1e-2, 1e-3]),
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_always_holds_2d(self, data, eb):
        res = repro.compress(data, eb=eb)
        out = repro.decompress(res.archive)
        assert np.abs(data.astype(np.float64) - out.astype(np.float64)).max() <= res.eb_abs

    @given(
        data=hnp.arrays(
            np.float32, st.integers(1, 600), elements=st.floats(-100, 100, width=32)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_always_holds_1d(self, data):
        res = repro.compress(data, eb=1e-3)
        out = repro.decompress(res.archive)
        assert np.abs(data.astype(np.float64) - out.astype(np.float64)).max() <= res.eb_abs


class TestDictionaryStage:
    """workflow='huffman+lz': the Step-9 dictionary pass, fully decodable."""

    def test_roundtrip_and_gain(self, sparse_field_2d):
        res_h = repro.compress(sparse_field_2d, eb=1e-2, workflow="huffman")
        res_lz = repro.compress(sparse_field_2d, eb=1e-2, workflow="huffman+lz")
        out = repro.decompress(res_lz.archive)
        assert np.abs(sparse_field_2d - out).max() <= res_lz.eb_abs
        assert res_lz.compression_ratio > res_h.compression_ratio
        assert "q.lz" in res_lz.section_sizes

    def test_incompressible_bitstream_falls_back(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(128, 128)).astype(np.float32)
        res = repro.compress(noise, eb=1e-4, workflow="huffman+lz")
        out = repro.decompress(res.archive)
        assert np.abs(noise - out).max() <= res.eb_abs
        # A near-entropy Huffman stream has no repeats: raw bits kept.
        assert "q.bits" in res.section_sizes
        assert res.stage_stats.get("lz_skipped") == 1.0

    def test_auto_never_selects_lz_stage(self, field_2d):
        """The adaptive rule decides between on-GPU paths only."""
        for eb in (1e-2, 1e-4):
            res = repro.compress(field_2d, eb=eb)
            assert res.workflow in ("huffman", "rle", "rle+vle")

    def test_matches_qhg_reference_regime(self, sparse_field_2d):
        """The decodable LZ stage lands in the same regime as the zlib-based
        qhg accounting (within 3x -- zlib entropy-codes its tokens)."""
        from repro.baselines import reference_ratios
        from repro.core.config import CompressorConfig

        rr = reference_ratios(sparse_field_2d, CompressorConfig(eb=1e-2))
        res = repro.compress(sparse_field_2d, eb=1e-2, workflow="huffman+lz")
        assert res.compression_ratio > rr.qhg / 3

"""Tests for dual-quantization and the cuSZ+ modified outlier scheme."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CompressorConfig
from repro.core.dual_quant import (
    dequantize,
    fuse_quant_and_outliers,
    postquantize,
    prequantize,
    quantize_field,
    reconstruct_field,
    split_deltas,
)
from repro.core.errors import ConfigError


class TestPrequant:
    def test_error_bounded(self):
        rng = np.random.default_rng(0)
        d = rng.normal(0, 10, 1000)
        eb = 0.01
        codes = prequantize(d, eb)
        np.testing.assert_array_less(np.abs(d - codes * 2 * eb), eb + 1e-12)

    def test_integer_output(self):
        codes = prequantize(np.array([0.1, 0.9, -0.5]), 0.25)
        assert codes.dtype == np.int64

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigError):
            prequantize(np.ones(3), 0.0)

    def test_rejects_overflowing_bound(self):
        with pytest.raises(ConfigError):
            prequantize(np.array([1e30]), 1e-30)

    def test_dequantize_inverts_scaling(self):
        codes = np.array([0, 1, -7, 1000], dtype=np.int64)
        out = dequantize(codes, 0.5, dtype=np.float64)
        np.testing.assert_allclose(out, codes * 1.0)

    @given(
        eb=st.floats(1e-6, 10.0),
        vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_property(self, eb, vals):
        d = np.array(vals)
        codes = prequantize(d, eb)
        assert np.all(np.abs(d - codes * 2 * eb) <= eb * (1 + 1e-9))


class TestPostquant:
    def test_in_range_deltas_become_quant_codes(self):
        dq = np.array([0, 1, 2, 3], dtype=np.int64)
        quant, oidx, oval = postquantize(dq, (4,), dict_size=16)
        assert oidx.size == 0
        # delta = [0,1,1,1] -> quant = delta + radius(8)
        np.testing.assert_array_equal(quant, [8, 9, 9, 9])

    def test_out_of_range_delta_becomes_outlier(self):
        dq = np.array([0, 1000, 1001], dtype=np.int64)
        quant, oidx, oval = postquantize(dq, (3,), dict_size=16)
        # jump of +1000 exceeds radius 8 -> outlier at index 1 with delta 1000
        np.testing.assert_array_equal(oidx, [1])
        np.testing.assert_array_equal(oval, [1000])
        assert quant[1] == 8  # neutral placeholder = radius

    def test_quant_dtype_uint16_for_default_dict(self):
        quant, _, _ = postquantize(np.zeros(4, dtype=np.int64), (4,), 1024)
        assert quant.dtype == np.uint16

    def test_quant_dtype_uint32_for_large_dict(self):
        quant, _, _ = postquantize(np.zeros(4, dtype=np.int64), (4,), 1 << 17)
        assert quant.dtype == np.uint32

    def test_capture_range_is_half_open(self):
        """delta in [-radius, radius) is captured; radius itself is not."""
        radius = 8
        dq = np.array([0, radius], dtype=np.int64)  # delta[1] = radius
        quant, oidx, oval = postquantize(dq, (2,), dict_size=2 * radius)
        np.testing.assert_array_equal(oidx, [1])
        dq2 = np.array([0, -radius], dtype=np.int64)  # delta[1] = -radius
        _, oidx2, _ = postquantize(dq2, (2,), dict_size=2 * radius)
        assert oidx2.size == 0

    @pytest.mark.parametrize("dict_size,quant_dtype", [
        (1024, np.uint16),
        (1 << 16, np.uint16),
        (1 << 17, np.uint32),
    ])
    def test_split_captures_exactly_minus_radius_to_radius(self, dict_size, quant_dtype):
        """The unsigned range test keeps -radius..radius-1 and sends the
        deltas one step outside either end to the outlier stream."""
        radius = dict_size // 2
        delta = np.array([-radius - 1, -radius, radius - 1, radius], dtype=np.int64)
        quant, oidx, oval = split_deltas(delta, dict_size)
        assert quant.dtype == quant_dtype
        np.testing.assert_array_equal(quant, [radius, 0, dict_size - 1, radius])
        np.testing.assert_array_equal(oidx, [0, 3])
        np.testing.assert_array_equal(oval, [-radius - 1, radius])
        np.testing.assert_array_equal(
            fuse_quant_and_outliers(quant, oidx, oval, radius), delta
        )

    def test_fusion_restores_deltas_exactly(self):
        rng = np.random.default_rng(1)
        dq = rng.integers(-10000, 10000, (50,)).astype(np.int64)
        quant, oidx, oval = postquantize(dq, (8,), dict_size=64)
        from repro.core.lorenzo import lorenzo_construct

        fused = fuse_quant_and_outliers(quant, oidx, oval, 32)
        np.testing.assert_array_equal(fused, lorenzo_construct(dq, (8,)))


class TestFieldRoundtrip:
    @pytest.mark.parametrize("shape", [(500,), (40, 30), (12, 10, 8)])
    def test_quantize_reconstruct_within_bound(self, shape):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 3, shape).astype(np.float32)
        config = CompressorConfig(eb=1e-3)
        bundle, eb_abs = quantize_field(data, config)
        restored = reconstruct_field(bundle, dtype=np.float32)
        assert restored.shape == data.shape
        assert np.abs(data.astype(np.float64) - restored.astype(np.float64)).max() <= eb_abs

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            quantize_field(np.zeros((0,), dtype=np.float32), CompressorConfig())

    def test_rejects_nan(self):
        bad = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(ConfigError):
            quantize_field(bad, CompressorConfig())

    def test_rejects_inf(self):
        bad = np.array([1.0, np.inf], dtype=np.float32)
        with pytest.raises(ConfigError):
            quantize_field(bad, CompressorConfig())

    def test_constant_field(self):
        data = np.full((64,), 2.5, dtype=np.float32)
        bundle, eb_abs = quantize_field(data, CompressorConfig(eb=1e-3))
        restored = reconstruct_field(bundle)
        assert np.abs(data - restored).max() <= eb_abs

    def test_outlier_fraction_small_on_smooth_data(self, field_2d):
        bundle, _ = quantize_field(field_2d, CompressorConfig(eb=1e-3))
        assert bundle.outlier_fraction < 0.01

    @pytest.mark.parametrize("shape", [(1 << 21,), (1024, 2048), (128, 128, 128)])
    def test_reconstruct_peak_memory(self, shape):
        """``reconstruct_field`` holds the fused int64 buffer (8 B/element),
        in which the partial sums run in place, and the float32 output
        (4 B/element).  Measured peak: 12.06 B/element on all three shapes;
        the bound is 12.5 B/element (26.2 MB for 2^21 elements)."""
        rng = np.random.default_rng(4)
        walk = np.cumsum(rng.normal(0, 1, 1 << 21)).reshape(shape).astype(np.float32)
        bundle, _ = quantize_field(walk, CompressorConfig(eb=1e-4))
        assert bundle.n_outliers > 0
        tracemalloc.start()
        try:
            out = reconstruct_field(bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == shape
        assert peak <= 12.5 * walk.size, f"peak {peak / walk.size:.2f} B/element"

    def test_rough_data_generates_outliers(self):
        rng = np.random.default_rng(2)
        # Huge jumps relative to the bound force out-of-range deltas.
        data = (rng.integers(0, 2, 2048) * 1000.0).astype(np.float32)
        config = CompressorConfig(eb=1e-5, eb_mode="rel", dict_size=16)
        bundle, _ = quantize_field(data, config)
        assert bundle.n_outliers > 0
        restored = reconstruct_field(bundle)
        eb_abs = config.absolute_bound(1000.0)
        assert np.abs(data - restored).max() <= eb_abs

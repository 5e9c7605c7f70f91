"""Self-tests of the benchmark: every output check can fail, and inputs repeat.

    python3 -m pytest perfbench -q

Each check is shown passing on a correct result and failing on a result
damaged in the way it guards against; the call timer is shown taking out
steal and only steal.  None of these tests starts the program; they run
in about a second.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import common
import inputs
from checks import (
    CheckFailed,
    abs_bound,
    check_codes,
    check_entropy_floor,
    check_restored,
    flip_payload_byte,
)
from service import Req, check_response


def _field_and_bound():
    x = inputs.plume((64, 96), seed=3, tag="selftest")
    return x, abs_bound(x, 1e-2)


def test_restored_within_bound_passes():
    x, bound = _field_and_bound()
    y = x.copy()
    finite = np.isfinite(y)
    y[finite] += np.float32(0.5 * bound)
    assert check_restored(x, y, bound) <= 1.0


def test_reconstruction_shifted_past_the_bound_is_caught():
    x, bound = _field_and_bound()
    y = x.copy()
    i = int(np.flatnonzero(np.isfinite(y.reshape(-1)))[17])
    y.reshape(-1)[i] += np.float32(1.01 * bound)
    with pytest.raises(CheckFailed, match="exceeds bound"):
        check_restored(x, y, bound)


def test_lost_nan_position_is_caught():
    x, bound = _field_and_bound()
    assert np.isnan(x).any()
    y = x.copy()
    i = int(np.flatnonzero(np.isnan(y.reshape(-1)))[0])
    y.reshape(-1)[i] = 0.0
    with pytest.raises(CheckFailed, match="NaN positions"):
        check_restored(x, y, bound)


def test_changed_shape_or_dtype_is_caught():
    x, bound = _field_and_bound()
    with pytest.raises(CheckFailed, match="shape"):
        check_restored(x, x.reshape(-1), bound)
    with pytest.raises(CheckFailed, match="dtype"):
        check_restored(x, x.astype(np.float64), bound)


def test_server_archive_one_byte_off_is_caught():
    archive = bytes(range(256)) * 4
    req = Req("compress", "/v1/compress", b"", "t", expect=archive)
    check_response(req, 200, [], archive)
    with pytest.raises(CheckFailed, match="server archive"):
        check_response(req, 200, [], flip_payload_byte(archive))


def test_decompress_response_is_bound_checked():
    x, bound = _field_and_bound()
    req = Req("decompress", "/v1/decompress", b"", "t", field=x, bound=bound)
    headers = [("X-Repro-Dims", "64,96"), ("X-Repro-Dtype", "f32")]
    check_response(req, 200, headers, x.tobytes())
    y = x.copy()
    y[np.isfinite(y)] += np.float32(2 * bound)
    with pytest.raises(CheckFailed):
        check_response(req, 200, headers, y.tobytes())


def test_verify_ok_on_a_corrupted_archive_is_caught():
    corrupt = Req("verify", "/v1/verify", b"", "t", intact=False)
    check_response(corrupt, 200, [], json.dumps({"ok": False}).encode())
    with pytest.raises(CheckFailed, match="corrupted"):
        check_response(corrupt, 200, [], json.dumps({"ok": True}).encode())
    intact = Req("verify", "/v1/verify", b"", "t", intact=True)
    with pytest.raises(CheckFailed, match="intact"):
        check_response(intact, 200, [], json.dumps({"ok": False}).encode())


def test_quant_codes_that_do_not_round_trip_are_caught():
    codes = np.random.default_rng(0).integers(0, 1024, size=5000).astype(np.uint16)
    check_codes(codes.copy(), codes, "same")
    bad = codes.copy()
    bad[4321] ^= 1
    with pytest.raises(CheckFailed, match="differ"):
        check_codes(bad, codes, "one flipped")
    with pytest.raises(CheckFailed):
        check_codes(codes[:-1], codes, "one short")


def test_coded_bits_below_the_entropy_are_caught():
    freqs = np.array([500, 250, 125, 125])
    assert check_entropy_floor(1750, 1000, freqs) == pytest.approx(1.75)
    with pytest.raises(CheckFailed, match="below the entropy"):
        check_entropy_floor(1700, 1000, freqs)


@pytest.mark.parametrize("make", [
    lambda s: inputs.smooth((48, 40), s, "t"),
    lambda s: inputs.velocity_1d(5000, s, "t"),
    lambda s: inputs.plateau((48, 40), s, "t"),
    lambda s: inputs.plume((48, 40), s, "t"),
    lambda s: inputs.density((20, 20, 20), s, "t"),
    lambda s: inputs.blocks_field((40, 16, 16), s),
])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make):
    a, b, c = make(7), make(7), make(8)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_fields_of_one_seed_are_independent_of_each_other():
    assert not np.array_equal(inputs.smooth((32, 32), 1, "a"), inputs.smooth((32, 32), 1, "b"))


def test_call_timer_is_wall_time_without_steal(monkeypatch):
    monkeypatch.setattr(common, "steal_s", lambda: 5.0)
    _, seconds, wall = common.timed_less_steal(time.sleep, 0.05)
    assert seconds == wall >= 0.05


def test_call_timer_takes_out_recorded_steal_down_to_cpu_time(monkeypatch):
    # 30 ms of steal recorded during a 50 ms wait: 20 ms count.
    readings = iter([5.0, 5.03])
    monkeypatch.setattr(common, "steal_s", lambda: next(readings))
    _, seconds, wall = common.timed_less_steal(time.sleep, 0.05)
    assert seconds == pytest.approx(wall - 0.03)
    # More steal than wall time leaves the (near-zero) CPU time.
    readings = iter([5.0, 9.0])
    _, seconds, wall = common.timed_less_steal(time.sleep, 0.05)
    assert 0.0 <= seconds < 0.01 < wall

"""Golden per-cycle traces of the unit state machines.

Expected values come from direct evaluation of the partial-sum definition
z_{n,i} = sum_{j<=i} w_j * s(n + f*floor(j/k) + j mod k) over the fed
stream, never from the shift-register mechanics under test.
"""

import numpy as np
import pytest

from flowcnn.oracle import ref_conv2d
from flowcnn.sim.trace import fcu_trace, kpu_trace
from flowcnn.sim.units import KpuUnit, WidthOverflow, _check_width

F, K = 5, 3
UNPADDED_VALID = [0, 1, 2, 5, 6, 7, 10, 11, 12]
# (signal, cycle offset, row, node) of the tapped partial sums
TAPS = [("a_11", 0, 0, 0), ("a_13", 2, 0, 2), ("a_21", 5, 1, 0),
        ("a_23", 7, 1, 2), ("a_31", 10, 2, 0)]


def _z(w, stream, n, i):
    total = 0
    for j in range(i + 1):
        total += int(w.flat[j]) * int(stream[n + F * (j // K) + (j % K)])
    return total


@pytest.fixture()
def ramp_weights():
    rng = np.random.default_rng(0)
    return rng.integers(-8, 8, size=(K, K))


def test_kpu_unpadded_schedule_and_values(ramp_weights):
    x = np.arange(1, 26, dtype=np.int64)
    trace = kpu_trace(F, K, 0, ramp_weights, [x])
    outs = [(t, lbl) for t, lbl, ok in trace.column("y_n") if ok]
    assert outs == [(n + 12, f"y_{n}") for n in UNPADDED_VALID]
    for row in trace.rows:
        if row.valid.get("y_n"):
            n = row.signals["y_window"]
            assert row.signals["y_value"] == _z(ramp_weights, x, n, 8)


def test_kpu_unpadded_internal_taps(ramp_weights):
    x = np.arange(1, 26, dtype=np.int64)
    trace = kpu_trace(F, K, 0, ramp_weights, [x])
    for name, off, i, m in TAPS:
        for t, label, ok in trace.column(name):
            n = t - off
            in_map = 0 <= n < 25
            expect = in_map and n // F <= 2 and n % F <= 2
            assert ok == expect, (name, t)
            if ok:
                assert label == f"z_{n},{i * K + m}"
                val = trace.rows[t].signals[f"{name}_value"]
                assert int(val) == _z(ramp_weights, x, n, i * K + m)


def test_kpu_padded_matches_reference_table(ramp_weights):
    rng = np.random.default_rng(1)
    maps = [rng.integers(-30, 30, size=25) for _ in range(2)]
    trace = kpu_trace(F, K, 1, ramp_weights, maps)
    outs = [(t, lbl) for t, lbl, ok in trace.column("y_n") if ok]
    # first map: y_0..y_24 at t = 12..36; second map starts 31 cycles later
    assert outs[:25] == [(12 + n, f"y_{n}") for n in range(25)]
    assert outs[25:] == [(43 + n, f"y_{n}") for n in range(25)]
    # padding-select column: six leading zero slots show no pads, then the
    # tuples follow the map column
    pads = trace.column("pad")
    assert [ok for _, _, ok in pads[:6]] == [False] * 6
    assert trace.rows[6].signals["pad"] == "(1,1,0)"
    assert trace.rows[10].signals["pad"] == "(0,1,1)"
    assert trace.rows[11].signals["pad"] == "(1,1,0)"
    # values equal the zero-padded convolution of each map
    for which, ref in enumerate(
            ref_conv2d(m.reshape(5, 5, 1),
                       ramp_weights.reshape(1, 1, 3, 3), None, 1, 1)
            for m in maps):
        for t, lbl, ok in trace.column("y_n"):
            if ok and (t <= 36) == (which == 0):
                n = trace.rows[t].signals["y_window"]
                assert trace.rows[t].signals["y_value"] == ref[n // 5, n % 5, 0]


def test_kpu_zero_weights_same_schedule():
    x = np.arange(1, 26, dtype=np.int64)
    trace = kpu_trace(F, K, 0, np.zeros((K, K), dtype=np.int64), [x])
    outs = [(t, lbl, trace.rows[t].signals["y_value"])
            for t, lbl, ok in trace.column("y_n") if ok]
    assert [(t, lbl) for t, lbl, _ in outs] == \
        [(n + 12, f"y_{n}") for n in UNPADDED_VALID]
    assert all(v == 0 for _, _, v in outs)


def test_kpu_interleaved_configurations():
    # two interleaved channels: each channel sees its own kernel and its own
    # pipeline; latency scales by C
    rng = np.random.default_rng(2)
    w = rng.integers(-9, 9, size=(2, K, K))
    xs = [rng.integers(-9, 9, size=25) for _ in range(2)]
    unit = KpuUnit(K, F, 2, w, p=0)
    results = {}
    for n in range(25):
        for ch in range(2):
            taps = unit.step(int(xs[ch][n]), n % F)
            t = 2 * n + ch
            wpos = t - unit.latency
            if wpos >= 0:
                wn, wch = divmod(wpos, 2)[0], wpos % 2
                results[(wn, wch)] = taps[(K - 1, K - 1)]
    for ch in range(2):
        for n in UNPADDED_VALID:
            assert results[(n, ch)] == _z(w[ch], xs[ch], n, 8)


def test_ppu_window_max():
    rng = np.random.default_rng(3)
    x = rng.integers(-100, 100, size=25)
    unit = KpuUnit(2, F, 1, None)
    got = {}
    for n in range(25):
        y = unit.step(int(x[n]))[(1, 1)]
        w = n - unit.latency
        if w >= 0:
            got[w] = y
    for n in range(25):
        r, c = divmod(n, F)
        if r <= F - 2 and c <= F - 2:
            window = [x[n], x[n + 1], x[n + 5], x[n + 6]]
            assert got[n] == max(window), n


def test_fcu_reference_timing():
    rng = np.random.default_rng(4)
    w = rng.integers(-8, 8, size=(5, 8))
    x = rng.integers(-8, 8, size=8)
    trace = fcu_trace(4, 5, 8, w, x)
    outs = [(r.cycle, r.signals["y"], r.signals["y_value"])
            for r in trace.rows if r.valid.get("y")
            and r.signals["y"].startswith("y_")]
    assert [(c, lbl) for c, lbl, _ in outs] == [(5 + i, f"y_{i}")
                                                for i in range(5)]
    for _, lbl, val in outs:
        assert val == int(w[int(lbl[2:])] @ x)
    # q recalls the first-round partials during the second round
    assert [r.signals["q"] for r in trace.rows[:5]] == [0] * 5
    assert [int(r.signals["q"]) for r in trace.rows[5:]] == \
        [int(w[i, :4] @ x[:4]) for i in range(5)]


def test_fcu_aggregated_timing():
    rng = np.random.default_rng(5)
    w = rng.integers(-8, 8, size=(4, 8))
    x = rng.integers(-8, 8, size=8)
    trace = fcu_trace(4, 4, 8, w, x, aggregate=4)
    outs = [(r.cycle, r.signals["y"], r.signals["y_value"])
            for r in trace.rows if r.valid.get("y")
            and r.signals["y"].startswith("y_")]
    # aggregation delays the first output by one cycle (9 vs 8 cycles)
    assert [(c, lbl) for c, lbl, _ in outs] == [(8 + i, f"y_{i}")
                                                for i in range(4)]
    for _, lbl, val in outs:
        assert val == int(w[int(lbl[2:])] @ x)
    # the held batch fills one lane per cycle: (-,-,-,x0), (-,-,x0,x1), ...
    assert trace.rows[0].signals["x"] == "(-,-,-,-)"
    assert trace.rows[1].signals["x"] == f"(-,-,-,{int(x[0])})"
    assert trace.rows[4].signals["x"] == \
        "(" + ",".join(str(int(v)) for v in x[:4]) + ")"


def test_fcu_zero_fixture_schedule():
    w = np.zeros((5, 8), dtype=np.int64)
    x = np.zeros(8, dtype=np.int64)
    trace = fcu_trace(4, 5, 8, w, x)
    outs = [(r.cycle, r.signals["y_value"]) for r in trace.rows
            if r.valid.get("y") and r.signals["y"].startswith("y_")]
    assert outs == [(5 + i, 0) for i in range(5)]


def test_width_overflow_detected():
    w = np.full((1, K, K), 127, dtype=np.int64)
    unit = KpuUnit(K, F, 1, w, p=0, width=16)   # 9 terms need 20 bits
    with pytest.raises(WidthOverflow):
        for n in range(25):
            unit.step(127, n % F)


def test_width_check_sees_int64_min():
    # np.abs(-2**63) stays negative, so a peak taken through np.abs misses it
    with pytest.raises(WidthOverflow, match=r"^x: \|9223372036854775808\| "):
        _check_width(np.array([-2**63, 5]), 8, "x")
    # two's complement: [-128, 128) fits 8 bits, and the message names the
    # extreme that leaves the range, or the larger one if both do
    _check_width(np.array([-128, 127]), 8, "x")
    with pytest.raises(WidthOverflow, match=r"^x: \|129\| "):
        _check_width(np.array([-129, 5]), 8, "x")
    with pytest.raises(WidthOverflow, match=r"^x: \|128\| "):
        _check_width(np.array([-128, 128]), 8, "x")
    with pytest.raises(WidthOverflow, match=r"^x: \|130\| "):
        _check_width(np.array([-130, 129]), 8, "x")
    with pytest.raises(WidthOverflow, match=r"^x: \|128\| "):
        _check_width(128, 8, "x")
    _check_width(-128, 8, "x")
    # at 64 bits every int64 fits
    _check_width(np.array([-2**63, 2**63 - 1]), 64, "x")


def test_kpu_trailing_dims_match_scalar():
    rng = np.random.default_rng(6)
    w = rng.integers(-9, 9, size=(1, K, K))
    xs = rng.integers(-9, 9, size=(25, 3))    # three trials
    stacked = KpuUnit(K, F, 1, w.reshape(1, K, K, 1), p=0)
    scalars = [KpuUnit(K, F, 1, w, p=0) for _ in range(3)]
    for n in range(25):
        ys = stacked.step(xs[n], n % F)[(K - 1, K - 1)]
        for t in range(3):
            yt = scalars[t].step(int(xs[n, t]), n % F)[(K - 1, K - 1)]
            assert yt == ys[t]

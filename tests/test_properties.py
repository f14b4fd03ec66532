"""Invariant suites, runnable standalone: rate conservation, register
invariance under rate, the fully parallel limit, monotone KPU halving,
padding equivalence and byte-level determinism."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from flowcnn.alloc import alloc_conv, plan_network
from flowcnn.cost import kpu_cost, accumulator_cost, sweep_rates
from flowcnn.models import random_network
from flowcnn.netspec import LayerKind, parse_network, serialize_network
from flowcnn.oracle import (gen_network_weights, gen_random, ref_conv2d,
                            weights_to_json)
from flowcnn.rate import output_valid, valid_output_positions
from flowcnn.sim.engine import simulate_network

POW2_RATES = [Fraction(8), Fraction(4), Fraction(2), Fraction(1),
              Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

geometry = st.tuples(
    st.sampled_from([8, 12, 16, 20, 28]),          # f
    st.sampled_from([1, 3, 5, 7]),                 # k
    st.sampled_from([2, 4, 8]),                    # d_in
    st.sampled_from([4, 8, 16, 32]),               # d_out
)


@settings(max_examples=40, deadline=None)
@given(geometry)
def test_register_count_invariant_under_rate(geo):
    f, k, d_in, d_out = geo
    if k > f:
        return
    rows = sweep_rates(f, k, (k - 1) // 2, d_in, d_out,
                       [r for r in POW2_RATES if r <= d_in])
    regs = {row.vector.registers for row in rows if not row.stalled}
    assert len(regs) == 1


@settings(max_examples=40, deadline=None)
@given(geometry)
def test_fully_parallel_limit(geo):
    f, k, d_in, d_out = geo
    alloc = alloc_conv(LayerKind.CONV, d_in, d_out, Fraction(d_in))
    assert alloc.c == 1 and alloc.i == 1
    assert alloc.n_units == d_in * d_out
    assert kpu_cost(k, f, alloc.c).mux2 == 0


@settings(max_examples=40, deadline=None)
@given(geometry)
def test_monotone_kpu_halving(geo):
    _, _, d_in, d_out = geo
    rate = Fraction(d_in)
    while rate / 2 >= Fraction(1, d_out) * 2:   # stay above the stall bound
        hi = alloc_conv(LayerKind.CONV, d_in, d_out, rate)
        lo = alloc_conv(LayerKind.CONV, d_in, d_out, rate / 2)
        if hi.continuity_break or lo.continuity_break:
            return
        assert hi.n_units == 2 * lo.n_units
        rate = rate / 2


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.sampled_from([1, 3, 5]), st.integers(0, 2),
       st.sampled_from([1, 2, 3]))
def test_valid_count_closed_form(f, k, p, s):
    p = min(p, (k - 1) // 2)
    if k > f + 2 * p:
        return
    brute = [n for n in range(f * f) if output_valid(n, f, k, s, p)]
    assert valid_output_positions(f, k, s, p).tolist() == brute


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_parse_serialize_identity(seed):
    spec = random_network(seed)
    assert parse_network(serialize_network(spec)) == spec


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500), st.sampled_from([3, 5]), st.sampled_from([1, 2]))
def test_padding_equivalence(seed, k, d):
    """A simulated padded layer equals the zero-padded convolution and,
    for non-degenerate borders, differs from the unpadded one."""
    f = 6
    spec = parse_network({
        "input": {"height": f, "width": f, "channels": d},
        "layers": [{"kind": "conv", "k": k, "s": 1, "p": (k - 1) // 2,
                    "d_out": d}],
    })
    weights = gen_network_weights(spec, seed)
    x = gen_random((f, f, d), seed + 1, 8)
    res = simulate_network(plan_network(spec), weights, x)
    got = res.outputs[0]
    padded = ref_conv2d(x, weights["L0"]["w"], weights["L0"]["b"], 1,
                        (k - 1) // 2)
    assert np.array_equal(got.reshape(padded.shape), padded)
    unpadded = ref_conv2d(x, weights["L0"]["w"], weights["L0"]["b"], 1, 0)
    interior = padded[(k - 1) // 2: f - (k - 1) // 2,
                      (k - 1) // 2: f - (k - 1) // 2]
    assert np.array_equal(interior, unpadded)
    if np.any(x[0]) or np.any(x[-1]):
        border = padded[0]
        assert border.shape[0] > unpadded.shape[1]


def _run_once(seed):
    spec = random_network(seed)
    weights = gen_network_weights(spec, seed)
    h, w, c = spec.input_shape
    x = gen_random((h, w, c), seed + 1, 8)
    res = simulate_network(plan_network(spec), weights, x,
                           collect_events=True)
    blob = {
        "outputs": [o.tolist() for o in res.outputs],
        "events": res.events,
        "weights": weights_to_json(weights),
        "stats": [res.stats.cycles, res.stats.first_output_latency,
                  res.stats.fifo_peaks],
    }
    return json.dumps(blob, sort_keys=True).encode()


def test_determinism_byte_identical():
    for seed in (3, 11):
        assert _run_once(seed) == _run_once(seed)


def test_rate_conservation_random_specs():
    from flowcnn.rate import propagate_rates
    for seed in (0, 1, 2, 3):
        spec = random_network(seed)
        plan = plan_network(spec)
        weights = gen_network_weights(spec, seed)
        h, w, c = spec.input_shape
        x = gen_random((h, w, c), seed, 8)
        res = simulate_network(plan, weights, x)
        infos = propagate_rates(spec)
        for sim, entry, info in zip(res.layers, plan.layers, infos):
            count = sim.values[0].shape[0] * sim.values[0].shape[1]
            assert count == entry.layer.f_out ** 2 * entry.layer.d_out
            ly = entry.layer
            if ly.s == 1 and (ly.p == (ly.k - 1) // 2):
                stream_cycles = Fraction(ly.feature_count) / info.r_in
                assert Fraction(count) == info.r_out * stream_cycles


def test_accumulator_scaling_linear():
    # adders (KPU trees plus accumulation) scale linearly with the KPU count
    base = None
    for r in (Fraction(8), Fraction(4), Fraction(2), Fraction(1)):
        alloc = alloc_conv(LayerKind.CONV, 8, 16, r)
        total = (kpu_cost(7, 28, alloc.c).adders * alloc.n_units
                 + accumulator_cost(16, alloc.accumulators,
                                    alloc.n_units).adders)
        per_kpu = Fraction(total, alloc.n_units)
        if base is None:
            base = per_kpu
        assert per_kpu == base

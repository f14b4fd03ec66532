"""Invariant suites, runnable standalone: rate conservation, register
invariance under rate, the fully parallel limit, monotone KPU halving,
padding equivalence, byte-level determinism, and the integer rate and
pricing formulas against their Fraction and part-list references."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute_force as ref
from brute_force import output_valid
from flowcnn import rate
from flowcnn.alloc import AllocError, alloc_conv, plan_network, plan_to_dict
from flowcnn.cost import (SCOPES, _accumulator_counts, _kpu_counts,
                          layer_cost, sweep_rates)
from flowcnn.models import data_path, mobilenet_v1, random_network
from flowcnn.netspec import (LayerKind, LayerSpec, NetworkSpec,
                             load_network_file, parse_network,
                             serialize_network)
from flowcnn.oracle import (gen_network_weights, gen_random, ref_conv2d,
                            weights_to_json)
from flowcnn.rate import valid_output_positions
from flowcnn.sim.engine import signal_events, simulate_network

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
    assert _kpu_counts(k, f, alloc.c)[3] == 0    # mux2


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
    res = simulate_network(plan_network(spec), weights, x)
    blob = {
        "outputs": [o.tolist() for o in res.outputs],
        "events": signal_events(spec, res),
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
        total = (_kpu_counts(7, 28, alloc.c)[0] * alloc.n_units
                 + _accumulator_counts(16, alloc.accumulators,
                                       alloc.n_units)[0])
        per_kpu = Fraction(total, alloc.n_units)
        if base is None:
            base = per_kpu
        assert per_kpu == base


# Positive rates: ints, and fractions above and below 1 drawn with a common
# factor that `Fraction` reduces away
rates = st.one_of(
    st.integers(1, 64),
    st.builds(lambda n, d, g: Fraction(n * g, d * g), st.integers(1, 300),
              st.integers(1, 300), st.integers(1, 6)))
layers = st.builds(
    lambda kind, f, k, s, d_in, d_out: LayerSpec(kind, f, min(k, f), s, 0,
                                                 d_in, d_out),
    st.sampled_from(list(LayerKind)), st.integers(1, 16), st.integers(1, 5),
    st.integers(1, 3), st.integers(1, 40), st.integers(1, 40))


@settings(max_examples=300)
@given(layers, rates)
def test_integer_rate_formulas_equal_fraction_reference(ly, r):
    args = ly.kind, ly.d_in, ly.d_out, r
    assert rate.interleave_count(ly.kind, ly.d_out, r) \
        == ref.interleave_count(ly.kind, ly.d_out, r)
    assert rate.config_count(*args) == ref.config_count(*args)
    out = rate.output_rate(ly.d_in, ly.d_out, r, ly.s)
    want = ref.output_rate(ly.d_in, ly.d_out, r, ly.s)
    assert (out, type(out)) == (want, type(want))
    info, expected = rate.classify_flow(ly, r), ref.classify_flow(ly, r)
    assert info == expected
    assert type(info.r_out) is type(expected.r_out)
    assert type(info.utilization) is type(expected.utilization)


@settings(max_examples=150)
@given(layers.filter(lambda ly: ly.kind in rate.WINDOW_KINDS), rates)
def test_integer_plan_equals_fraction_reference(ly, r):
    """A one-layer window network at input rate r: its plan rows and cycle
    budget are those of the Fraction formulas, and a rate above one pixel
    per cycle is refused."""
    spec = NetworkSpec([ly], (ly.f, ly.f, ly.d_in), r)
    if r > ly.d_in:
        with pytest.raises(AllocError, match="above one pixel"):
            plan_network(spec)
        return
    plan = plan_network(spec)
    assert plan.cycle_budget == ref.cycle_budget(plan)
    info = ref.classify_flow(ly, r)
    c = ref.config_count(ly.kind, ly.d_in, ly.d_out, r)
    got = plan_to_dict(plan)
    row = got["layers"][0]
    assert (row["r_in"], row["r_out"], row["flow"], row["utilization"],
            row["configs"]) == (str(r), str(info.r_out), info.flow.value,
                                str(info.utilization), c)
    outrun = info.flow is not rate.Flow.STALLED and r * c > ly.d_in
    assert any("outrun" in w for w in got["warnings"]) == outrun
    assert any("stalls" in w for w in got["warnings"]) \
        == (info.flow is rate.Flow.STALLED)


def _plans(spec):
    """The pipelined plan and its variants, with the fully parallel plan
    that the `parallel` scope prices; a variant that cannot be allocated
    is left out."""
    parallel = plan_network(spec, parallel=True)
    variants = [plan_network(spec), parallel]
    for kwargs in ({"shared_pointwise_streams": True}, {"min_h": 4}):
        try:
            variants.append(plan_network(spec, **kwargs))
        except AllocError:
            pass
    return variants, parallel


def _assert_pricing_equals_parts_reference(spec):
    variants, parallel = _plans(spec)
    for plan in variants:
        for name, scope in SCOPES.items():
            priced = parallel if name == "parallel" else plan
            for idx, entry in enumerate(priced.layers):
                producer = priced.layers[idx - 1] if idx else None
                assert layer_cost(entry, scope, producer) \
                    == ref.layer_cost(entry, scope, producer), \
                    (name, spec.layer_name(idx))


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_pricing_equals_parts_reference_random(seed):
    _assert_pricing_equals_parts_reference(random_network(seed))


@pytest.mark.parametrize("spec", [
    *(load_network_file(data_path(name)) for name in (
        "running_example.json", "sweep_conv.json", "sweep_separable.json")),
    *(mobilenet_v1(alpha) for alpha in (0.25, 0.5, 0.75, 1.0)),
], ids=["running_example", "sweep_conv", "sweep_separable",
        "mbv1-025", "mbv1-050", "mbv1-075", "mbv1-100"])
def test_pricing_equals_parts_reference_shipped(spec):
    _assert_pricing_equals_parts_reference(spec)

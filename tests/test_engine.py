from fractions import Fraction

import numpy as np
import pytest

from flowcnn.alloc import plan_network
from flowcnn.models import random_network, running_example
from flowcnn.netspec import parse_network
from flowcnn.oracle import gen_network_weights, gen_random, ref_network
from flowcnn.rate import Flow, propagate_rates, valid_output_count
from flowcnn.sim.engine import SimConfigError, simulate_network


def _spec(layers, h=8, c=1, rate=None, w=None):
    return parse_network({
        "input": {"height": h, "width": w or h, "channels": c,
                  "rate": str(rate if rate is not None else c)},
        "quant": {"weight_bits": 8, "activation_bits": 8},
        "layers": layers,
    })


def _check(spec, seed=0, maps=1):
    plan = plan_network(spec)
    weights = gen_network_weights(spec, seed)
    h, w, c = spec.input_shape
    xs = [gen_random((h, w, c), seed + 100 + m, 8) for m in range(maps)]
    res = simulate_network(plan, weights, xs)
    for m, x in enumerate(xs):
        ref = ref_network(spec, weights, x)
        got = res.outputs[m].reshape(ref.shape)
        assert np.array_equal(got, ref), f"map {m} diverged"
    return res


def test_single_conv_padded():
    # d_in = 2 at rate 2, the first layer fed straight from the input
    spec = _spec([{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4}], c=2)
    for seed in (0, 3):
        _check(spec, seed=seed)


def test_single_conv_unpadded():
    _check(_spec([{"kind": "conv", "k": 3, "s": 1, "p": 0, "d_out": 3}], c=1))


def test_single_conv_strided():
    _check(_spec([{"kind": "conv", "k": 3, "s": 2, "p": 1, "d_out": 4}], c=2))


def test_conv_interleaved_configs():
    # d_in=4 at rate 2: C=2 configurations per KPU
    _check(_spec([{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 8}],
                 c=4, rate=2))


def test_conv_shared_kpu_low_rate():
    # rate 1/2 on a 2-channel layer: I=2 output channels share one KPU
    _check(_spec([{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4}],
                 c=2, rate="1/2"))


def test_maxpool_layer():
    _check(_spec([{"kind": "maxpool", "k": 2, "s": 2}], c=4))


def test_maxpool_k3_s3():
    _check(_spec([{"kind": "maxpool", "k": 3, "s": 3}, ], h=9, c=2))


def test_avgpool_lowered_bitexact():
    _check(_spec([{"kind": "avgpool", "k": 2, "s": 2}], c=3))
    _check(_spec([{"kind": "avgpool", "k": 3, "s": 3}], h=9, c=2))


def test_depthwise_layer():
    _check(_spec([{"kind": "dw_conv", "k": 3, "s": 1, "p": 1}], c=4))


def test_separable_pair():
    _check(_spec([{"kind": "dw_separable", "k": 3, "s": 1, "p": 1,
                   "d_out": 8}], c=4))


def test_separable_strided():
    _check(_spec([{"kind": "dw_separable", "k": 3, "s": 2, "p": 1,
                   "d_out": 4}], c=2))


def test_fc_layer():
    _check(_spec([{"kind": "fc", "d_out": 5}], h=4, c=2))


def test_fc_chain():
    _check(_spec([{"kind": "fc", "d_out": 8}, {"kind": "fc", "d_out": 4}],
                 h=4, c=1))


def test_conv_pool_fc_stack():
    _check(_spec([
        {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
        {"kind": "maxpool", "k": 2, "s": 2},
        {"kind": "fc", "d_out": 5},
    ], c=1))


def test_running_example_bitexact(rex_spec):
    _check(rex_spec, seed=7)


def test_back_to_back_maps(rex_spec):
    _check(rex_spec, seed=3, maps=2)


def test_padding_reuse_between_maps():
    # both maps of a padded conv must be right; the trailing zeros of map 0
    # double as the top padding of map 1
    _check(_spec([{"kind": "conv", "k": 5, "s": 1, "p": 2, "d_out": 2}],
                 c=1), maps=3)


def test_valid_output_counts_per_map(rex_spec):
    plan = plan_network(rex_spec)
    weights = gen_network_weights(rex_spec, 1)
    xs = [gen_random((24, 24, 1), 50 + m, 8) for m in range(2)]
    res = simulate_network(plan, weights, xs)
    for sim, entry in zip(res.layers, plan.layers):
        ly = entry.layer
        expected = valid_output_count(ly.f, ly.k, ly.s, ly.p) * ly.d_out
        for m in range(2):
            assert sim.values[m].shape[0] * sim.values[m].shape[1] == expected


def test_rate_conservation_measured(rex_spec):
    # valid outputs per map equal r_out times the stream cycles one map
    # occupies at the layer input (d_in * f^2 / r_in), for every layer
    plan = plan_network(rex_spec)
    weights = gen_network_weights(rex_spec, 1)
    xs = [gen_random((24, 24, 1), 60 + m, 8) for m in range(2)]
    res = simulate_network(plan, weights, xs)
    infos = propagate_rates(rex_spec)
    for sim, entry, info in zip(res.layers, plan.layers, infos):
        count = sim.values[0].shape[0] * sim.values[0].shape[1]
        stream_cycles = Fraction(entry.layer.feature_count) / info.r_in
        assert Fraction(count) == info.r_out * stream_cycles


def test_utilization_c2_is_one(rex_spec):
    plan = plan_network(rex_spec)
    weights = gen_network_weights(rex_spec, 1)
    xs = [gen_random((24, 24, 1), 70 + m, 8) for m in range(3)]
    res = simulate_network(plan, weights, xs)
    assert res.stats.utilization[0] == 1   # C1 (fully parallel)
    assert res.stats.utilization[2] == 1   # C2
    # FIFOs never leave data behind in steady state
    for sim in res.layers:
        assert sim.fifo_final == 0


def test_fifo_peak_on_stride_burst_link(rex_spec):
    # P1 emits 8 simultaneous valid outputs every 2 cycles during active
    # rows; smoothing them to C2's steady 2/cycle needs a 52-deep transient
    # backlog on a single map, far above the one-register-per-channel cost
    # figure
    plan = plan_network(rex_spec)
    weights = gen_network_weights(rex_spec, 1)
    res = simulate_network(plan, weights, gen_random((24, 24, 1), 90, 8))
    assert res.stats.fifo_peaks[2] == 52
    assert res.stats.fifo_peaks == [51, 8, 52, 16, 32]


def test_stalled_layer_utilization_half():
    # the sweep geometry at rate 1/32: interleaving cannot restore the flow
    # and the single KPU sits idle half the cycles
    spec = _spec([{"kind": "conv", "k": 7, "s": 1, "p": 3, "d_out": 16}],
                 h=28, c=8, rate="1/32")
    infos = propagate_rates(spec)
    assert infos[0].flow is Flow.STALLED
    assert infos[0].utilization == Fraction(1, 2)
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 2)
    xs = [gen_random((28, 28, 8), 80 + m, 8) for m in range(2)]
    res = simulate_network(plan, weights, xs)
    assert res.stats.utilization[0] == Fraction(1, 2)
    ref = ref_network(spec, weights, xs[0])
    assert np.array_equal(res.outputs[0].reshape(ref.shape), ref)


def test_trial_batched_matches_scalar(rex_spec):
    trials = 4
    per_trial = [gen_network_weights(rex_spec, 200 + t) for t in range(trials)]
    stacked = {
        name: {"w": np.stack([pt[name]["w"] for pt in per_trial], axis=-1),
               "b": np.stack([pt[name]["b"] for pt in per_trial], axis=-1)}
        for name in per_trial[0]}
    xs = np.stack([gen_random((24, 24, 1), 300 + t, 8)
                   for t in range(trials)], axis=-1)
    plan = plan_network(rex_spec)
    res = simulate_network(plan, stacked, xs)
    for t in range(trials):
        ref = ref_network(rex_spec, per_trial[t], xs[..., t])
        assert np.array_equal(res.outputs[0][..., t].reshape(ref.shape), ref)


def test_truncate_mode_matches_oracle():
    spec = _spec([
        {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
        {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
    ], c=2)
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 5)
    x = gen_random((8, 8, 2), 6, 8)
    res = simulate_network(plan, weights, x, truncate=True)
    ref = ref_network(spec, weights, x, truncate=True)
    assert np.array_equal(res.outputs[0].reshape(ref.shape), ref)
    assert np.abs(res.outputs[0]).max() <= 128


def test_residual_rejected_by_simulator():
    spec = parse_network({
        "input": {"height": 4, "width": 4, "channels": 2},
        "layers": [
            {"kind": "pw_conv", "d_out": 2},
            {"kind": "residual_add", "residual_source": 0},
        ],
    })
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 0)
    x = gen_random((4, 4, 2), 0, 8)
    with pytest.raises(SimConfigError, match="residual"):
        simulate_network(plan, weights, x)


def test_missing_weights_rejected(rex_spec):
    plan = plan_network(rex_spec)
    x = gen_random((24, 24, 1), 0, 8)
    with pytest.raises(SimConfigError, match="no weights"):
        simulate_network(plan, {}, x)


def test_random_networks_equivalence_sample():
    for seed in range(5):
        spec = random_network(seed)
        _check(spec, seed=seed)


def test_fixture_seed0_reproduced():
    # the checked-in fixture was generated once by the reference inference;
    # both routes must keep reproducing it bit-exactly
    import json
    from flowcnn.models import data_path, running_example
    from flowcnn.oracle import weights_from_json

    with open(data_path("fixture_seed0.json")) as fh:
        fixture = json.load(fh)
    spec = running_example()
    weights = weights_from_json(json.dumps(fixture["weights"]))
    x = np.asarray(fixture["input"], dtype=np.int64)
    expected = fixture["expected_logits"]
    assert ref_network(spec, weights, x).reshape(-1).tolist() == expected
    res = simulate_network(plan_network(spec), weights, x)
    assert res.outputs[0].reshape(-1).tolist() == expected


def test_fcu_aggregation_in_network():
    # min_h above h_max forces input aggregation; values stay exact
    spec = _spec([{"kind": "fc", "d_out": 4}], h=4, c=2, rate=1)
    plan = plan_network(spec, min_h=4)
    unit = plan.layers[0].unit
    assert unit.a > 1 and unit.h >= 4
    weights = gen_network_weights(spec, 1)
    x = gen_random((4, 4, 2), 2, 8)
    res = simulate_network(plan, weights, x)
    ref = ref_network(spec, weights, x)
    assert np.array_equal(res.outputs[0].reshape(ref.shape), ref)
    # aggregation adds latency over the unaggregated plan
    base = simulate_network(plan_network(spec, min_h=1), weights, x)
    assert res.stats.first_output_latency >= base.stats.first_output_latency


def test_pointwise_sized_conv_kernel():
    # k=1 declared as a standard conv still runs on the KPU path
    _check(_spec([{"kind": "conv", "k": 1, "s": 1, "p": 0, "d_out": 4}], c=2))


def test_stalled_depthwise_network():
    # rate 1/2 into a depthwise layer: interleaving cannot restore the flow;
    # outputs stay exact and the measured idle fraction matches the analysis
    spec = _spec([{"kind": "dw_conv", "k": 3, "s": 1, "p": 1}], c=2,
                 rate="1/2")
    infos = propagate_rates(spec)
    assert infos[0].flow is Flow.STALLED
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 4)
    xs = [gen_random((8, 8, 2), 40 + m, 8) for m in range(2)]
    res = simulate_network(plan, weights, xs)
    for m, x in enumerate(xs):
        ref = ref_network(spec, weights, x)
        assert np.array_equal(res.outputs[m].reshape(ref.shape), ref)
    assert res.stats.utilization[0] == infos[0].utilization == Fraction(1, 2)


def test_trial_axis_with_unstacked_weights(rex_spec):
    # inputs carry a trial axis while weights and biases stay shared
    weights = gen_network_weights(rex_spec, 8)
    xs = np.stack([gen_random((24, 24, 1), 500 + t, 8) for t in range(3)],
                  axis=-1)
    res = simulate_network(plan_network(rex_spec), weights, xs)
    for t in range(3):
        ref = ref_network(rex_spec, weights, xs[..., t])
        assert np.array_equal(res.outputs[0][..., t].reshape(ref.shape), ref)

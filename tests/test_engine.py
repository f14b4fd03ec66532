import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from brute_force import fifo_peak
from flowcnn.alloc import AllocError, FcuAllocation, plan_network
from flowcnn.models import (data_path, mobilenet_v1, random_network,
                            running_example)
from flowcnn.netspec import LayerKind, load_network_file, parse_network
from flowcnn.oracle import (gen_network_weights, gen_random, ref_network,
                            wrap_to_width)
from flowcnn.rate import (Flow, map_stream, pad_gates, propagate_rates,
                          valid_output_positions)
from flowcnn.sim import engine
from flowcnn.sim.engine import (SimConfigError, _chain, _fifo_stats,
                                _input_layer, _paced, _product_gates,
                                _stream_windows, _window_values,
                                signal_events, simulate_network)
from flowcnn.sim.units import FcuUnit, KpuUnit, WidthOverflow, _check_width


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
        expected = ly.f_out ** 2 * ly.d_out
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


def test_truncated_run_keeps_each_layer_output():
    # a layer's record holds what it produced; only its consumer and the
    # outputs read it wrapped to the 8-bit activation width
    spec = running_example()
    weights = gen_network_weights(spec, 0)
    xs = [gen_random(spec.input_shape, m, 8) for m in range(2)]
    res = simulate_network(plan_network(spec), weights, xs, truncate=True)
    assert any(sim.values.min() < -128 or sim.values.max() > 127
               for sim in res.layers)
    last = wrap_to_width(res.layers[-1].values, 8)
    assert np.array_equal(last.reshape(res.outputs.shape), res.outputs)


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


def _slot_mismatches(spec):
    """(layer, planned C, slots per stream position the engine schedules)
    for every KPU and PPU layer whose two counts differ."""
    plan = plan_network(spec)
    res = simulate_network(plan, gen_network_weights(spec, 0),
                           gen_random(spec.input_shape, 0, 8), truncate=True)
    out = []
    for entry, sim in zip(plan.layers, res.layers):
        if entry.n_kpu or entry.n_ppu:
            prefix, period = map_stream(entry.layer.f, entry.layer.p)
            slots = sim.busy[-1] // (period + prefix)
            if slots != entry.configs:
                out.append((entry.index, entry.configs, slots))
    return out


def test_planned_configs_are_engine_slots():
    for spec in [running_example()] + [random_network(s) for s in range(20)]:
        assert _slot_mismatches(spec) == []


@pytest.mark.parametrize("layer, c, rate", [
    ({"kind": "dw_conv", "k": 3, "p": 1}, 8, "3/2"),           # C 4 = 4 * 1
    ({"kind": "conv", "k": 3, "p": 1, "d_out": 16}, 8, "2/5"),  # C 24 = 8 * 3
])
def test_planned_configs_are_engine_slots_at_fractional_rates(layer, c, rate):
    assert _slot_mismatches(_spec([layer], c=c, rate=rate)) == []


FRACTIONAL_RATES = [Fraction(r) for r in (
    "1/3", "2/5", "3/4", "8/9", "1", "10/9", "3/2", "5/3", "19/10", "5/2",
    "7/3", "16/9")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([{"kind": "conv", "k": 3, "p": 1},
                        {"kind": "dw_conv", "k": 3, "p": 1},
                        {"kind": "maxpool", "k": 2, "s": 2}]),
       st.integers(1, 16), st.integers(1, 16),
       st.sampled_from(FRACTIONAL_RATES))
def test_planned_configs_are_engine_slots_property(layer, d_in, d_out, rate):
    # the plan's C is the slot count the engine runs per stream position,
    # and comparing r_in * C with d_in says whether the C slots leave idle
    # cycles in the d_in/r_in pace (stalled) or overrun it (warned)
    assume(rate <= d_in)
    if layer["kind"] == "conv":
        layer = dict(layer, d_out=d_out)
    spec = _spec([layer], h=4, c=d_in, rate=rate)
    assert _slot_mismatches(spec) == []
    entry = plan_network(spec).layers[0]
    load = rate * entry.configs
    assert (entry.rate.flow is Flow.STALLED) == (load < d_in)
    assert any("outrun" in w for w in entry.warnings) == (load > d_in)


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


def _stream_clock_loop(readies, glen, pace):
    """Position starts stepped one position at a time with an exact clock."""
    schedule, cursor, clock = [], 0, Fraction(-1)
    for ready in readies:
        clock += pace
        if ready >= 0:
            clock = max(clock, Fraction(ready))
        start = max(cursor, math.floor(clock) + 1)
        schedule.append(start)
        cursor = start + glen
    return schedule


# pace = d_in / r_in >= 1 because a layer never takes more than d_in
# features per cycle; ready -1 marks a padding position
@settings(max_examples=200, deadline=None)
@given(readies=st.lists(st.integers(-1, 500), min_size=1, max_size=80),
       glen=st.integers(1, 16),
       pace=st.fractions(min_value=1, max_value=40, max_denominator=64))
def test_schedule_closed_form_matches_stream_clock(readies, glen, pace):
    got = _chain(_paced(np.array(readies, dtype=np.int64), pace), glen)
    assert got.tolist() == _stream_clock_loop(readies, glen, pace)


def test_mobilenet_025_truncated_bitexact():
    spec = mobilenet_v1(0.25)
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 1)
    x = gen_random((224, 224, 3), 2, 8)
    res = simulate_network(plan, weights, x, truncate=True)
    ref = ref_network(spec, weights, x, truncate=True)
    assert np.array_equal(res.outputs[0].reshape(ref.shape), ref)


def _with_width(plan, idx, width):
    """The plan with layer idx's allocation rebuilt at another width."""
    plan.layers[idx] = replace(plan.layers[idx], acc_width=width)
    return plan


def _overflow_case(layers, h, c, x, w, width):
    spec = _spec(layers, h=h, c=c)
    plan = _with_width(plan_network(spec), 0, width)
    weights = {} if w is None else \
        {"L0": {"w": w, "b": np.zeros(w.shape[0], dtype=np.int64)}}
    return simulate_network(plan, weights, x.reshape(h, h, c))


@pytest.mark.parametrize("layer, w", [
    ({"kind": "conv", "k": 3, "s": 1, "p": 0, "d_out": 1},
     np.full((1, 1, 3, 3), 127, dtype=np.int64)),
    ({"kind": "dw_conv", "k": 3, "s": 1, "p": 0},
     np.full((1, 3, 3), 127, dtype=np.int64)),
], ids=["conv", "dw_conv"])
def test_width_overflow_kpu_checks_invalid_windows(layer, w):
    # valid windows reach 3*127*127 = 48,387; windows straddling two rows
    # read three +127 taps per row and reach 145,161, which needs 19 bits
    x = np.tile([127, -127, -127, 127, 127], 5)
    with pytest.raises(WidthOverflow, match="^L0: KPU window sum"):
        _overflow_case([layer], 5, 1, x, w, 18)
    res = _overflow_case([layer], 5, 1, x, w, 19)
    assert np.abs(res.outputs[0]).max() == 48387


def test_width_overflow_ppu():
    layers = [{"kind": "maxpool", "k": 2, "s": 2}]
    x = np.full(32, 127)
    with pytest.raises(WidthOverflow, match="^L0: PPU window max"):
        _overflow_case(layers, 4, 2, x, None, 7)
    _overflow_case(layers, 4, 2, x, None, 8)


def test_width_overflow_fcu_checks_running_sums():
    # the output is 0, but the running sum passes 2*127*127 = 32,258
    layers = [{"kind": "fc", "d_out": 1}]
    x = np.array([127, 127, -127, -127])
    w = np.full((1, 4), 127, dtype=np.int64)
    with pytest.raises(WidthOverflow, match="^L0: FCU accumulation"):
        _overflow_case(layers, 2, 1, x, w, 15)
    res = _overflow_case(layers, 2, 1, x, w, 16)
    assert res.outputs[0].ravel().tolist() == [0]


def test_signal_events_skip_only_layers_no_string_matches():
    spec = running_example()
    res = simulate_network(plan_network(spec), gen_network_weights(spec, 1),
                           gen_random((24, 24, 1), 1, 8))
    every = signal_events(spec, res)
    # names, a name across its suffix, suffix-only strings and a miss
    for wanted in (("F1",), ("P", "C2"), ("2.y[1",), ("y[0,",), ("1]",),
                   ("x",)):
        assert signal_events(spec, res, wanted) == \
            [e for e in every if any(w in e[1] for w in wanted)]


def test_width_overflow_checks_channel_accumulation():
    # C2's windows fit 27 bits on the running example, but their sums over
    # its 8 input channels reach |109,652,235| before the bias: 28 bits
    spec = running_example()
    weights = gen_network_weights(spec, 0)
    x = gen_random((24, 24, 1), 0, 8)
    with pytest.raises(WidthOverflow, match=r"^C2: KPU channel accumulation: "
                       r"\|109652235\| does not fit signed 27-bit"):
        simulate_network(_with_width(plan_network(spec), 2, 27), weights, x)
    simulate_network(_with_width(plan_network(spec), 2, 28), weights, x)


@pytest.mark.parametrize("tail", [[], [{"kind": "fc", "d_out": 2}]])
def test_shared_pointwise_plan_rejected(tail):
    # FCUs time-multiplexing several output channels are priced by the
    # planner, but the engine emits one neuron set per FCU
    spec = _spec([{"kind": "pw_conv", "d_out": 8}] + tail, h=4, c=4, rate=4)
    plan = plan_network(spec, shared_pointwise_streams=True)
    unit = plan.layers[0].unit
    assert unit.n_fcu * unit.h < 8
    weights = gen_network_weights(spec, 0)
    with pytest.raises(SimConfigError, match="^L0: .* of 8 channels"):
        simulate_network(plan, weights, gen_random((4, 4, 4), 1, 8))


def test_input_maps_of_different_trial_shapes_rejected():
    spec = _spec([{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 2}], h=4)
    plan = plan_network(spec)
    weights = gen_network_weights(spec, 0)
    x = gen_random((4, 4, 1), 1, 8)
    trials = np.stack([x] * 3, axis=-1)
    for maps, match in (([x, trials], "trial axes"),
                        ([trials, x], "trial axes"),
                        ([], "^no input maps$")):
        with pytest.raises(SimConfigError, match=match):
            simulate_network(plan, weights, maps)


def _conv_avgpool():
    return _spec([{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 2},
                  {"kind": "avgpool", "k": 2, "name": "A1"}], h=4)


WRONG_PARAMETERS = [
    (running_example, "C1", "w", (8, 1, 3, 3),
     "C1: weights of shape (8, 1, 3, 3), expected (8, 1, 5, 5) or "
     "(8, 1, 5, 5, 2)"),
    (running_example, "C2", "w", (4, 8, 5, 5),
     "C2: weights of shape (4, 8, 5, 5), expected (16, 8, 5, 5) or "
     "(16, 8, 5, 5, 2)"),
    (running_example, "F1", "b", (10, 3),
     "F1: bias of shape (10, 3), expected (10,) or (10, 2)"),
    # a max pool has no kernel, and a lowered average pool has its constant
    # one but no bias: neither may be run as a convolution
    (running_example, "P1", "w", (8, 8, 2, 2),
     "P1: the layer takes no weights"),
    (_conv_avgpool, "A1", "b", (2,), "A1: the layer takes no bias"),
]


# the ids pytest would form from every parameter but the network
@pytest.mark.parametrize(
    "make_spec, layer, field, shape, message", WRONG_PARAMETERS,
    ids=[f"{layer}-{field}-shape{i}-{message}"
         for i, (_, layer, field, _, message) in enumerate(WRONG_PARAMETERS)])
def test_weights_of_the_wrong_shape_rejected(make_spec, layer, field, shape,
                                             message):
    spec = make_spec()
    weights = gen_network_weights(spec, 0)
    weights.setdefault(layer, {})[field] = np.zeros(shape, dtype=np.int64)
    x = np.stack([gen_random(spec.input_shape, t, 8) for t in range(2)],
                 axis=-1)
    with pytest.raises(SimConfigError) as exc:
        simulate_network(plan_network(spec), weights, x)
    assert str(exc.value) == message


def _conv_stream(f, k, s, p, n_maps):
    """The engine's stream layout for one conv layer: the positions of the
    map pixels (n_maps, f*f) behind the lat leading zeros, the column gate
    table, and the positions where the valid windows complete."""
    prefix, period = map_stream(f, p)
    lat = (k - 1) * (f + 1)
    map_base = np.arange(n_maps)[:, None] * period
    x_pos = lat + prefix + map_base + np.arange(f * f)
    gate = np.ones((lat + prefix + n_maps * period, k), dtype=np.int64)
    gate[x_pos] = np.tile(pad_gates(f, k, p), (f, 1))
    return x_pos, gate, lat + map_base + valid_output_positions(f, k, s, p)


def _stepped_windows(kind, values, w, gate, f, p, x_pos):
    """Every (ch, oc) pair's window at every stream position from stepped
    units: (n_pos, d_in, oc per channel, *TS).  One KpuUnit per input
    channel carries the channel's output channels and the trials on its
    trailing axes; a pool's unit is a KpuUnit without weights."""
    k = gate.shape[1]
    lat = (k - 1) * (f + 1)
    ts = values.shape[3:]
    # the input and the map column (-1: a zero) streaming in at each position
    xs = np.zeros((len(gate) - lat,) + values.shape[2:], dtype=np.int64)
    xs[x_pos - lat] = values
    cols = np.full(len(xs), -1)
    cols[x_pos - lat] = np.arange(f * f) % f
    wins = []
    for ch in range(values.shape[2]):
        if kind == "maxpool":
            unit = KpuUnit(k, f, 1, None, p)
        else:
            kern = w[:, ch] if kind == "conv" else w[ch][None]
            kern = np.moveaxis(kern, 0, 2)                  # (k, k, oc, ...)
            if kern.ndim == 3:                              # shared weights
                kern = kern.reshape(kern.shape + (1,) * len(ts))
            unit = KpuUnit(k, f, 1, kern[None], p)
        steps = [unit.step(xs[t, ch], None if col < 0 else col)
                 for t, col in enumerate(cols)]
        wins.append([np.reshape(taps[(k - 1, k - 1)], (-1,) + ts)
                     for taps in steps])
    return np.array(wins, dtype=np.int64).swapaxes(0, 1)


def _pair_checked(kind, wins, win_pos, bits):
    """The stepped windows width-checked pair by pair in (ch, oc) order, then
    summed over input channels (conv) or kept per channel at the valid
    positions."""
    where = "PPU window max" if kind == "maxpool" else "KPU window sum"
    for ch in range(wins.shape[1]):
        for oc in range(wins.shape[2]):
            _check_width(wins[:, ch, oc], bits, where)
    valid = wins[win_pos]
    return valid.sum(axis=2) if kind == "conv" else valid[:, :, :, 0]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except WidthOverflow as exc:
        return None, str(exc)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["conv", "dw_conv", "maxpool"]),
       k=st.sampled_from([1, 2, 3, 5]), extra=st.integers(0, 3),
       pad=st.integers(0, 2), s=st.integers(1, 3), d_in=st.integers(1, 3),
       d_out=st.integers(1, 4), n_maps=st.integers(1, 3),
       trials=st.sampled_from([(), (2,), (2, 3)]), stacked=st.booleans(),
       bits=st.integers(6, 24), chunk=st.sampled_from([1, 100, 1 << 18]),
       seed=st.integers(0, 2**16))
def test_stepped_units_match_window_formula(kind, k, extra, pad, s, d_in,
                                            d_out, n_maps, trials, stacked,
                                            bits, chunk, seed):
    # small chunks split the stream into many chunks of positions; the
    # border width p is any of 0..(k-1)//2, for a max pool too
    real_chunk = engine.CHUNK_ELEMENTS
    engine.CHUNK_ELEMENTS = chunk
    try:
        p = pad % ((k - 1) // 2 + 1)
        _check_window_values(kind, k, k + extra, p, s, d_in, d_out, n_maps,
                             trials, stacked, bits, seed)
    finally:
        engine.CHUNK_ELEMENTS = real_chunk


@pytest.mark.parametrize("s", [1, 2])
def test_padded_max_pool_takes_the_zero_of_an_outside_tap(s):
    # documents fix a max pool's padding at 0, but a PPU gates an outside
    # tap's column to zero like a KPU: a border window's max includes it
    for seed in range(4):
        _check_window_values("maxpool", 3, 5, 1, s, 2, 1, 2, (), False, 24,
                             seed)


def _check_window_values(kind, k, f, p, s, d_in, d_out, n_maps, trials,
                         stacked, bits, seed):
    rng = np.random.default_rng(seed)
    x_pos, gate, win_pos = _conv_stream(f, k, s, p, n_maps)
    values = rng.integers(-128, 128, size=(n_maps, f * f, d_in) + trials)
    shape = {"conv": (d_out, d_in, k, k), "dw_conv": (d_in, k, k)}.get(kind)
    w = None if shape is None else \
        rng.integers(-128, 128, size=shape + (trials if stacked else ()))
    grouped = w[:, None] if kind == "dw_conv" else w    # the engine's layout
    wins = _stepped_windows(kind, values, w, gate, f, p, x_pos)

    # every pair's window array, at every stream position, invalid windows
    # and map seams included, channel by channel
    for ch in range(d_in):
        got = _stream_windows(values, grouped, f, k, p, ch)
        assert np.array_equal(got, wins[:, ch])

    # the results at the valid positions, and the same width check firing
    # on the same pair with the same message
    got, err = _outcome(_window_values, values, grouped, f, k, s, p, bits)
    want, want_err = _outcome(_pair_checked, kind, wins, win_pos, bits)
    assert err == want_err
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


def _product_dtype(values, w):
    """The dtype half of `_product_gates`."""
    return _product_gates(values, w, None)[0]


def test_product_dtype_at_the_exact_bound():
    # float64 adds integers exactly below 2**53: the bound max|x| * max over
    # (oc, ch) of sum |w[oc, ch]| picks float64 below it and int64 from it
    one = np.array([1, -1])
    assert _product_dtype(one, np.full((1, 1, 1, 1), 2**53 - 1)) is np.float64
    assert _product_dtype(one, np.full((1, 1, 1, 1), 2**53)) is np.int64
    x = np.array([[3, -2**26]])
    w = np.array([[[[2**26, -(2**26 - 1)]]], [[[-1, 1]]]])
    assert _product_dtype(x, w) is np.float64        # 2**26 * (2**27 - 1)
    w[1, 0, 0] = [-2**25, 2**25]
    assert _product_dtype(x, w) is np.float64        # 2**26 * 2**26
    w[0, 0, 0, 1] = -2**26
    assert _product_dtype(x, w) is np.int64          # 2**26 * 2**27
    # weights whose |w| sums leave int64 are summed exactly as well
    assert _product_dtype(np.zeros(1, dtype=np.int64),
                          np.full((1, 1, 1, 1), -2**63)) is np.float64
    assert _product_dtype(one, np.full((1, 1, 2, 2), 2**62)) is np.int64
    # a max of taps (no kernel) is bounded by max|x| alone
    assert _product_dtype(np.array([3, -(2**53 - 1)]), None) is np.float64
    assert _product_dtype(np.array([2**53, -3]), None) is np.int64


@pytest.mark.parametrize("x, w, bits, dtype, scan", [
    # the pair bound max|x| * max sum |w[oc, ch]| against 2**(bits-1)
    ([127, -1], np.ones((1, 1, 1, 1)), 8, np.float64, False),
    ([-128, 1], np.ones((1, 1, 1, 1)), 8, np.float64, True),
    ([1], np.array([[[[1, 1]]], [[[64, -64]]]]), 8, np.float64, True),
    ([1], np.array([[[[1, 1]]], [[[63, -64]]]]), 8, np.float64, False),
    ([3], np.full((1, 1, 1, 1), 2**61), 63, np.int64, True),
    ([3], np.full((1, 1, 1, 1), 2**61), 64, np.int64, False),
    ([3], np.full((1, 1, 1, 1), 2**61), None, np.int64, False),
    # a max lies between the least and the greatest tap, zero included
    ([127, -128], None, 8, np.float64, False),
    ([128, 3], None, 8, np.float64, True),
    ([-129, -3], None, 8, np.float64, True),
    # the dtype gate sums the pair bound over the input channels: 2**52
    # per pair, 2**53 over d_in = 2
    ([2**52], np.ones((3, 2, 1, 1)), None, np.int64, False),
    ([2**52 - 1], np.ones((3, 2, 1, 1)), 54, np.float64, False),
    ([2**52], np.ones((3, 2, 1, 1)), 53, np.int64, True),
])
def test_product_gates_at_the_exact_edges(x, w, bits, dtype, scan):
    w = None if w is None else w.astype(np.int64)
    assert _product_gates(np.array(x), w, bits) == (dtype, scan)


@pytest.mark.parametrize("sign, low, message", [
    (1, -128, None),     # the bound reaches 2**7, no window does
    (-1, -127, None),    # the bound stays below 2**7: no scan
    (-1, -128, "KPU window sum: |128| does not fit signed 8-bit"),
])
def test_width_check_fires_only_on_a_window_at_the_edge(sign, low, message):
    x = np.random.default_rng(6).integers(low, 128, size=16)
    x[5] = low
    w = np.full((1, 1, 1, 1), sign, dtype=np.int64)
    layer = {"kind": "conv", "k": 1, "d_out": 1}
    if message is None:
        res = _overflow_case([layer], 4, 1, x, w, 8)
        assert res.outputs[0].ravel().tolist() == (sign * x).tolist()
    else:
        with pytest.raises(WidthOverflow) as exc:
            _overflow_case([layer], 4, 1, x, w, 8)
        assert str(exc.value) == f"L0: {message}"


@pytest.mark.parametrize("layer", [
    {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 3},
    {"kind": "dw_conv", "k": 3, "s": 1, "p": 1},
    {"kind": "maxpool", "k": 2, "s": 2},
], ids=lambda layer: layer["kind"])
def test_conv_past_the_exact_bound_wraps_like_int64(layer):
    # values near +-2**60: the bound passes 2**53 and the windows run in
    # int64, wrapping mod 2**64 as the delay lines and ref_network do
    spec = _spec([layer], h=4, c=2)
    plan = _with_width(plan_network(spec), 0, 64)
    weights = gen_network_weights(spec, 3)
    rng = np.random.default_rng(4)
    x = rng.integers(2**60 - 2**20, 2**60, size=(4, 4, 2)) \
        * rng.choice([-1, 1], size=(4, 4, 2))
    kind, ly = layer["kind"], spec.layers[0]
    w = weights.get("L0", {}).get("w")
    grouped = w[:, None] if kind == "dw_conv" else w
    assert _product_dtype(x, grouped) is np.int64
    res = simulate_network(plan, weights, x)
    ref = ref_network(spec, weights, x)
    assert np.array_equal(res.outputs[0].reshape(ref.shape), ref)

    x_pos, gate, win_pos = _conv_stream(4, ly.k, ly.s, ly.p, 1)
    values = x.reshape(1, 16, 2)
    wins = _stepped_windows(kind, values, w, gate, 4, ly.p, x_pos)
    assert np.array_equal(
        _window_values(values, grouped, 4, ly.k, ly.s, ly.p, 64),
        _pair_checked(kind, wins, win_pos, 64))
    if kind == "conv":
        # the centre window's exact sum leaves int64; all three paths wrap it
        exact = int(weights["L0"]["b"][0]) + sum(
            int(x[r, c, i]) * int(w[0, i, r, c])
            for r in range(3) for c in range(3) for i in range(2))
        assert not -2**63 <= exact < 2**63
        assert (exact + 2**63) % 2**64 - 2**63 == ref[1, 1, 0]


def _stepped_fcu_layer(entry, feed, w, width):
    """A fully connected or pointwise layer's sums from one stepped FcuUnit
    per FCU, (n_maps * n_pixels, d_out), and the peak |running sum| after
    each batch.  FCU u computes neurons u*h + sl; its weight bank holds
    w[u*h + sl, batch] at configuration b*h + sl; the features come in the
    producer's chan_order, every pixel of every map on the units' trailing
    axis."""
    ly, unit = entry.layer, entry.unit
    j, h = unit.j, unit.h
    n_maps, feed_pixels = feed.arrivals.shape[:2]
    n_pixels = feed_pixels if ly.kind == LayerKind.PW_CONV else 1
    per_vector = feed_pixels // n_pixels
    batches = np.array([pn * ly.d_in + ch for pn in range(per_vector)
                        for ch in feed.chan_order]).reshape(-1, j)
    x = feed.values.reshape(n_maps * n_pixels, per_vector * ly.d_in).T
    sums = np.zeros((x.shape[1], ly.d_out), dtype=np.int64)
    peaks = [0] * len(batches)
    for u in range(unit.n_fcu):
        bank = np.stack([w[u * h + sl, batch]
                         for batch in batches for sl in range(h)])
        fcu = FcuUnit(j, h, len(bank), bank[:, :, None], width)
        for b, batch in enumerate(batches):
            for sl in range(h):
                _, y = fcu.step(x[batch], first_round=b == 0)
                peaks[b] = max(peaks[b], int(np.abs(y).max()))
        # the last round leaves every neuron's final sum in the buffer
        sums[:, u * h:(u + 1) * h] = np.array(fcu.buffer).T
    return sums, peaks


def _fcu_cases():
    for seed in range(30):
        for min_h in (1, 2, 3):
            yield random_network(seed), min_h
    yield running_example(), 1
    yield running_example(), 10


def test_stepped_fcus_match_fcu_datapath():
    compared = 0
    for spec, min_h in _fcu_cases():
        try:
            plan = plan_network(spec, min_h=min_h)
        except AllocError:
            continue          # no FCU sizing meets min_h
        weights = gen_network_weights(spec, min_h)
        xs = [gen_random(spec.input_shape, min_h + m, 8) for m in range(2)]
        res = simulate_network(plan, weights, xs)
        feeds = [_input_layer(np.stack(xs), plan.layers[0].rate.r_in)] \
            + res.layers
        for entry, feed, sim in zip(plan.layers, feeds, res.layers):
            if not isinstance(entry.unit, FcuAllocation):
                continue
            name = spec.layer_name(entry.index)
            w, bias = weights[name]["w"], weights[name]["b"]
            sums, peaks = _stepped_fcu_layer(entry, feed, w, None)
            assert np.array_equal(sums + bias,
                                  sim.values.reshape(sums.shape))
            compared += sums.size
            # a width one bit short of the peak running sum: both raise, the
            # engine at the first batch whose running sums leave the width
            bits = max(peaks).bit_length()
            with pytest.raises(WidthOverflow, match="^FCU accumulation"):
                _stepped_fcu_layer(entry, feed, w, bits)
            first = next(p for p in peaks if p >= 1 << (bits - 1))
            with pytest.raises(WidthOverflow) as exc:
                simulate_network(_with_width(plan, entry.index, bits),
                                 weights, xs)
            assert str(exc.value) == (f"{name}: FCU accumulation: |{first}| "
                                      f"does not fit signed {bits}-bit")
            plan.layers[entry.index] = entry
    assert compared > 10_000


@st.composite
def _fifo_stamps(draw):
    """(arrivals, departures, j): a FIFO of (maps, pixels, groups * j)
    entries whose groups of j leave together, each at least one cycle after
    the group's last arrival.  Arrivals and waits spread over a reach of
    0 to 32 cycles per entry, so spans fall on both sides of COUNT_SPAN."""
    maps, pixels, groups, j = (draw(st.integers(1, hi)) for hi in (3, 4, 4, 3))
    n = maps * pixels * groups * j
    reach = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16, 32, 64])) * n // 2
    base = draw(st.integers(0, 1 << 40))
    arrivals = base + draw(arrays(np.int64, (maps, pixels, groups, j),
                                  elements=st.integers(0, reach)))
    waits = draw(arrays(np.int64, (maps, pixels, groups),
                        elements=st.integers(1, reach + 1)))
    departures = arrivals.max(axis=3) + waits
    return arrivals.reshape(maps, pixels, groups * j), departures, j


@settings(max_examples=300, deadline=None)
@given(_fifo_stamps())
def test_fifo_peak_matches_the_event_walk(fifo):
    arrivals, departures, j = fifo
    assert _fifo_stats(arrivals, departures, j) == fifo_peak(
        arrivals.ravel().tolist(), np.repeat(departures, j).tolist())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1 << 40), st.integers(0, 1 << 40),
       st.lists(st.integers(1, 1 << 40), min_size=2, max_size=2))
def test_fifo_peak_of_two_entries_near_2_62(first, back, waits):
    # a span near 2**62 cycles leaves the sort as the only rule that can
    # run: a count would need an array of about 2**62 int64s
    arrivals = np.array([first, (1 << 62) - back])
    departures = arrivals + waits
    assert _fifo_stats(arrivals, departures) == fifo_peak(
        arrivals.tolist(), departures.tolist())


def _recorded_run(spec, maps, truncate):
    """simulate_network on seeded weights and maps, with every FIFO
    recorded as (arrivals, one departure stamp per entry, peak)."""
    fifos, real = [], engine._fifo_stats

    def record(arrivals, departures, per_departure=1):
        peak = real(arrivals, departures, per_departure)
        fifos.append((arrivals, np.repeat(departures, per_departure), peak))
        return peak

    weights = gen_network_weights(spec, 5)
    xs = [gen_random(spec.input_shape, 50 + m, 8) for m in range(maps)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_fifo_stats", record)
        res = simulate_network(plan_network(spec), weights, xs, truncate)
    return res, fifos


@pytest.fixture(scope="module")
def simulated_population():
    """(name, result, FIFOs) for the shipped network documents, random
    networks run for 1 to 3 maps and MobileNetV1-0.25 truncated."""
    cases = [(doc, load_network_file(data_path(doc)), 2, False)
             for doc in ("running_example.json", "sweep_conv.json",
                         "sweep_separable.json")]
    cases += [(f"random_network({seed})", random_network(seed),
               1 + seed % 3, False) for seed in range(12)]
    cases.append(("mobilenet_v1(0.25)", mobilenet_v1(0.25), 1, True))
    return [(name, *_recorded_run(spec, maps, truncate))
            for name, spec, maps, truncate in cases]


def test_fifo_peaks_of_simulated_networks_match_the_event_walk(
        simulated_population):
    for name, res, fifos in simulated_population:
        assert [peak for *_, peak in fifos] == res.stats.fifo_peaks, name
        for idx, (arrivals, departures, peak) in enumerate(fifos):
            assert peak == fifo_peak(arrivals.ravel().tolist(),
                                     departures.tolist()), (name, idx)


def test_every_layer_emits_in_its_chan_order(simulated_population):
    # each pixel's outputs leave in chan_order, pixel after pixel: an FCU
    # layer fed by this one batches its features in that order
    for name, res, _ in simulated_population:
        for idx, sim in enumerate(res.layers):
            stamps = sim.arrivals[:, :, sim.chan_order].reshape(
                -1, len(sim.chan_order))
            assert (np.diff(stamps, axis=1) >= 0).all(), (name, idx)
            assert (stamps[1:, 0] >= stamps[:-1, -1]).all(), (name, idx)

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from flowcnn.alloc import (AllocError, ConvAllocation, FcuAllocation,
                           alloc_conv, plan_network, plan_to_dict, size_fcu)
from flowcnn.cost import _accumulator_counts
from flowcnn.models import mobilenet_v1, random_network, running_example
from flowcnn.netspec import LayerKind, LayerSpec, QuantFormat, parse_network
from flowcnn.rate import Flow, classify_flow, config_count, interleave_count

CONV, DW, POOL = LayerKind.CONV, LayerKind.DW_CONV, LayerKind.MAXPOOL


def test_alloc_conv_interleaved():
    a = alloc_conv(CONV, 8, 16, Fraction(2))
    assert (a.c, a.i, a.n_units) == (4, 1, 32)
    assert a.accumulators == 16
    # each accumulator sums ceil(32 / 16) = 2 KPU outputs per cycle
    assert _accumulator_counts(16, a.accumulators, a.n_units)[0] == 16 * 2


def test_alloc_conv_low_rate_shares_kpus():
    a = alloc_conv(CONV, 8, 16, Fraction(1, 2))
    assert (a.c, a.i, a.n_units) == (16, 2, 8)


def test_alloc_conv_single_input_channel():
    a = alloc_conv(CONV, 1, 8, Fraction(1))
    assert (a.c, a.i, a.n_units) == (1, 1, 8)
    assert a.accumulators == 0  # single kernel, nothing to accumulate


def test_alloc_conv_stall_cap():
    a = alloc_conv(CONV, 8, 16, Fraction(1, 32))
    assert a.c == 128


def test_alloc_conv_depthwise():
    for r, units, c in ((Fraction(2), 2, 4), (Fraction(8), 8, 1),
                        (Fraction(1, 2), 1, 8)):
        a = alloc_conv(DW, 8, 8, r)
        assert (a.n_units, a.c, a.i, a.accumulators) == (units, c, 1, 0)


def test_size_fcu_running_example_head():
    a = size_fcu(256, 10, Fraction(4, 9))
    assert (a.j, a.h, a.n_fcu, a.c) == (4, 5, 2, 320)


def test_size_fcu_fully_parallel():
    a = size_fcu(8, 16, Fraction(8))
    assert (a.j, a.h, a.n_fcu) == (8, 1, 16)


def test_size_fcu_aggregation_for_pipeline_depth():
    a = size_fcu(8, 4, Fraction(1), min_h=4)
    assert (a.a, a.j, a.h, a.n_fcu, a.c) == (4, 4, 4, 1, 8)


def test_size_fcu_indivisible_features():
    with pytest.raises(AllocError, match="not realisable"):
        size_fcu(10, 4, Fraction(4))


def test_size_fcu_pointwise_modes():
    general = size_fcu(8, 16, Fraction(2))
    assert (general.j, general.h, general.n_fcu) == (2, 1, 16)
    shared = size_fcu(8, 16, Fraction(2), shared_pointwise_streams=True)
    assert shared.n_fcu == 8 and shared.c == general.c * 2
    low = size_fcu(8, 16, Fraction(1, 2))
    assert (low.j, low.h, low.n_fcu) == (1, 2, 8)
    # h > 1 already shares each FCU between output channels
    deep = size_fcu(6, 16, Fraction(3, 2))
    assert (deep.h, deep.n_fcu) == (2, 8)
    assert size_fcu(6, 16, Fraction(3, 2), shared_pointwise_streams=True) \
        == deep


def _size_fcu_by_search(d_in, d_out, r_in, min_h, shared):
    """Reference FCU sizing: raise the aggregation a one step at a time
    until some divisor of d_out at least min_h fits under a * h_max."""
    j_max, h_max = r_in.numerator, r_in.denominator
    a = 1
    while True:
        feasible = [h for h in range(1, min(a * h_max, d_out) + 1)
                    if d_out % h == 0 and h >= min_h]
        if feasible:
            break
        a += 1
    h, j = max(feasible), a * j_max
    if d_in % j:
        return None
    n_fcu, c = d_out // h, h * d_in // j
    share = math.gcd(math.ceil(r_in), n_fcu) if shared and h == 1 else 1
    return FcuAllocation(j=j, h=h, a=a, n_fcu=n_fcu // share, c=c * share)


def test_size_fcu_closed_form_matches_search():
    # d_out with few and many divisors, rates above and below one, and
    # pipeline depths that force aggregation; None marks the d_in refusal
    rates = {Fraction(p, q) for p in (1, 2, 3, 5, 8) for q in (1, 2, 3, 7, 9)}
    for d_out in list(range(1, 25)) + [36, 60, 97, 120, 360, 1000]:
        for r, min_h, d_in, shared in itertools.product(
                rates, range(1, min(d_out, 10) + 1), (240, 7),
                (False, True)):
            want = _size_fcu_by_search(d_in, d_out, r, min_h, shared)
            try:
                got = size_fcu(d_in, d_out, r, min_h, shared)
            except AllocError:
                got = None
            assert got == want, (d_in, d_out, r, min_h, shared)


def test_alloc_conv_maxpool():
    for d, r, units, c in ((8, Fraction(8), 8, 1), (16, Fraction(4), 4, 4),
                           (4, Fraction(1), 1, 4)):
        a = alloc_conv(POOL, d, d, r)
        assert (a.n_units, a.c, a.i, a.accumulators) == (units, c, 1, 0)


def _single_rule_plans():
    specs = [running_example()]
    specs += [mobilenet_v1(alpha) for alpha in (0.25, 0.5, 0.75, 1.0)]
    for spec in specs:
        yield plan_network(spec)
        yield plan_network(spec, parallel=True)
    for seed in range(30):
        yield plan_network(random_network(seed))


def test_one_window_rule_for_every_window_layer():
    # conv, depthwise, lowered average pool and max pool all take their
    # units from one rule; only a max pool's units are PPUs
    kinds = set()
    for plan in _single_rule_plans():
        for e in plan.layers:
            ly, unit, r = e.layer, e.unit, e.rate.r_in
            if ly.kind not in (CONV, DW, POOL):
                assert not isinstance(unit, ConvAllocation)
                continue
            kinds.add((ly.kind, ly.constant_weights))
            i = interleave_count(ly.kind, ly.d_out, r)
            fan_out = math.ceil(ly.d_out / i) if ly.kind == CONV else 1
            assert unit.n_units == math.ceil(r) * fan_out
            assert unit.c == e.configs == config_count(ly.kind, ly.d_in,
                                                       ly.d_out, r)
            assert (e.n_kpu == 0) != (e.n_ppu == 0)
            assert (e.n_ppu != 0) == (ly.kind == POOL)
            if unit.accumulators:
                # ceil(d_out / I) streams, each summing ceil(#KPU / d_out)
                # KPU outputs
                adders, _ = _accumulator_counts(ly.d_out, unit.accumulators,
                                                e.n_kpu)
                assert adders == \
                    math.ceil(ly.d_out / i) * math.ceil(e.n_kpu / ly.d_out)
    assert kinds == {(CONV, False), (DW, False), (DW, True), (POOL, False)}


def test_worst_case_widths(rex_spec):
    plan = plan_network(rex_spec)
    # 8x8-bit products: C1 sums 25 terms, C2 sums 25*8 = 200, F1 sums 256;
    # pooling does not widen; widths chain through the network.
    assert plan.layers[0].acc_width == 8 + 8 + 5          # ceil(log2 25) = 5
    assert plan.layers[2].acc_width == 21 + 8 + 8         # ceil(log2 200) = 8
    assert plan.layers[4].acc_width == 37 + 8 + 8         # ceil(log2 256) = 8
    assert plan.layers[1].acc_width == plan.layers[0].acc_width


def test_worst_case_width_single_terms():
    from flowcnn.netspec import LayerKind, LayerSpec, NetworkSpec
    spec = NetworkSpec(
        [LayerSpec(LayerKind.CONV, 4, 1, 1, 0, 1, 1)],
        (4, 4, 1), Fraction(1), QuantFormat(8, 8))
    plan = plan_network(spec)
    assert plan.layers[0].acc_width == 16   # one product, no accumulation

    spec3 = NetworkSpec(
        [LayerSpec(LayerKind.CONV, 5, 3, 1, 1, 1, 1)],
        (5, 5, 1), Fraction(1), QuantFormat(8, 8))
    assert plan_network(spec3).layers[0].acc_width == 16 + 4  # 9 terms


def test_plan_running_example_units(rex_spec):
    plan = plan_network(rex_spec)
    assert [(e.n_kpu, e.n_fcu, e.n_ppu) for e in plan.layers] == [
        (8, 0, 0), (0, 0, 8), (32, 0, 0), (0, 0, 4), (0, 2, 0)]
    assert plan.total_kpu == 40 and plan.total_fcu == 2 and plan.total_ppu == 12
    assert plan.cycle_budget == 576


def test_plan_parallel_reference(rex_spec):
    plan = plan_network(rex_spec, parallel=True)
    assert plan.total_kpu == 136 and plan.total_fcu == 10
    for e in plan.layers:
        assert e.configs == 1
        assert e.interleave == 1


def test_plan_parallel_ignores_shared_pointwise():
    # the fully parallel point has one neuron per FCU: pointwise layers at
    # C = 1, with or without shared pointwise streams
    spec = mobilenet_v1(0.25)
    plan = plan_network(spec, parallel=True)
    assert plan_to_dict(plan_network(
        spec, parallel=True, shared_pointwise_streams=True)) == \
        plan_to_dict(plan)
    assert {e.unit.c for e in plan.layers
            if e.layer.kind == LayerKind.PW_CONV} == {1}


def test_plan_single_layer():
    from flowcnn.netspec import parse_network
    spec = parse_network({
        "input": {"height": 6, "width": 6, "channels": 2},
        "layers": [{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4}],
    })
    plan = plan_network(spec)
    assert len(plan.layers) == 1
    assert plan.layers[0].n_kpu == alloc_conv(CONV, 2, 4, Fraction(2)).n_units


def test_plan_refuses_window_layers_above_one_pixel_per_cycle(rex_spec):
    # a spec built in code is not validated; the planner refuses C1 at 8
    # features per cycle (d_in = 1), and the same layer at its own rate plans
    fast = dataclasses.replace(rex_spec, input_rate=Fraction(8))
    with pytest.raises(AllocError) as exc:
        plan_network(fast)
    assert str(exc.value) == \
        "C1: input rate 8 is above one pixel per cycle (d_in = 1)"
    plan_network(dataclasses.replace(rex_spec, input_rate=Fraction(1)))
    # a pool at its own d_in plans; an FCU layer keeps the whole flattened
    # input per cycle in the fully parallel plan
    pool = parse_network({"input": {"height": 4, "width": 4, "channels": 3,
                                    "rate": "3"},
                          "layers": [{"kind": "maxpool", "k": 2}]})
    assert plan_network(pool).layers[0].rate.r_in == 3
    with pytest.raises(AllocError, match="^L0: input rate 4 is above"):
        plan_network(dataclasses.replace(pool, input_rate=Fraction(4)))
    parallel = plan_network(rex_spec, parallel=True)
    assert parallel.layers[-1].rate.r_in == 256 > parallel.layers[-1].layer.d_in


def test_plan_mobilenet_table_counts():
    plan25 = plan_network(mobilenet_v1(0.25))
    assert plan25.total_kpu == 44
    assert plan25.total_fcu == 632
    plan100 = plan_network(mobilenet_v1(1.0))
    assert plan100.total_kpu == 158
    assert plan100.total_fcu == 5465


def test_mobilenet_075_depthwise_stalls_at_three_quarters():
    # block7.dw: 384 channels at 3/2 on two KPUs of 192 channels each, so a
    # position takes 192 slots of its 256-cycle pace
    plan = plan_network(mobilenet_v1(0.75))
    entry = next(e for e in plan.layers if e.layer.name == "block7.dw")
    assert (entry.n_kpu, entry.configs) == (2, 192)
    assert entry.rate.flow is Flow.STALLED
    assert entry.rate.utilization == Fraction(3, 4)


def test_plan_warns_when_slots_outrun_the_pace():
    # conv 8->16 at 8/9: 8 input channels per stream, each meeting 2 output
    # channels, take 16 slots of a 9-cycle pace
    spec = parse_network({
        "input": {"height": 8, "width": 8, "channels": 8, "rate": "8/9"},
        "layers": [{"kind": "conv", "k": 3, "p": 1, "d_out": 16,
                    "name": "C1"}]})
    plan = plan_network(spec)
    assert plan.layers[0].rate.flow is Flow.RESTORED_BY_INTERLEAVING
    assert plan.warnings == [
        "C1: C=16 slots per position outrun its pace of d_in/r_in = 9 "
        "cycles; the layer cannot keep input rate 8/9"]


def test_work_conservation():
    # kernel assignments cover the layer's work exactly when nothing is
    # capped or rounded, and never undershoot
    for d_in, d_out in [(4, 8), (8, 16), (16, 16)]:
        layer = LayerSpec(LayerKind.CONV, 28, 7, 1, 3, d_in, d_out)
        rate = Fraction(d_in)
        while rate >= Fraction(1, d_out):
            a = alloc_conv(CONV, d_in, d_out, rate)
            assert a.n_units * a.c >= d_in * d_out
            stalled = classify_flow(layer, rate).flow is Flow.STALLED
            if not stalled and not a.continuity_break:
                assert a.n_units * a.c == d_in * d_out
            rate /= 2

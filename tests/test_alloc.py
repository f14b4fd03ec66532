from fractions import Fraction

import pytest

from flowcnn.alloc import (AllocError, alloc_conv, alloc_depthwise,
                           alloc_pointwise, alloc_pool, plan_network,
                           size_fcu)
from flowcnn.cost import accumulator_cost
from flowcnn.models import mobilenet_v1
from flowcnn.netspec import LayerKind, LayerSpec, QuantFormat, parse_network
from flowcnn.rate import Flow, classify_flow


def test_alloc_conv_interleaved():
    a = alloc_conv(8, 16, Fraction(2))
    assert (a.c, a.i, a.n_kpu) == (4, 1, 32)
    assert a.accumulators == 16
    # each accumulator sums ceil(32 / 16) = 2 KPU outputs per cycle
    assert accumulator_cost(16, a.i, a.n_kpu).adders == 16 * 2


def test_alloc_conv_low_rate_shares_kpus():
    a = alloc_conv(8, 16, Fraction(1, 2))
    assert (a.c, a.i, a.n_kpu) == (16, 2, 8)


def test_alloc_conv_single_input_channel():
    a = alloc_conv(1, 8, Fraction(1))
    assert (a.c, a.i, a.n_kpu) == (1, 1, 8)
    assert a.accumulators == 0  # single kernel, nothing to accumulate


def test_alloc_conv_stall_cap():
    a = alloc_conv(8, 16, Fraction(1, 32))
    assert a.c == 128


def test_alloc_depthwise():
    assert (alloc_depthwise(8, Fraction(2)).n_kpu,
            alloc_depthwise(8, Fraction(2)).c) == (2, 4)
    assert (alloc_depthwise(8, Fraction(8)).n_kpu,
            alloc_depthwise(8, Fraction(8)).c) == (8, 1)
    low = alloc_depthwise(8, Fraction(1, 2))
    assert (low.n_kpu, low.c) == (1, 8)


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


def test_alloc_pointwise_modes():
    general = alloc_pointwise(8, 16, Fraction(2))
    assert (general.j, general.h, general.n_fcu) == (2, 1, 16)
    shared = alloc_pointwise(8, 16, Fraction(2), shared_output_streams=True)
    assert shared.n_fcu == 8 and shared.c == general.c * 2
    low = alloc_pointwise(8, 16, Fraction(1, 2))
    assert (low.j, low.h, low.n_fcu) == (1, 2, 8)


def test_alloc_pool():
    assert (alloc_pool(8, Fraction(8)).n_ppu, alloc_pool(8, Fraction(8)).c) == (8, 1)
    assert (alloc_pool(16, Fraction(4)).n_ppu, alloc_pool(16, Fraction(4)).c) == (4, 4)
    assert (alloc_pool(4, Fraction(1)).n_ppu, alloc_pool(4, Fraction(1)).c) == (1, 4)


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


def test_plan_single_layer():
    from flowcnn.netspec import parse_network
    spec = parse_network({
        "input": {"height": 6, "width": 6, "channels": 2},
        "layers": [{"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4}],
    })
    plan = plan_network(spec)
    assert len(plan.layers) == 1
    assert plan.layers[0].n_kpu == alloc_conv(2, 4, Fraction(2)).n_kpu


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
            a = alloc_conv(d_in, d_out, rate)
            assert a.n_kpu * a.c >= d_in * d_out
            stalled = classify_flow(layer, rate).flow is Flow.STALLED
            if not stalled and not a.continuity_break:
                assert a.n_kpu * a.c == d_in * d_out
            rate /= 2

from fractions import Fraction

import pytest

from flowcnn.alloc import plan_network
from flowcnn.cost import (SCOPE_TABLE6, SCOPE_TABLE7, SCOPE_TABLE9, ZERO,
                          ResourceVector, accumulator_cost, approx_display,
                          bias_cost, display_range, fcu_cost,
                          fully_parallel_reference_cost, interleaver_cost,
                          kpu_cost, layer_cost, network_cost, ppu_cost,
                          sweep_rates)
from flowcnn.models import mobilenet_v1, running_example
from flowcnn.netspec import LayerKind

RATES_FULL = [Fraction(8), Fraction(4), Fraction(2), Fraction(1),
              Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
              Fraction(1, 16), Fraction(1, 32)]


def test_kpu_cost_cells():
    c = kpu_cost(7, 28, 1)
    assert (c.adders, c.multipliers, c.registers, c.mux2) == (48, 49, 174, 0)
    assert kpu_cost(5, 24, 1).registers == 100
    one = kpu_cost(1, 12, 1)
    assert (one.adders, one.multipliers, one.registers, one.mux2) == (0, 1, 0, 0)


def test_accumulator_cost():
    a = accumulator_cost(16, 16, 32)
    assert (a.registers, a.adders) == (16, 32)
    assert accumulator_cost(16, 16, 128).adders == 128


def test_bias_cost():
    assert (bias_cost(16, 1).adders, bias_cost(16, 1).mux2) == (16, 0)
    assert bias_cost(8, 1).adders == 8
    full = bias_cost(8, 8)
    assert (full.adders, full.mux2) == (1, 7)


def test_depthwise_bias_streams_carry_c_channels():
    # one bias adder per depthwise KPU, with a C:1 constant mux for the C
    # channels it cycles through
    cycling = 0
    for alpha in (0.25, 1.0):
        for e in plan_network(mobilenet_v1(alpha)).layers:
            if e.layer.kind != LayerKind.DW_CONV or not e.layer.has_weights:
                continue
            cycling += e.configs > 1
            per_kpu = -(-e.layer.d_out // e.n_kpu)
            assert layer_cost(e, SCOPE_TABLE6, None) \
                == layer_cost(e, SCOPE_TABLE7, None) \
                + bias_cost(e.layer.d_out, per_kpu)
    assert cycling


def test_interleaver_cost():
    assert interleaver_cost(8, 1, Fraction(2)).mux2 == 6
    assert interleaver_cost(8, 1, Fraction(8)).mux2 == 0
    assert interleaver_cost(16, 1, Fraction(4)).mux2 == 12


def test_ppu_cost():
    p1 = ppu_cost(2, 24, 1)
    assert (p1.max_units, p1.registers) == (3, 25)
    p2 = ppu_cost(3, 12, 4)
    assert (p2.max_units, p2.registers) == (8, 104)
    assert ppu_cost(1, 12, 2).max_units == 0


def test_fcu_cost():
    c = fcu_cost(4, 5, 320, 2)
    assert (c.adders, c.multipliers, c.registers, c.mux2) == (8, 8, 10, 2552)
    assert fcu_cost(8, 1, 1, 16).adders == 128
    assert fcu_cost(3, 2, 1, 1).mux2 == 0


def test_running_example_full_breakdown(rex_spec):
    report = network_cost(plan_network(rex_spec), SCOPE_TABLE6)
    cells = {r.name: r.vector for r in report.rows}
    assert (cells["C1"].adders, cells["C1"].multipliers,
            cells["C1"].registers, cells["C1"].mux2) == (200, 200, 800, 0)
    assert (cells["P1"].registers, cells["P1"].max_units) == (200, 24)
    assert (cells["C2"].adders, cells["C2"].multipliers,
            cells["C2"].mux2) == (816, 800, 2406)
    assert approx_display(cells["C2"].registers) == "6.7k"
    # P2's interleaving muxes follow the stated formula (16/1 - 4 = 12)
    assert (cells["P2"].registers, cells["P2"].mux2,
            cells["P2"].max_units) == (416, 12, 32)
    assert (cells["F1"].adders, cells["F1"].multipliers,
            cells["F1"].registers) == (8, 8, 10)
    assert cells["F1"].mux2 == 2552
    total = report.total
    assert (total.adders, total.multipliers, total.max_units,
            total.weights) == (1024, 1008, 56, 5960)
    assert approx_display(total.registers) == "8.1k"
    assert (report.total_kpu, report.total_fcu, report.total_ppu) == (40, 2, 12)


def test_conv_sweep_matches_reference_rows(sweep_geometry_file):
    rows = sweep_rates(28, 7, 3, 8, 16, RATES_FULL)
    got = [(r.vector.adders, r.vector.multipliers, r.vector.registers,
            r.vector.mux2, r.n_kpu, r.stalled) for r in rows]
    assert got == [
        (6272, 6272, 22288, 0, 128, False),
        (3136, 3136, 22288, 3136, 64, False),
        (1568, 1568, 22288, 4704, 32, False),
        (784, 784, 22288, 5488, 16, False),
        (392, 392, 22288, 5880, 8, False),
        (196, 196, 22288, 6076, 4, False),
        (98, 98, 22288, 6174, 2, False),
        (49, 49, 22288, 6223, 1, False),
        (49, 49, 22288, 6223, 1, True),
    ]


def test_separable_sweep_matches_reference_rows():
    rows = sweep_rates(28, 7, 3, 8, 16, RATES_FULL[:6], separable=True)
    got = [(r.vector.adders, r.vector.multipliers, r.vector.registers,
            r.vector.mux2, r.n_kpu, r.n_fcu, r.stalled) for r in rows]
    assert got == [
        (512, 520, 1416, 0, 8, 16, False),
        (256, 260, 1416, 260, 4, 16, False),
        (128, 130, 1416, 390, 2, 16, False),
        (64, 65, 1416, 455, 1, 16, False),
        (56, 57, 1416, 463, 1, 8, True),
        (52, 53, 1416, 467, 1, 4, True),
    ]


def test_empty_sweep():
    assert sweep_rates(28, 7, 3, 8, 16, []) == []


@pytest.mark.parametrize("spec, n_swept", [
    (running_example(), 2), (mobilenet_v1(0.25), 14), (mobilenet_v1(1.0), 14)],
    ids=["rex", "mbv1-0.25", "mbv1-1.0"])
def test_sweep_row_is_table7_pricing_of_the_plan(spec, n_swept):
    # a conv, or a depthwise stage with its pointwise partner, swept at its
    # own input rate and stride costs what table7 charges those rows
    plan = plan_network(spec)
    report = network_cost(plan, SCOPE_TABLE7)
    checked = 0
    for i, ly in enumerate(spec.layers):
        if ly.kind == LayerKind.CONV:
            n = 1
        elif (ly.kind == LayerKind.DW_CONV and i + 1 < len(spec.layers)
              and spec.layers[i + 1].internal_input):
            n = 2
        else:
            continue
        [row] = sweep_rates(ly.f, ly.k, ly.p, ly.d_in,
                            spec.layers[i + n - 1].d_out,
                            [plan.layers[i].rate.r_in], separable=n == 2,
                            s=ly.s)
        rows = report.rows[i:i + n]
        assert row.vector == sum((r.vector for r in rows), ZERO), i
        assert (row.n_kpu, row.n_fcu, row.stalled) == (
            sum(r.n_kpu for r in rows), sum(r.n_fcu for r in rows),
            rows[0].stalled), i
        checked += 1
    assert checked == n_swept


def test_sweep_prices_output_hold_registers():
    # 8 -> 10 channels at 1/4: 3 KPUs for 10 streams, so continuity breaks
    # and the plan holds every output channel in one more register
    [row] = sweep_rates(12, 3, 1, 8, 10, [Fraction(1, 4)])
    assert row.vector.registers == 2516


def test_register_count_invariant_under_rate():
    regs = {r.vector.registers for r in sweep_rates(28, 7, 3, 8, 16, RATES_FULL)}
    assert regs == {22288}


def test_parallel_reference_running_example(rex_spec):
    report = fully_parallel_reference_cost(rex_spec)
    total = report.total
    assert report.total_kpu == 136 and report.total_fcu == 10
    assert approx_display(total.adders) == "6.0k"
    assert approx_display(total.multipliers) == "6.0k"
    assert total.mux2 == 0
    for row in report.rows:
        if row.n_kpu:
            assert row.configs == 1


def test_parallel_single_pointwise():
    from flowcnn.netspec import parse_network
    spec = parse_network({
        "input": {"height": 1, "width": 1, "channels": 1},
        "layers": [{"kind": "conv", "k": 1, "d_out": 1}],
    })
    report = fully_parallel_reference_cost(spec)
    assert report.total.multipliers == 1


def test_mobilenet_table_totals():
    for alpha, ours_add, ours_mul, ref_add, ref_mul, ref_kpu, ref_fcu in [
            (0.25, "1.1k", "1.1k", "475k", "476k", 1520, 2488),
            (1.0, "12.2k", "12.2k", "4.3M", "4.3M", 6080, 6952)]:
        spec = mobilenet_v1(alpha)
        ours = network_cost(plan_network(spec), SCOPE_TABLE9)
        assert approx_display(ours.total.adders) == ours_add
        assert approx_display(ours.total.multipliers) == ours_mul
        ref = fully_parallel_reference_cost(spec)
        assert approx_display(ref.total.adders) == ref_add
        assert approx_display(ref.total.multipliers) == ref_mul
        assert ref.total_kpu == ref_kpu and ref.total_fcu == ref_fcu


def test_multiplier_total_never_exceeds_parallel(rex_spec, residual_doc):
    from flowcnn.netspec import parse_network
    # a residual merge row prices ceil(r_in) adders and no unit: 3/2 planned,
    # 4 in the fully parallel reference
    for spec, merge_adders in ((rex_spec, []),
                               (parse_network(residual_doc), [2, 4])):
        ours = network_cost(plan_network(spec), SCOPE_TABLE9)
        ref = fully_parallel_reference_cost(spec)
        assert ours.total.multipliers <= ref.total.multipliers
        merges = [r for r in ours.rows + ref.rows if r.kind == "residual_add"]
        assert [r.vector for r in merges] == [
            ResourceVector(adders=a) for a in merge_adders]
        assert all(r.n_kpu == r.n_fcu == r.n_ppu == 0 for r in merges)


def test_display_round_trip():
    assert approx_display(6656) == "6.7k"
    assert approx_display(8098) == "8.1k"
    assert approx_display(5960) == "6.0k"
    assert approx_display(474648) == "475k"
    assert approx_display(4259264) == "4.3M"
    assert display_range("1.1k") == (1050, 1149)
    assert display_range("475k") == (474500, 475499)
    lo, hi = display_range("4.3M")
    assert lo <= 4259264 <= hi


def test_resource_vector_addition():
    a = ResourceVector(1, 2, 3, 4, 5, 6)
    b = ResourceVector(10, 20, 30, 40, 50, 60)
    assert a + b == ResourceVector(11, 22, 33, 44, 55, 66)
    assert a.scaled(3) == ResourceVector(3, 6, 9, 12, 15, 18)

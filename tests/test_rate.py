from fractions import Fraction

import pytest

from brute_force import output_valid
from flowcnn.netspec import LayerKind, LayerSpec
from flowcnn.rate import (Flow, classify_flow, output_rate, pad_gates,
                          propagate_rates, valid_output_positions)


def test_output_rate_table_values():
    assert output_rate(8, 16, Fraction(2), 1) == 4
    assert output_rate(16, 16, Fraction(4), 3) == Fraction(4, 9)
    # identity layer keeps the rate
    assert output_rate(8, 8, Fraction(3, 7), 1) == Fraction(3, 7)


def test_running_example_rates(rex_spec):
    infos = propagate_rates(rex_spec)
    assert [i.r_out for i in infos] == [
        Fraction(8), Fraction(2), Fraction(4), Fraction(4, 9),
        Fraction(5, 288)]
    # last value rounds to the reported 0.02
    assert f"{float(infos[-1].r_out):.2f}" == "0.02"


def test_output_valid_unpadded_5x5_3x3():
    assert valid_output_positions(5, 3, 1, 0).tolist() == [
        0, 1, 2, 5, 6, 7, 10, 11, 12]


def test_output_valid_padded_all():
    assert valid_output_positions(5, 3, 1, 1).tolist() == list(range(25))


def test_output_valid_strided_brute_force():
    # f=4, k=2, s=2: enumerate windows fully contained in the map
    expect = []
    for n in range(16):
        r, c = divmod(n, 4)
        if r % 2 == 0 and c % 2 == 0 and r + 2 <= 4 and c + 2 <= 4:
            expect.append(n)
    assert valid_output_positions(4, 2, 2, 0).tolist() == expect \
        == [0, 2, 8, 10]


def test_output_valid_domain_error():
    with pytest.raises(ValueError):
        output_valid(25, 5, 3, 1, 0)


def test_valid_count_formula_small_grids():
    for f in range(1, 17):
        for k in range(1, f + 1):
            for s in (1, 2, 3):
                for p in (0, (k - 1) // 2):
                    brute = [n for n in range(f * f)
                             if output_valid(n, f, k, s, p)]
                    assert valid_output_positions(f, k, s, p).tolist() \
                        == brute


def test_pad_select_tuples():
    gates = pad_gates(5, 3, 1)
    assert gates.shape == (5, 3)
    assert tuple(gates[0]) == (1, 1, 0)
    assert tuple(gates[4]) == (0, 1, 1)
    assert tuple(gates[2]) == (1, 1, 1)
    # no padding masks nothing
    assert pad_gates(5, 3, 0).all()


def _conv(d_in, d_out, f=28, k=7, p=3, s=1):
    return LayerSpec(LayerKind.CONV, f, k, s, p, d_in, d_out)


def test_classify_flow_conv_stall():
    info = classify_flow(_conv(8, 16), Fraction(1, 32))
    assert info.flow is Flow.STALLED
    assert info.utilization == Fraction(1, 2)
    info = classify_flow(_conv(8, 16), Fraction(1, 16))
    assert info.flow is Flow.RESTORED_BY_INTERLEAVING
    assert info.utilization == 1
    # C = 16 at rate 1/2: two output channels share each KPU, no stall
    assert classify_flow(_conv(8, 16), Fraction(1, 2)).flow \
        is Flow.RESTORED_BY_INTERLEAVING


def test_classify_flow_depthwise_stall():
    dw = LayerSpec(LayerKind.DW_CONV, 28, 7, 1, 3, 8, 8)
    assert classify_flow(dw, Fraction(1, 2)).flow is Flow.STALLED
    assert classify_flow(dw, Fraction(1, 2)).utilization == Fraction(1, 2)
    assert classify_flow(dw, Fraction(1)).flow is Flow.RESTORED_BY_INTERLEAVING


def test_classify_flow_fully_parallel():
    info = classify_flow(_conv(8, 16), Fraction(8))
    assert info.flow is Flow.CONTINUOUS
    assert info.utilization == 1


def test_residual_rate_is_min():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 4},
        "layers": [
            {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
            {"kind": "maxpool", "k": 2, "s": 2},
            # the merge sees min(pool output, source output)
        ],
    }
    from flowcnn.netspec import parse_network
    spec = parse_network(doc)
    infos = propagate_rates(spec)
    assert infos[1].r_out == Fraction(1)   # 4 / 2^2

    merged = {
        "input": {"height": 8, "width": 8, "channels": 4},
        "layers": [
            {"kind": "conv", "k": 1, "d_out": 4},
            {"kind": "conv", "k": 1, "d_out": 4},
            {"kind": "residual_add", "residual_source": 0},
        ],
    }
    spec = parse_network(merged)
    infos = propagate_rates(spec)
    assert infos[2].r_in == min(infos[0].r_out, infos[1].r_out)

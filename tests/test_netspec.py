import json

import pytest

from flowcnn.models import data_path, mobilenet_v1
from flowcnn.netspec import (LayerKind, SchemaError, ValidationError,
                             parse_network, serialize_network,
                             validate_network)


def test_running_example_parses(rex_spec):
    assert [ly.kind for ly in rex_spec.layers] == [
        LayerKind.CONV, LayerKind.MAXPOOL, LayerKind.CONV,
        LayerKind.MAXPOOL, LayerKind.FC]
    assert [ly.f for ly in rex_spec.layers] == [24, 24, 12, 12, 4]
    assert [ly.d_out for ly in rex_spec.layers] == [8, 8, 16, 16, 10]
    fc = rex_spec.layers[-1]
    assert fc.k == fc.f == fc.s == 4
    assert fc.feature_count == 256


def _rex_doc() -> dict:
    with open(data_path("running_example.json")) as fh:
        return json.load(fh)


def test_empty_layers_rejected():
    doc = dict(_rex_doc(), layers=[])
    with pytest.raises(ValidationError):
        parse_network(doc)


def test_schema_errors_carry_path():
    with pytest.raises(SchemaError, match="input"):
        parse_network({"layers": [{"kind": "conv", "k": 3, "d_out": 4}]})
    with pytest.raises(SchemaError, match=r"layers\[0\]"):
        parse_network({"input": {"height": 8, "width": 8, "channels": 1},
                       "layers": [{"kind": "bogus"}]})


def test_declared_f_checked():
    doc = _rex_doc()
    doc["layers"][2]["f"] = 10   # chain gives 12
    with pytest.raises(ValidationError, match="f=10"):
        parse_network(doc)


def test_mobilenet_lowering_counts():
    spec = mobilenet_v1(0.25)
    # 1 conv + 13 separable pairs + avgpool-as-depthwise + fc
    assert len(spec.layers) == 1 + 13 * 2 + 1 + 1 == 29
    kinds = [ly.kind for ly in spec.layers]
    assert kinds.count(LayerKind.DW_CONV) == 14  # 13 blocks + avgpool
    assert kinds.count(LayerKind.PW_CONV) == 13
    pool = spec.layers[-2]
    assert pool.constant_weights and pool.post_divisor == 49
    assert spec.layers[-1].d_out == 1000


def test_separable_lowering_preserves_weight_count():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 4},
        "layers": [{"kind": "dw_separable", "k": 3, "s": 1, "p": 1,
                    "d_out": 8}],
    }
    spec = parse_network(doc)
    dw, pw = spec.layers
    assert dw.weight_count + pw.weight_count == 3 * 3 * 4 + 4 * 8
    assert pw.internal_input


def test_parse_serialize_roundtrip(rex_spec):
    doc = serialize_network(rex_spec)
    again = parse_network(doc)
    assert again == rex_spec
    # a lowered network survives too
    spec = mobilenet_v1(0.25)
    assert parse_network(serialize_network(spec)) == spec


def test_pool_channel_mismatch_is_error():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 8},
        "layers": [{"kind": "maxpool", "k": 2, "s": 2, "d_out": 16}],
    }
    with pytest.raises(ValidationError, match="pooling preserves channels"):
        parse_network(doc)


def test_padding_warning():
    good = {
        "input": {"height": 8, "width": 8, "channels": 1},
        "layers": [{"kind": "conv", "k": 5, "s": 1, "p": 2, "d_out": 4}],
    }
    assert validate_network(parse_network(good)) == []
    bad = dict(good, layers=[{"kind": "conv", "k": 5, "s": 1, "p": 0,
                              "d_out": 4}])
    diags = validate_network(parse_network(bad))
    assert [d.severity for d in diags] == ["warning"]
    assert "not continuous" in diags[0].message


def test_depthwise_group_restriction():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 8},
        "layers": [{"kind": "dw_conv", "k": 3, "s": 1, "p": 1, "d_out": 4}],
    }
    with pytest.raises(ValidationError, match="d_out == d_in"):
        parse_network(doc)


def test_input_rate_bounds():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 2, "rate": "4"},
        "layers": [{"kind": "conv", "k": 1, "d_out": 2}],
    }
    with pytest.raises(ValidationError, match="exceeds one pixel"):
        parse_network(doc)


def test_residual_merge_parses():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 4},
        "layers": [
            {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
            {"kind": "conv", "k": 3, "s": 1, "p": 1, "d_out": 4},
            {"kind": "residual_add", "residual_source": 0},
        ],
    }
    spec = parse_network(doc)
    assert spec.layers[2].kind == LayerKind.RESIDUAL_ADD
    assert spec.layers[2].residual_source == 0
    bad = json.loads(json.dumps(doc))
    bad["layers"][2]["residual_source"] = 7
    with pytest.raises(ValidationError):
        parse_network(bad)

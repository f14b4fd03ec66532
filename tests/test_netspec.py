import json
import re
from fractions import Fraction

import pytest

from flowcnn.alloc import plan_network
from flowcnn.models import data_path, mobilenet_v1
from flowcnn.netspec import (MAX_INT, LayerKind, LayerSpec, NetworkSpec,
                             SchemaError, ValidationError,
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
    assert pool.constant_weights and pool.k == 7
    assert pool.weight_shape is None
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


def _errors(*layers, f=8, c=8):
    """validate_network's error messages on layers built in code."""
    spec = NetworkSpec(list(layers), (f, f, c), Fraction(1))
    return [d.message for d in validate_network(spec) if d.severity == "error"]


def test_pool_channel_mismatch_is_error():
    doc = {
        "input": {"height": 8, "width": 8, "channels": 8},
        "layers": [{"kind": "maxpool", "k": 2, "s": 2, "d_out": 16}],
    }
    with pytest.raises(SchemaError, match=r"layers\[0\]\.d_out: .* 8, got 16"):
        parse_network(doc)
    assert _errors(LayerSpec(LayerKind.MAXPOOL, 8, 2, 2, 0, 8, 16)) == [
        "maxpool takes d_out=8 only, got d_out=16"]


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
    with pytest.raises(SchemaError, match=r"layers\[0\]\.d_out: .* 8, got 4"):
        parse_network(doc)
    assert _errors(LayerSpec(LayerKind.DW_CONV, 8, 3, 1, 1, 8, 4)) == [
        "dw_conv takes d_out=8 only, got d_out=4"]


@pytest.mark.parametrize("layer, message", [
    (LayerSpec(LayerKind.MAXPOOL, 8, 3, 3, 1, 8, 8),
     "maxpool takes p=0 only, got p=1"),
    # a merge of 8 channels claiming 7 was planned on 7
    (LayerSpec(LayerKind.RESIDUAL_ADD, 8, 1, 1, 0, 8, 7, residual_source=0),
     "residual_add takes d_out=8 only, got d_out=7"),
    (LayerSpec(LayerKind.PW_CONV, 8, 3, 1, 0, 8, 4),
     "pw_conv takes k=1 only, got k=3"),
], ids=["pool-padding", "merge-channels", "pointwise-kernel"])
def test_fixed_fields_checked_in_code(layer, message):
    # the lowering's fixed fields guard specs that no document produced
    conv = LayerSpec(LayerKind.CONV, 8, 3, 1, 1, 8, 8)
    assert _errors(conv, layer) == [message]


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


def _doc_of(*layers, f=8, c=4):
    """An f x f x c input feeding the given layer rows."""
    return {"input": {"height": f, "width": f, "channels": c},
            "layers": list(layers)}


@pytest.mark.parametrize("doc, error, message", [
    (_doc_of({"kind": "conv", "k": 7, "d_out": 2}, f=4), ValidationError,
     "kernel k=7 larger than padded map f+2p=4"),
    (_doc_of({"kind": "conv", "k": 3, "p": 2, "d_out": 2}), ValidationError,
     "padding p=2 exceeds"),
    (_doc_of({"kind": "maxpool", "k": 2, "s": 3}), ValidationError,
     "pooling stride s=3 exceeds window k=2"),
    # a max pool's padding is fixed at 0, so the row does not parse
    (_doc_of({"kind": "maxpool", "k": 3, "s": 3, "p": 1}, f=9), SchemaError,
     "layers[0].p: the lowering fixes it at 0, got 1"),
    (_doc_of({"kind": "fc", "d_out": 4},
                  {"kind": "conv", "k": 1, "d_out": 2}), ValidationError,
     "only fully connected layers may follow"),
    (_doc_of({"kind": "conv", "k": 3, "p": 1, "d_out": 4},
                  {"kind": "conv", "k": 3, "p": 1, "d_out": 8},
                  {"kind": "residual_add", "residual_source": 0}),
     ValidationError, "layer 2: residual merge shape mismatch with layer 0"),
], ids=["kernel-past-padded-map", "over-padded", "pool-stride-above-k",
        "pool-padding", "conv-after-fc", "residual-shape-mismatch"])
def test_structural_errors_rejected(doc, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_network(doc)


@pytest.mark.parametrize("extra, message", [
    ({"post_divisor": 4}, r"layers\[0\]\.post_divisor: unknown key; write "
                          r"an average pool as kind 'avgpool'$"),
    ({"constant_weights": True},
     r"layers\[0\]\.constant_weights: unknown key; write an average pool"),
    ({"stride": 2}, r"layers\[0\]\.stride: unknown key"),
])
def test_unknown_layer_keys_rejected(extra, message):
    # a lowered average pool's unit kernel and divisor are not parameters a
    # document can set
    with pytest.raises(SchemaError, match=message):
        parse_network(_doc_of(dict({"kind": "dw_conv", "k": 3, "p": 1},
                                        **extra)))


def test_lowered_avgpool_serializes_as_avgpool():
    spec = parse_network(_doc_of(
        {"kind": "avgpool", "k": 2, "name": "A"}))
    pool, = spec.layers
    assert pool.kind == LayerKind.DW_CONV and pool.constant_weights
    assert pool.weight_shape is None and pool.weight_count == 0
    assert not pool.has_weights
    row, = serialize_network(spec)["layers"]
    assert row == {"kind": "avgpool", "f": 8, "k": 2, "s": 2, "p": 0,
                   "d_out": 4, "name": "A"}
    assert parse_network(serialize_network(spec)) == spec


def test_integers_bounded():
    # the bound itself parses and plans; no test simulates near it, since a
    # valid network that large allocates gigabytes
    doc = _rex_doc()
    doc["layers"][0]["d_out"] = doc["layers"][-1]["d_out"] = MAX_INT
    assert plan_network(parse_network(doc)).layers[0].layer.d_out == MAX_INT
    for value in (MAX_INT + 1, 10 ** 20):
        doc["layers"][0]["d_out"] = value
        with pytest.raises(SchemaError, match=re.escape(
                f"layers[0].d_out: must be in [1, {MAX_INT}], got {value}")):
            parse_network(doc)

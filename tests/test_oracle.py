import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowcnn.oracle
from flowcnn.oracle import (OracleError, _exact_dtype, gen_network_weights,
                            gen_random, load_tensor, ref_avgpool, ref_conv2d,
                            ref_fc, ref_depthwise, ref_maxpool, ref_network,
                            ref_pointwise, save_tensor, weights_from_json,
                            weights_to_json, wrap_to_width)


def _wrap64(v: int) -> int:
    """A Python int reduced mod 2**64 into the int64 range."""
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


def _brute_conv(x, w, s, p):
    """Independent nested-loop convolution used to pin expected values:
    exact Python-int sums, reduced mod 2**64 as int64 arithmetic wraps."""
    d_out, d_in, k, _ = w.shape
    f = x.shape[0]
    xp = np.zeros((f + 2 * p, f + 2 * p, d_in), dtype=np.int64)
    xp[p:p + f, p:p + f] = x
    side = (f - k + 2 * p) // s + 1
    out = np.zeros((side, side, d_out), dtype=np.int64)
    for r in range(side):
        for c in range(side):
            for o in range(d_out):
                acc = 0
                for a in range(k):
                    for b in range(k):
                        for i in range(d_in):
                            acc += int(xp[r * s + a, c * s + b, i]) * int(w[o, i, a, b])
                out[r, c, o] = _wrap64(acc)
    return out


def test_identity_kernel():
    x = np.arange(25, dtype=np.int64).reshape(5, 5, 1)
    w = np.zeros((1, 1, 3, 3), dtype=np.int64)
    w[0, 0, 1, 1] = 1
    out = ref_conv2d(x, w, None, 1, 1)
    assert np.array_equal(out, x)


def test_window_sums_against_brute_force():
    rng = np.random.default_rng(3)
    x = rng.integers(-9, 9, size=(5, 5, 1))
    w = np.ones((1, 1, 3, 3), dtype=np.int64)
    out = ref_conv2d(x, w, None, 1, 0)
    assert out.shape == (3, 3, 1)
    assert np.array_equal(out, _brute_conv(x, w, 1, 0))


@pytest.mark.parametrize("s,p", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_conv_matches_brute_force(s, p):
    rng = np.random.default_rng(s * 10 + p)
    x = rng.integers(-50, 50, size=(8, 8, 3))
    w = rng.integers(-50, 50, size=(4, 3, 3, 3))
    assert np.array_equal(ref_conv2d(x, w, None, s, p),
                          _brute_conv(x, w, s, p))


def test_fc_as_convolution_reduction():
    rng = np.random.default_rng(5)
    x = rng.integers(-20, 20, size=(4, 4, 3))
    w = rng.integers(-20, 20, size=(6, 3, 4, 4))
    conv = ref_conv2d(x, w, None, 4, 0)          # k = f = s -> 1x1 output
    assert conv.shape == (1, 1, 6)
    w_fc = np.stack([np.transpose(w[o], (1, 2, 0)).reshape(-1)
                     for o in range(6)])
    fc = ref_fc(x.reshape(-1), w_fc, None)
    assert np.array_equal(conv.reshape(-1), fc)


def test_pointwise_equals_per_pixel_fc():
    rng = np.random.default_rng(6)
    x = rng.integers(-30, 30, size=(3, 3, 5))
    w = rng.integers(-30, 30, size=(7, 5))
    out = ref_pointwise(x, w, None)
    for r in range(3):
        for c in range(3):
            assert np.array_equal(out[r, c], ref_fc(x[r, c], w, None))


def test_maxpool():
    x = np.array([[1, 2], [3, 4]], dtype=np.int64).reshape(2, 2, 1)
    assert ref_maxpool(x, 2, 2).reshape(-1).tolist() == [4]
    neg = -x
    assert ref_maxpool(neg, 2, 2).reshape(-1).tolist() == [-1]


def test_avgpool_matches_depthwise_lowering():
    rng = np.random.default_rng(7)
    x = rng.integers(-40, 40, size=(6, 6, 3))
    pooled = ref_avgpool(x, 2, 2)
    ones = np.ones((3, 2, 2), dtype=np.int64)
    lowered = ref_depthwise(x, ones, None, 2, 0) // 4
    assert np.array_equal(pooled, lowered)
    # simple cell: floor((1+2+3+4)/4) = 2
    small = np.array([[1, 2], [3, 4]], dtype=np.int64).reshape(2, 2, 1)
    assert ref_avgpool(small, 2, 2).reshape(-1).tolist() == [2]


def test_fc_basis_vector():
    w = np.zeros((3, 4), dtype=np.int64)
    w[0] = [5, 0, 0, 0]
    x = np.array([1, 0, 0, 0], dtype=np.int64)
    assert ref_fc(x, w, None).tolist() == [5, 0, 0]


def test_network_zero_weights_gives_zero_logits(rex_spec):
    weights = gen_network_weights(rex_spec, seed=0)
    for entry in weights.values():
        entry["w"] = np.zeros_like(entry["w"])
        if entry["b"] is not None:
            entry["b"] = np.zeros_like(entry["b"])
    x = gen_random((24, 24, 1), 1, 8)
    out = ref_network(rex_spec, weights, x)
    assert np.count_nonzero(out) == 0


def test_network_with_residual():
    from flowcnn.netspec import parse_network
    spec = parse_network({
        "input": {"height": 4, "width": 4, "channels": 2},
        "layers": [
            {"kind": "pw_conv", "d_out": 2, "name": "a"},
            {"kind": "pw_conv", "d_out": 2, "name": "b"},
            {"kind": "residual_add", "residual_source": 0},
        ],
    })
    weights = gen_network_weights(spec, seed=2)
    x = gen_random((4, 4, 2), 3, 8)
    out = ref_network(spec, weights, x)
    ya = ref_pointwise(x, weights["a"]["w"], weights["a"]["b"])
    yb = ref_pointwise(ya, weights["b"]["w"], weights["b"]["b"])
    assert np.array_equal(out, ya + yb)


def test_gen_random_reproducible():
    a = gen_random((5, 5, 2), 42, 8)
    b = gen_random((5, 5, 2), 42, 8)
    c = gen_random((5, 5, 2), 43, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= -128 and a.max() <= 127


def test_wrap_to_width():
    vals = np.array([127, 128, -129, 255, 256], dtype=np.int64)
    assert wrap_to_width(vals, 8).tolist() == [127, -128, 127, -1, 0]
    # (x + half) mod 2**bits - half in Python ints, for int64 values whose
    # x + half wraps in int64 too
    edges = np.array([-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])
    seeded = np.random.default_rng(5).integers(-2**63, 2**63 - 1, size=500,
                                                endpoint=True)
    for x in (edges, seeded):
        for bits in (1, 8, 63, 64):
            half = 1 << (bits - 1)
            assert wrap_to_width(x, bits).tolist() == \
                [(v + half) % (1 << bits) - half for v in x.tolist()]


def test_weights_json_roundtrip(rex_spec):
    weights = gen_network_weights(rex_spec, seed=9)
    text = weights_to_json(weights)
    back = weights_from_json(text)
    for name in weights:
        assert np.array_equal(weights[name]["w"], back[name]["w"])
    with pytest.raises(OracleError, match="corrupt"):
        weights_from_json("{not json")


def test_tensor_fixture_roundtrip(tmp_path):
    x = gen_random((6, 6, 3), 11, 8)
    path = str(tmp_path / "x.cft")
    save_tensor(path, x)
    assert np.array_equal(load_tensor(path), x)
    bad = tmp_path / "bad.cft"
    bad.write_bytes(b"nope")
    with pytest.raises(OracleError):
        load_tensor(str(bad))


def _peaked(rng, shape, bits):
    """Integers of magnitude in [2**bits / 2, 2**bits], one of them 2**bits,
    with random signs: the sums come close to the bound."""
    a = rng.integers((1 << bits) >> 1, 1 << bits, size=shape, dtype=np.int64,
                     endpoint=True)
    a.flat[rng.integers(a.size)] = 1 << bits
    return a * rng.choice(np.array([-1, 1]), size=shape)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["conv", "dw_conv", "pw_conv", "fc"]),
       f=st.integers(1, 6), d_in=st.integers(1, 4), d_out=st.integers(1, 4),
       k=st.integers(1, 3), s=st.integers(1, 3), p=st.integers(0, 2),
       excess=st.integers(-8, 16), data=st.data())
def test_products_exact_across_the_float_switch(kind, f, d_in, d_out, k, s, p,
                                                excess, data):
    """max|x| * max|w| * fan_in lands near 2**(53 + excess), on both sides
    of 2**53: each product equals the Python-int sum reduced mod 2**64, bias
    added."""
    if kind in ("conv", "dw_conv") and k > f + 2 * p:
        k = f + 2 * p
    fan_in = {"conv": d_in * k * k, "dw_conv": k * k, "pw_conv": d_in,
              "fc": f * f * d_in}[kind]
    bits = 53 + excess - (fan_in - 1).bit_length()
    x_bits = data.draw(st.integers(max(0, bits - 62), min(62, bits)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w_shape = {"conv": (d_out, d_in, k, k), "dw_conv": (d_in, k, k),
               "pw_conv": (d_out, d_in), "fc": (d_out, f * f * d_in)}[kind]
    # a trial of a stacked input, as the benchmark passes it: not contiguous
    x = _peaked(rng, (f, f, d_in, 2), x_bits)[..., 0]
    w = _peaked(rng, w_shape, bits - x_bits)
    bias = rng.integers(-1000, 1000, size=w_shape[0], dtype=np.int64)
    if kind == "conv":
        got = ref_conv2d(x, w, bias, s, p)
        want = _brute_conv(x, w, s, p)
    elif kind == "dw_conv":
        got = ref_depthwise(x, w, bias, s, p)
        want = np.concatenate([_brute_conv(x[:, :, i:i + 1], w[i][None, None],
                                           s, p) for i in range(d_in)], axis=2)
    elif kind == "pw_conv":
        got = ref_pointwise(x, w, bias)
        want = _brute_conv(x, w[:, :, None, None], 1, 0)
    else:
        got = ref_fc(x.reshape(-1), w, bias)
        want = np.array([_wrap64(sum(int(a) * int(b)
                                     for a, b in zip(row, x.reshape(-1))))
                         for row in w], dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want + bias)     # int64 bias add wraps too


def test_fc_beyond_float_precision():
    # 2**53 + 1 has no float64: this product must run in int64
    x = np.array([2**53, 1], dtype=np.int64)
    assert ref_fc(x, np.array([[1, 1]]), None).tolist() == [2**53 + 1]


def test_float_bound_edge():
    one = np.array([1])
    assert _exact_dtype(np.array([2**53 - 1]), one, 1) is np.float64
    assert _exact_dtype(np.array([2**53]), one, 1) is np.int64
    assert _exact_dtype(np.array([2**52]), one, 2) is np.int64
    # |int64 minimum| is 2**63, which np.abs cannot hold
    assert _exact_dtype(np.array([-2**63]), one, 1) is np.int64
    assert _exact_dtype(np.array([-2**63]), np.array([0]), 9) is np.float64


def test_oracle_imports_nothing_from_the_simulator():
    """The reference stays independent of the engine it checks."""
    tree = ast.parse(Path(flowcnn.oracle.__file__).read_text())
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # oracle.py sits at the top of the package: level 1 is flowcnn
            parts = (["flowcnn"] if node.level else []) \
                + ([node.module] if node.module else [])
            base = ".".join(parts)
            targets += [base] + [f"{base}.{a.name}" for a in node.names]
    assert "flowcnn.netspec" in targets
    assert not [t for t in targets
                if t == "flowcnn.sim" or t.startswith("flowcnn.sim.")]

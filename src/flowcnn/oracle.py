"""Reference integer inference: the ground truth the simulator must match.

Tensors are numpy int64 arrays in (height, width, channels) layout; pixel n
of a square map sits at (n // f, n % f).  All arithmetic is exact integer
arithmetic.  A lowered average pool is evaluated as the pool it stands for:
the zero-padded window sum, floor-divided by k*k.  Each layer's weights
follow `LayerSpec.weight_shape`.

A convolution, depthwise, pointwise or fully connected product sums
fan_in terms x*w per output (d_in*k*k, k*k, d_in or the flattened width).
It runs in float64 (a BLAS matrix product, or an einsum per channel for
depthwise) when max|x| * max|w| * fan_in < 2**53, computed in Python ints:
every term and every partial sum is then an integer of magnitude below
2**53, which float64 represents exactly, so the result is exact in any order
of addition.  Otherwise it runs in int64, which
wraps mod 2**64.  The bias is added in int64 afterwards.  This rule is the
reference's own: it shares no bound or code with the simulator it checks.
"""

from __future__ import annotations

import json
import struct

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .netspec import LayerKind, LayerSpec, NetworkSpec

FIXTURE_MAGIC = b"CFT1"
FIXTURE_VERSION = 1
EXACT_FLOAT = 1 << 53   # float64 holds every integer below this exactly


class OracleError(Exception):
    pass


def _max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int (exact for the int64 minimum); 0 when empty."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def _exact_dtype(x: np.ndarray, w: np.ndarray, fan_in: int):
    """The dtype in which a product of x by w, fan_in terms per output, is
    exact.

    Every term and every partial sum is at most max|x| * max|w| * fan_in in
    magnitude, whatever the order of addition.  Below 2**53 they are all
    integers that float64 holds exactly, so a float64 (BLAS) product gives
    the exact integer result; otherwise the product runs in int64, which
    wraps mod 2**64.  The bound is computed in Python ints.
    """
    if _max_abs(x) * _max_abs(w) * fan_in < EXACT_FLOAT:
        return np.float64
    return np.int64


def _biased(out: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """The exact product back in int64, plus the bias in int64."""
    out = out.astype(np.int64, copy=False)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return out


def _window_view(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """(rows, cols, k, k, channels) view of all stride-decimated windows."""
    if x.ndim != 3:
        raise OracleError(f"expected (h, w, c) tensor, got shape {x.shape}")
    if p:
        h, w, c = x.shape
        padded = np.zeros((h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        padded[p:p + h, p:p + w] = x
        x = padded
    if x.shape[0] < k or x.shape[1] < k:
        raise OracleError(f"map {x.shape} smaller than window {k}")
    (h, w, c), (sh, sw, sc) = x.shape, x.strides
    return as_strided(x, ((h - k) // s + 1, (w - k) // s + 1, k, k, c),
                      (s * sh, s * sw, sh, sw, sc), writeable=False)


def ref_conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
               s: int, p: int) -> np.ndarray:
    """Exact integer convolution with zero padding and stride decimation:
    the (positions, k*k*d_in) window matrix times the kernel matrix."""
    d_out, d_in, k = w.shape[:3]
    if x.shape[2] != d_in:
        raise OracleError(f"input channels {x.shape[2]} != weights {d_in}")
    dtype = _exact_dtype(x, w, d_in * k * k)
    win = _window_view(x, k, s, p)
    rows, cols = win.shape[:2]
    taps = win.astype(dtype, order="C").reshape(rows * cols, -1)
    kernel = w.transpose(2, 3, 1, 0).reshape(-1, d_out).astype(dtype)
    return _biased(taps @ kernel, bias).reshape(rows, cols, d_out)


def ref_depthwise(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                  s: int, p: int) -> np.ndarray:
    """Per-channel convolution (groups == channels)."""
    if x.shape[2] != w.shape[0]:
        raise OracleError(f"input channels {x.shape[2]} != kernels {w.shape[0]}")
    k = w.shape[1]
    dtype = _exact_dtype(x, w, k * k)
    win = _window_view(x, k, s, p)
    return _biased(np.einsum("rcabi,iab->rci", win, w, dtype=dtype), bias)


def ref_maxpool(x: np.ndarray, k: int, s: int) -> np.ndarray:
    return _window_view(x, k, s, 0).max(axis=(2, 3))


def ref_avgpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    """Zero-padded window sum then floor division by k*k (arithmetic shift
    when k*k is a power of two)."""
    win = _window_view(x, k, s, p)
    return win.sum(axis=(2, 3), dtype=np.int64) // (k * k)


def ref_pointwise(x: np.ndarray, w: np.ndarray,
                  bias: np.ndarray | None) -> np.ndarray:
    dtype = _exact_dtype(x, w, w.shape[1])
    out = x.astype(dtype).reshape(-1, x.shape[2]) @ w.T.astype(dtype)
    return _biased(out, bias).reshape(x.shape[:2] + (w.shape[0],))


def ref_fc(x_flat: np.ndarray, w: np.ndarray,
           bias: np.ndarray | None) -> np.ndarray:
    if x_flat.ndim != 1 or w.shape[1] != x_flat.shape[0]:
        raise OracleError(f"fc shapes: x {x_flat.shape} vs w {w.shape}")
    dtype = _exact_dtype(x_flat, w, x_flat.shape[0])
    return _biased(w.astype(dtype) @ x_flat.astype(dtype), bias)


def wrap_to_width(x: np.ndarray, bits: int) -> np.ndarray:
    """Two's-complement truncation used by the optional requantize mode:
    (x + half) mod 2**bits - half, as a mask of the low bits, which stays
    exact when x + half wraps in int64; at 64 bits or more every int64 is
    its own truncation."""
    if bits >= 64:
        return x
    half = 1 << (bits - 1)
    return ((x + half) & ((1 << bits) - 1)) - half


def apply_layer(layer: LayerSpec, x: np.ndarray, w, bias) -> np.ndarray:
    """One lowered layer; x comes in as (h, w, c) or flat for FC chains."""
    if layer.kind == LayerKind.FC:
        return ref_fc(x.reshape(-1), w, bias).reshape(1, 1, -1)
    if layer.kind == LayerKind.MAXPOOL:
        return ref_maxpool(x, layer.k, layer.s)
    if layer.constant_weights:
        return ref_avgpool(x, layer.k, layer.s, layer.p)
    if layer.kind == LayerKind.DW_CONV:
        return ref_depthwise(x, w, bias, layer.s, layer.p)
    if layer.kind == LayerKind.PW_CONV:
        return ref_pointwise(x, w, bias)
    if layer.kind == LayerKind.CONV:
        return ref_conv2d(x, w, bias, layer.s, layer.p)
    raise OracleError(f"cannot evaluate kind {layer.kind}")


def ref_network(spec: NetworkSpec, weights: dict, x: np.ndarray,
                truncate: bool = False) -> np.ndarray:
    """Layer-by-layer evaluation with the same arithmetic rules as the
    simulator; truncate applies two's-complement wrapping to activation
    width after every layer."""
    if x.shape != tuple(spec.input_shape):
        raise OracleError(f"input {x.shape} != spec {spec.input_shape}")
    acts: list[np.ndarray] = []
    cur = x.astype(np.int64)
    for idx, layer in enumerate(spec.layers):
        name = spec.layer_name(idx)
        if layer.kind == LayerKind.RESIDUAL_ADD:
            cur = cur + acts[layer.residual_source]
        else:
            entry = weights.get(name, {})
            cur = apply_layer(layer, cur, entry.get("w"), entry.get("b"))
        if truncate:
            cur = wrap_to_width(cur, spec.quant.activation_bits)
        acts.append(cur)
    return cur


def gen_random(shape: tuple[int, ...], seed: int, width: int) -> np.ndarray:
    """Reproducible uniform integers over the two's-complement range."""
    rng = np.random.default_rng(seed)
    half = 1 << (width - 1)
    return rng.integers(-half, half, size=shape, dtype=np.int64)


def gen_network_weights(spec: NetworkSpec, seed: int) -> dict:
    """Seeded weights and biases for every layer that has them."""
    rng = np.random.default_rng(seed)
    half = 1 << (spec.quant.weight_bits - 1)
    out: dict = {}
    for idx, layer in enumerate(spec.layers):
        shape = layer.weight_shape
        if shape is None:
            continue
        name = spec.layer_name(idx)
        w = rng.integers(-half, half, size=shape, dtype=np.int64)
        b = rng.integers(-half, half, size=(layer.d_out,), dtype=np.int64)
        out[name] = {"w": w, "b": b}
    return out


def weights_to_json(weights: dict) -> str:
    doc = {}
    for name, entry in weights.items():
        doc[name] = {
            "w": entry["w"].tolist(),
            "b": None if entry.get("b") is None else entry["b"].tolist(),
        }
    return json.dumps(doc, sort_keys=True)


def _int_array(value) -> np.ndarray:
    """JSON integers, nested lists of them, as int64; floats, strings,
    booleans and ragged rows (which stay lists) raise TypeError."""
    arr = np.asarray(value, dtype=object)
    if not all(type(v) is int for v in arr.flat):
        raise TypeError("not an array of JSON integers")
    return arr.astype(np.int64)


def weights_from_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"corrupt weights file: {exc}") from None
    if not isinstance(doc, dict):
        raise OracleError("corrupt weights file: expected an object")
    out = {}
    for name, entry in doc.items():
        if not isinstance(entry, dict) or "w" not in entry:
            raise OracleError(f"corrupt weights file: layer {name!r}")
        try:
            out[name] = {
                "w": _int_array(entry["w"]),
                "b": None if entry.get("b") is None
                     else _int_array(entry["b"]),
            }
        except (TypeError, ValueError, OverflowError):
            # no JSON integers, or values beyond int64
            raise OracleError(f"corrupt weights file: layer {name!r}") \
                from None
    return out


def save_tensor(path: str, x: np.ndarray) -> None:
    """Binary fixture: 16-byte header (magic, version, dims) then
    little-endian int32 values."""
    if x.ndim != 3:
        raise OracleError("fixtures store (h, w, c) tensors")
    header = FIXTURE_MAGIC + struct.pack(
        "<HHHHHxx", FIXTURE_VERSION, x.shape[0], x.shape[1], x.shape[2], 4)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(x.astype("<i4").tobytes())


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != FIXTURE_MAGIC:
            raise OracleError(f"{path}: not a tensor fixture")
        version, h, w, c, itemsize = struct.unpack("<HHHHH", header[4:14])
        if version != FIXTURE_VERSION or itemsize != 4:
            raise OracleError(f"{path}: unsupported fixture version")
        data = np.frombuffer(fh.read(), dtype="<i4")
    if data.size != h * w * c:
        raise OracleError(f"{path}: payload does not match dims")
    return data.reshape(h, w, c).astype(np.int64)

"""Reference integer inference: the ground truth the simulator must match.

Tensors are numpy int64 arrays in (height, width, channels) layout; pixel n
of a square map sits at (n // f, n % f).  All arithmetic is exact integer
arithmetic.  A lowered average pool is evaluated as the pool it stands for:
the zero-padded window sum, floor-divided by k*k.  Each layer's weights
follow `LayerSpec.weight_shape`.
"""

from __future__ import annotations

import json
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .netspec import LayerKind, LayerSpec, NetworkSpec

FIXTURE_MAGIC = b"CFT1"
FIXTURE_VERSION = 1


class OracleError(Exception):
    pass


def _window_view(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """(rows, cols, k, k, channels) view of all stride-decimated windows."""
    if x.ndim != 3:
        raise OracleError(f"expected (h, w, c) tensor, got shape {x.shape}")
    if p:
        x = np.pad(x, ((p, p), (p, p), (0, 0)))
    if x.shape[0] < k or x.shape[1] < k:
        raise OracleError(f"map {x.shape} smaller than window {k}")
    win = sliding_window_view(x, (k, k), axis=(0, 1))   # (H', W', c, k, k)
    return win[::s, ::s].transpose(0, 1, 3, 4, 2)       # (r, c, k, k, ch)


def ref_conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
               s: int, p: int) -> np.ndarray:
    """Exact integer convolution with zero padding and stride decimation."""
    d_out, d_in = w.shape[0], w.shape[1]
    if x.shape[2] != d_in:
        raise OracleError(f"input channels {x.shape[2]} != weights {d_in}")
    win = _window_view(x, w.shape[2], s, p).astype(np.int64, copy=False)
    out = np.tensordot(win, w.astype(np.int64, copy=False),
                       axes=([2, 3, 4], [2, 3, 1]))
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return out


def ref_depthwise(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                  s: int, p: int) -> np.ndarray:
    """Per-channel convolution (groups == channels)."""
    if x.shape[2] != w.shape[0]:
        raise OracleError(f"input channels {x.shape[2]} != kernels {w.shape[0]}")
    win = _window_view(x, w.shape[1], s, p)
    out = np.einsum("rcabi,iab->rci", win, w, dtype=np.int64)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return out


def ref_maxpool(x: np.ndarray, k: int, s: int) -> np.ndarray:
    return _window_view(x, k, s, 0).max(axis=(2, 3))


def ref_avgpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    """Zero-padded window sum then floor division by k*k (arithmetic shift
    when k*k is a power of two)."""
    win = _window_view(x, k, s, p)
    return win.sum(axis=(2, 3), dtype=np.int64) // (k * k)


def ref_pointwise(x: np.ndarray, w: np.ndarray,
                  bias: np.ndarray | None) -> np.ndarray:
    out = np.einsum("rci,oi->rco", x, w, dtype=np.int64)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return out


def ref_fc(x_flat: np.ndarray, w: np.ndarray,
           bias: np.ndarray | None) -> np.ndarray:
    if x_flat.ndim != 1 or w.shape[1] != x_flat.shape[0]:
        raise OracleError(f"fc shapes: x {x_flat.shape} vs w {w.shape}")
    out = w.astype(np.int64) @ x_flat.astype(np.int64)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.int64)
    return out


def wrap_to_width(x: np.ndarray, bits: int) -> np.ndarray:
    """Two's-complement truncation used by the optional requantize mode."""
    span = 1 << bits
    half = span >> 1
    return (x + half) % span - half


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

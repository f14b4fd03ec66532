"""Declarative description of continuous-flow CNN inference networks.

The network document is a JSON object:

    {
      "input":  {"height": 24, "width": 24, "channels": 1, "rate": "1"},
      "quant":  {"weight_bits": 8, "activation_bits": 8},
      "layers": [
        {"kind": "conv",    "k": 5, "s": 1, "p": 2, "d_out": 8},
        {"kind": "maxpool", "k": 2, "s": 2},
        {"kind": "fc",      "d_out": 10}
      ]
    }

``rate`` strings are exact fractions ("4/9"); when omitted the input rate
defaults to the channel count (one full pixel per clock cycle).  Feature maps
are square.  Channel counts chain layer to layer, so layers only declare
``d_out``; ``f`` may be given redundantly and is then checked against the
chain.

Parsing lowers composite layers before any analysis:

  * average pooling becomes a depthwise convolution with constant unit
    weights and a final floor division by k*k,
  * a depthwise-separable convolution becomes a depthwise stage followed by
    a pointwise stage; the link between the two is marked internal.

Fully connected layers are modeled as convolutions with k = f = s over the
flattened feature vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction


class SpecError(Exception):
    """Base class for network-document problems."""


class SchemaError(SpecError):
    """The document does not conform to the schema (carries a JSON path)."""


class ValidationError(SpecError):
    """The document parses but violates a structural invariant."""


class LayerKind(str, Enum):
    CONV = "conv"
    DW_SEPARABLE = "dw_separable"
    DW_CONV = "dw_conv"
    PW_CONV = "pw_conv"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    FC = "fc"
    RESIDUAL_ADD = "residual_add"


# Kinds that survive lowering.  DW_SEPARABLE and AVGPOOL never appear in a
# parsed NetworkSpec.
LOWERED_KINDS = {
    LayerKind.CONV,
    LayerKind.DW_CONV,
    LayerKind.PW_CONV,
    LayerKind.MAXPOOL,
    LayerKind.FC,
    LayerKind.RESIDUAL_ADD,
}


# The keys a document layer may carry
DOCUMENT_KEYS = {"kind", "name", "f", "k", "s", "p", "d_out",
                 "residual_source", "internal_input"}


@dataclass(frozen=True)
class QuantFormat:
    """Two's-complement fixed-point widths for weights and activations."""

    weight_bits: int = 8
    activation_bits: int = 8


@dataclass(frozen=True)
class LayerSpec:
    """One lowered layer.

    f is the input feature-map side, k the kernel side, s the stride and p
    the zero padding per side.  d_in/d_out are channel counts.  For FC
    layers k = f = s and d_in is the channel count of the incoming tensor;
    the flattened width is ``feature_count``.
    """

    kind: LayerKind
    f: int
    k: int
    s: int
    p: int
    d_in: int
    d_out: int
    residual_source: int | None = None
    name: str = ""
    # Lowering artifacts
    constant_weights: bool = False   # avgpool lowered to dw conv
    internal_input: bool = False     # input link lives inside a lowered pair

    @property
    def f_out(self) -> int:
        """Output feature-map side: floor((f - k + 2p) / s) + 1."""
        return (self.f - self.k + 2 * self.p) // self.s + 1

    @property
    def feature_count(self) -> int:
        """Flattened input width (used by FC sizing)."""
        return self.f * self.f * self.d_in

    @property
    def weight_shape(self) -> tuple[int, ...] | None:
        """The layer's trained kernel layout, None for a layer without one
        (max pooling, residual merges, a lowered average pool):

          conv        (d_out, d_in, k, k)        depthwise  (d, k, k)
          pointwise   (d_out, d_in)              fc         (d_out, f*f*d_in)

        A lowered average pool's unit kernel and k*k divisor belong to the
        lowering.  Every axis after the first is summed into one output
        value.  A layer with weights has one bias per output channel.
        """
        if self.constant_weights:
            return None
        if self.kind == LayerKind.CONV:
            return (self.d_out, self.d_in, self.k, self.k)
        if self.kind == LayerKind.DW_CONV:
            return (self.d_in, self.k, self.k)
        if self.kind == LayerKind.PW_CONV:
            return (self.d_out, self.d_in)
        if self.kind == LayerKind.FC:
            return (self.d_out, self.feature_count)
        return None

    @property
    def weight_count(self) -> int:
        """Trained parameters, excluding biases."""
        from math import prod
        shape = self.weight_shape
        return 0 if shape is None else prod(shape)

    @property
    def has_weights(self) -> bool:
        return self.weight_shape is not None


@dataclass
class NetworkSpec:
    """A validated, lowered network plus its input contract."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]   # (height, width, channels)
    input_rate: Fraction                # valid input features per cycle
    quant: QuantFormat = QuantFormat()

    @property
    def d0(self) -> int:
        return self.input_shape[2]

    def layer_name(self, idx: int) -> str:
        return self.layers[idx].name or f"L{idx}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str        # "error" | "warning"
    layer: int | None
    message: str

    def __str__(self) -> str:
        where = "network" if self.layer is None else f"layer {self.layer}"
        return f"{self.severity}: {where}: {self.message}"


def _require(obj: dict, key: str, path: str, types, default=None) -> object:
    if key not in obj:
        if default is not None:
            return default
        raise SchemaError(f"{path}: missing key {key!r}")
    val = obj[key]
    # JSON true and false are Python ints too; only a bool field takes them
    if not isinstance(val, types) or isinstance(val, bool) != (types is bool):
        raise SchemaError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _positive(obj: dict, key: str, path: str, default=None, minimum=1) -> int:
    val = _require(obj, key, path, int, default)
    if val < minimum:
        raise SchemaError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _lower_raw_layer(raw: dict, idx: int, f: int, d_in: int) -> list[LayerSpec]:
    """Turn one document layer into its lowered LayerSpec run."""
    path = f"layers[{idx}]"
    kind_text = _require(raw, "kind", path, str)
    try:
        kind = LayerKind(kind_text)
    except ValueError:
        raise SchemaError(f"{path}.kind: unknown kind {kind_text!r}") from None
    name = _require(raw, "name", path, str, "")
    internal = _require(raw, "internal_input", path, bool, False)
    if "internal_input" in raw and kind != LayerKind.PW_CONV:
        raise SchemaError(f"{path}.internal_input: only a pw_conv row "
                          f"takes it")
    unknown = [key for key in raw if key not in DOCUMENT_KEYS]
    if unknown:
        hint = "; write an average pool as kind 'avgpool'" \
            if kind == LayerKind.DW_CONV else ""
        raise SchemaError(f"{path}.{unknown[0]}: unknown key{hint}")

    if kind in (LayerKind.MAXPOOL, LayerKind.AVGPOOL):
        k = _positive(raw, "k", path)
        s = _positive(raw, "s", path, default=k)
        p = _positive(raw, "p", path, default=0, minimum=0)
        d_out = _positive(raw, "d_out", path, default=d_in)
        if kind == LayerKind.AVGPOOL:
            # constant 1/(k*k) weights, realised as unit weights + floor shift
            return [LayerSpec(LayerKind.DW_CONV, f, k, s, p, d_in, d_out,
                              name=name, constant_weights=True)]
        return [LayerSpec(kind, f, k, s, p, d_in, d_out, name=name)]

    if kind == LayerKind.FC:
        d_out = _positive(raw, "d_out", path)
        return [LayerSpec(kind, f, f, f, 0, d_in, d_out, name=name)]

    if kind == LayerKind.RESIDUAL_ADD:
        src = _require(raw, "residual_source", path, int)
        d_out = _positive(raw, "d_out", path, default=d_in)
        return [LayerSpec(kind, f, 1, 1, 0, d_in, d_out, name=name,
                          residual_source=src)]

    k = _positive(raw, "k", path, default=1 if kind == LayerKind.PW_CONV else None)
    s = _positive(raw, "s", path, default=1)
    p = _positive(raw, "p", path, default=0, minimum=0)
    d_out = _positive(raw, "d_out", path,
                      default=d_in if kind == LayerKind.DW_CONV else None)

    if kind == LayerKind.DW_SEPARABLE:
        dw = LayerSpec(LayerKind.DW_CONV, f, k, s, p, d_in, d_in,
                       name=f"{name}.dw" if name else "")
        if dw.f_out < 1:
            return [dw]   # its window does not fit: nothing chains after it
        pw = LayerSpec(LayerKind.PW_CONV, dw.f_out, 1, 1, 0, d_in, d_out,
                       name=f"{name}.pw" if name else "", internal_input=True)
        return [dw, pw]
    if kind == LayerKind.PW_CONV:
        return [LayerSpec(kind, f, 1, 1, 0, d_in, d_out, name=name,
                          internal_input=internal)]
    return [LayerSpec(kind, f, k, s, p, d_in, d_out, name=name)]


def parse_network(document: str | dict) -> NetworkSpec:
    """Parse, lower and validate a network document.

    Raises SchemaError for malformed documents and ValidationError when a
    structural invariant (shape chain, channel rules) fails.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("top level: expected an object")

    inp = _require(document, "input", "$", dict)
    height = _positive(inp, "height", "input")
    width = _positive(inp, "width", "input")
    channels = _positive(inp, "channels", "input")
    if height != width:
        raise SchemaError("input: feature maps must be square (height == width)")
    rate_text = _require(inp, "rate", "input", (str, int), channels)
    try:
        rate = Fraction(rate_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rate {rate_text!r}: {exc}") from None

    quant_doc = document.get("quant", {})
    if not isinstance(quant_doc, dict):
        raise SchemaError("quant: expected an object")
    quant = QuantFormat(
        weight_bits=_positive(quant_doc, "weight_bits", "quant", default=8),
        activation_bits=_positive(quant_doc, "activation_bits", "quant", default=8),
    )

    raw_layers = _require(document, "layers", "$", list)
    if not raw_layers:
        raise ValidationError("layers: network has no layers")

    layers: list[LayerSpec] = []
    doc_to_lowered: dict[int, int] = {}
    f, d = height, channels
    for idx, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise SchemaError(f"layers[{idx}]: expected an object")
        if "f" in raw and _require(raw, "f", f"layers[{idx}]", int) != f:
            raise ValidationError(
                f"layers[{idx}]: declared f={raw['f']} but the chain from "
                f"layer {idx - 1} gives f={f}")
        lowered = _lower_raw_layer(raw, idx, f, d)
        if lowered[0].residual_source is not None:
            src = lowered[0].residual_source
            if src not in doc_to_lowered:
                raise ValidationError(
                    f"layers[{idx}]: residual_source {src} does not name an "
                    f"earlier layer")
            lowered = [replace(lowered[0], residual_source=doc_to_lowered[src])]
        layers.extend(lowered)
        doc_to_lowered[idx] = len(layers) - 1
        f, d = lowered[-1].f_out, lowered[-1].d_out
        if f < 1:
            break   # the window does not fit, which validation reports

    spec = NetworkSpec(layers, (height, width, channels), rate, quant)
    errors = [d for d in validate_network(spec) if d.severity == "error"]
    if errors:
        raise ValidationError("; ".join(str(e) for e in errors))
    return spec


def validate_network(spec: NetworkSpec) -> list[Diagnostic]:
    """Check every invariant; returns diagnostics instead of raising."""
    out: list[Diagnostic] = []
    err = lambda i, msg: out.append(Diagnostic("error", i, msg))
    warn = lambda i, msg: out.append(Diagnostic("warning", i, msg))

    if not spec.layers:
        err(None, "network has no layers")
        return out
    if spec.input_rate <= 0:
        err(None, f"input rate {spec.input_rate} must be positive")
    if spec.input_rate > spec.d0:
        err(None, f"input rate {spec.input_rate} exceeds one pixel per cycle "
                  f"(channels = {spec.d0})")
    if max(spec.quant.weight_bits, spec.quant.activation_bits) > 64:
        err(None, f"weight_bits {spec.quant.weight_bits} and activation_bits "
                  f"{spec.quant.activation_bits} must be at most 64")

    f, d = spec.input_shape[0], spec.d0
    seen_fc = False
    first_named: dict[str, int] = {}   # weights are looked up by layer name
    for i, ly in enumerate(spec.layers):
        name = spec.layer_name(i)
        if first_named.setdefault(name, i) != i:
            err(i, f"name {name!r} already names layer {first_named[name]}")
        if ly.kind not in LOWERED_KINDS:
            err(i, f"kind {ly.kind.value} must be lowered before analysis")
            continue
        if ly.f != f or ly.d_in != d:
            err(i, f"shape chain mismatch: layer {i - 1} produces "
                   f"(f={f}, d={d}) but layer {i} expects "
                   f"(f={ly.f}, d={ly.d_in})")
        if ly.k > ly.f + 2 * ly.p:
            err(i, f"kernel k={ly.k} larger than padded map "
                   f"f+2p={ly.f + 2 * ly.p}")
        if 2 * ly.p > ly.k - 1:
            # windows anchored in the map would leave the pixel stream
            err(i, f"padding p={ly.p} exceeds (k-1)/2; over-padded windows "
                   f"cannot anchor in the stream")
        if ly.kind == LayerKind.MAXPOOL:
            if ly.s > ly.k:
                err(i, f"pooling stride s={ly.s} exceeds window k={ly.k}")
            if ly.d_out != ly.d_in:
                err(i, f"pooling preserves channels: d_in={ly.d_in} != "
                       f"d_out={ly.d_out}")
            if ly.p != 0:
                err(i, "pooling layers do not support padding")
        if ly.kind == LayerKind.DW_CONV and ly.d_out != ly.d_in:
            # only full depthwise grouping (g = d_in) is supported
            err(i, f"depthwise conv requires d_out == d_in, got "
                   f"{ly.d_out} != {ly.d_in}")
        if ly.kind == LayerKind.CONV and ly.s == 1 and ly.p != (ly.k - 1) // 2:
            warn(i, f"output is not continuous without padding "
                    f"p=(k-1)/2={(ly.k - 1) // 2} (got p={ly.p})")
        if ly.kind == LayerKind.RESIDUAL_ADD:
            src = ly.residual_source
            if src is None or not (0 <= src < i):
                err(i, "residual_source must name an earlier layer")
            else:
                source = spec.layers[src]
                if source.f_out != ly.f or source.d_out != ly.d_in:
                    err(i, f"residual merge shape mismatch with layer {src}")
        if seen_fc and ly.kind != LayerKind.FC:
            err(i, "only fully connected layers may follow a fully "
                   "connected layer")
        seen_fc = seen_fc or ly.kind == LayerKind.FC
        f, d = ly.f_out, ly.d_out
    return out


def serialize_network(spec: NetworkSpec) -> dict:
    """Emit the lowered document form, one row per lowered layer, with f
    declared; parse(serialize(s)) == s.  A lowered average pool is written
    back as its `avgpool` row, which parsing lowers again."""
    layers = []
    for ly in spec.layers:
        kind = LayerKind.AVGPOOL if ly.constant_weights else ly.kind
        row: dict = {"kind": kind.value, "f": ly.f, "k": ly.k,
                     "s": ly.s, "p": ly.p, "d_out": ly.d_out}
        if ly.kind == LayerKind.FC:
            row = {"kind": ly.kind.value, "f": ly.f, "d_out": ly.d_out}
        if ly.kind == LayerKind.RESIDUAL_ADD:
            row["residual_source"] = ly.residual_source
        if ly.internal_input:
            row["internal_input"] = True
        if ly.name:
            row["name"] = ly.name
        layers.append(row)
    h, w, c = spec.input_shape
    return {
        "input": {"height": h, "width": w, "channels": c,
                  "rate": str(spec.input_rate)},
        "quant": {"weight_bits": spec.quant.weight_bits,
                  "activation_bits": spec.quant.activation_bits},
        "layers": layers,
    }


def load_network_file(path: str) -> NetworkSpec:
    """Parse a network document from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())

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

``DOCUMENT_FIELDS``, ``INPUT_FIELDS``, ``QUANT_FIELDS`` and
``LAYER_FIELDS[kind]`` (a row also takes ``kind``, ``name`` and ``f``) map
each field of an object to its default: None if required, or another
field's name to default to its value (a pool's ``s`` to ``k``, ``d_out`` to
``d_in``, ``rate`` to ``channels``: one pixel per cycle).  A row states a
``FIXED[kind]`` field only at its default.  Integers lie in [1, MAX_INT],
``p`` and ``residual_source`` from 0.  One reader checks every object and
rejects a key its table lacks; ``serialize_network`` writes the same table.

``rate`` strings are exact fractions ("4/9").  Feature maps are square.
Channel counts chain layer to layer, so layers only declare ``d_out``; a
declared ``f`` is checked against the chain.

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
from math import prod


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


# The largest integer a document may give: MobileNetV1's 224 px and 1,024
# channels fit with room to spare, and loops over divisors of d_out stay short
MAX_INT = 2 ** 16

DOCUMENT_FIELDS = {"input": None, "quant": {}, "layers": None}
INPUT_FIELDS = {"height": None, "width": None, "channels": None,
                "rate": "channels"}
QUANT_FIELDS = {"weight_bits": 8, "activation_bits": 8}
LAYER_FIELDS = {
    LayerKind.CONV: {"k": None, "s": 1, "p": 0, "d_out": None},
    LayerKind.DW_SEPARABLE: {"k": None, "s": 1, "p": 0, "d_out": None},
    LayerKind.DW_CONV: {"k": None, "s": 1, "p": 0, "d_out": "d_in"},
    LayerKind.PW_CONV: {"k": 1, "s": 1, "p": 0, "d_out": None,
                        "internal_input": False},
    LayerKind.MAXPOOL: {"k": None, "s": "k", "p": 0, "d_out": "d_in"},
    LayerKind.AVGPOOL: {"k": None, "s": "k", "p": 0, "d_out": "d_in"},
    LayerKind.FC: {"d_out": None},
    LayerKind.RESIDUAL_ADD: {"k": 1, "s": 1, "p": 0, "d_out": "d_in",
                             "residual_source": None},
}
# Fields the lowering fixes at their default (only full depthwise grouping,
# g = d_in, is supported)
FIXED = {LayerKind.DW_CONV: ("d_out",), LayerKind.PW_CONV: ("k", "s", "p"),
         LayerKind.MAXPOOL: ("p", "d_out"), LayerKind.AVGPOOL: ("d_out",),
         LayerKind.RESIDUAL_ADD: ("k", "s", "p", "d_out")}
# JSON types other than integer, and integer minimums other than 1
_TYPES = {"kind": (str,), "name": (str,), "rate": (str, int),
          "internal_input": (bool,), "input": (dict,), "quant": (dict,),
          "layers": (list,)}
_MINIMUM = {"p": 0, "residual_source": 0}


def _table(fields: dict, fixed=()) -> dict:
    """Resolve a field table once: field -> (types, default, min, fixed)."""
    return {key: (_TYPES.get(key, (int,)), default, _MINIMUM.get(key, 1),
                  key in fixed) for key, default in fields.items()}


_DOCUMENT, _INPUT, _QUANT = map(_table, (DOCUMENT_FIELDS, INPUT_FIELDS,
                                       QUANT_FIELDS))
_LAYER = {kind: _table({"kind": None, "f": "f", **fields, "name": ""},
                       FIXED.get(kind, ()))
          for kind, fields in LAYER_FIELDS.items()}


@dataclass(frozen=True, slots=True)
class QuantFormat:
    """Two's-complement fixed-point widths for weights and activations."""

    weight_bits: int = 8
    activation_bits: int = 8


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: str        # "error" | "warning"
    layer: int | None
    message: str

    def __str__(self) -> str:
        where = "network" if self.layer is None else f"layer {self.layer}"
        return f"{self.severity}: {where}: {self.message}"


def _read(obj, table: dict, path: str, known: dict, hint: str = "") -> dict:
    """Read the JSON object `obj` at `path` against a resolved field table;
    returns every field's value, defaults filled in.  A default that names a
    field takes its value, read earlier or given in `known`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if not table.keys() >= obj.keys():
        key = next(key for key in obj if key not in table)
        raise SchemaError(f"{path}.{key}: unknown key{hint}")
    values = dict(known)
    for key, (types, default, minimum, fixed) in table.items():
        if type(default) is str:   # a field name, or the empty layer name
            default = values.get(default, default)
        if key not in obj:
            if default is None:
                raise SchemaError(f"{path}: missing key {key!r}")
            values[key] = default
            continue
        val = values[key] = obj[key]
        # exact JSON types: true and false are not integers
        if type(val) not in types:
            raise SchemaError(f"{path}.{key}: expected "
                              f"{' or '.join(t.__name__ for t in types)}, "
                              f"got {type(val).__name__}")
        if type(val) is int and not minimum <= val <= MAX_INT:
            raise SchemaError(f"{path}.{key}: must be in [{minimum}, "
                              f"{MAX_INT}], got {val}")
        if fixed and val != default:
            raise SchemaError(f"{path}.{key}: the lowering fixes it at "
                              f"{default}, got {val}")
    return values


def _lower_row(raw, idx: int, f: int, d_in: int) -> list[LayerSpec]:
    """Read one document layer and turn it into its lowered LayerSpec run."""
    path = f"layers[{idx}]"
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    if "kind" not in raw:
        raise SchemaError(f"{path}: missing key 'kind'")
    try:
        kind = LayerKind(raw["kind"])
    except ValueError:
        raise SchemaError(f"{path}.kind: unknown kind {raw['kind']!r}") from None
    hint = "; write an average pool as kind 'avgpool'" \
        if kind == LayerKind.DW_CONV else ""
    row = _read(raw, _LAYER[kind], path, {"f": f, "d_in": d_in}, hint)
    if row["f"] != f:
        raise ValidationError(
            f"{path}: declared f={row['f']} but the chain from layer "
            f"{idx - 1} gives f={f}")
    name, d_out = row["name"], row["d_out"]
    k, s, p = (f, f, 0) if kind == LayerKind.FC else (row["k"], row["s"],
                                                      row["p"])
    if kind == LayerKind.DW_SEPARABLE:
        dw = LayerSpec(LayerKind.DW_CONV, f, k, s, p, d_in, d_in,
                       name=f"{name}.dw" if name else "")
        if dw.f_out < 1:
            return [dw]   # its window does not fit: nothing chains after it
        pw = LayerSpec(LayerKind.PW_CONV, dw.f_out, 1, 1, 0, d_in, d_out,
                       name=f"{name}.pw" if name else "", internal_input=True)
        return [dw, pw]
    # an average pool's 1/(k*k) weights: unit weights, then a floor shift
    avg = kind == LayerKind.AVGPOOL
    return [LayerSpec(LayerKind.DW_CONV if avg else kind, f, k, s, p, d_in,
                      d_out, residual_source=row.get("residual_source"),
                      name=name, constant_weights=avg,
                      internal_input=row.get("internal_input", False))]


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
    top = _read(document, _DOCUMENT, "$", {})
    inp = _read(top["input"], _INPUT, "input", {})
    height, width, channels = inp["height"], inp["width"], inp["channels"]
    if height != width:
        raise SchemaError("input: feature maps must be square (height == width)")
    try:
        rate = Fraction(inp["rate"])
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rate {inp['rate']!r}: {exc}") from None
    quant = QuantFormat(**_read(top["quant"], _QUANT, "quant", {}))

    if not top["layers"]:
        raise ValidationError("layers: network has no layers")
    layers: list[LayerSpec] = []
    doc_to_lowered: dict[int, int] = {}
    f, d = height, channels
    for idx, raw in enumerate(top["layers"]):
        lowered = _lower_row(raw, idx, f, d)
        if (src := lowered[0].residual_source) is not None:
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
    num, den = spec.input_rate.numerator, spec.input_rate.denominator
    if num <= 0:
        err(None, f"input rate {spec.input_rate} must be positive")
    if num > spec.d0 * den:
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
        if ly.kind in (LayerKind.DW_SEPARABLE, LayerKind.AVGPOOL):
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
        if ly.kind == LayerKind.MAXPOOL and ly.s > ly.k:
            err(i, f"pooling stride s={ly.s} exceeds window k={ly.k}")
        for key in FIXED.get(ly.kind, ()):
            want = LAYER_FIELDS[ly.kind][key]
            want = getattr(ly, want) if type(want) is str else want
            if getattr(ly, key) != want:
                err(i, f"{ly.kind.value} takes {key}={want} only, got "
                       f"{key}={getattr(ly, key)}")
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
    declared; parse(serialize(s)) == s.  Each row holds its kind's table
    fields, a flag only when set.  A lowered average pool is written back
    as its `avgpool` row, which parsing lowers again."""
    layers = []
    for ly in spec.layers:
        kind = LayerKind.AVGPOOL if ly.constant_weights else ly.kind
        row: dict = {"kind": kind.value, "f": ly.f}
        for key in LAYER_FIELDS[kind]:
            if getattr(ly, key) is not False:
                row[key] = getattr(ly, key)
        if ly.name:
            row["name"] = ly.name
        layers.append(row)
    return {
        "input": dict(zip(INPUT_FIELDS, (*spec.input_shape,
                                         str(spec.input_rate)))),
        "quant": {key: getattr(spec.quant, key) for key in QUANT_FIELDS},
        "layers": layers,
    }


def load_network_file(path: str) -> NetworkSpec:
    """Parse a network document from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())

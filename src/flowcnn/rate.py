"""Exact data-rate propagation, configuration counts, output-validity
predicates and the layout of padded maps on a stream.

Rates are `fractions.Fraction`s at every interface: a layer fed d_in-channel
pixels at r_in valid features per cycle produces

    r_out = d_out * r_in / (d_in * s^2)

valid features per cycle, for every layer kind.  Rates are only rounded in
human-readable reports; 4/9 and 5/288 must compose without drift.  Inside,
each formula is evaluated on the integer numerator and denominator of r_in
(an int rate has both), so a layer's rates cost one `Fraction` build (two
when it stalls), not one per operation: ceil(r) is -(-num // den) and a rate
is compared with a bound by cross-multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .netspec import LayerKind, LayerSpec, NetworkSpec

Rate = Fraction
_ONE = Fraction(1)   # the utilization of every layer that does not stall

# the kinds that run on window units (KPUs or PPUs)
WINDOW_KINDS = frozenset({LayerKind.CONV, LayerKind.DW_CONV,
                          LayerKind.MAXPOOL})


class Flow(Enum):
    CONTINUOUS = "continuous"
    RESTORED_BY_INTERLEAVING = "restored"
    STALLED = "stalled"


@dataclass(frozen=True, slots=True)
class LayerRateInfo:
    r_in: Rate
    r_out: Rate
    flow: Flow
    utilization: Fraction


def output_rate(d_in: int, d_out: int, r_in: Rate, s: int) -> Rate:
    """Valid output features per cycle for any layer kind."""
    num, den = r_in.numerator, r_in.denominator
    if d_in <= 0 or d_out <= 0 or s <= 0 or num <= 0:
        raise ValueError("rate arguments must be positive")
    return Fraction(d_out * num, d_in * s * s * den)


def valid_output_positions(f: int, k: int, s: int, p: int) -> np.ndarray:
    """Positions n = r*f + c of the valid windows in row-major order: the
    grid of rows and columns 0, s, 2s, ..., f - k + 2p, where a window
    anchored at row r and column c yields an output (2p <= k-1 keeps the
    grid inside the map)."""
    g = np.arange(0, f - k + 2 * p + 1, s)
    return (g[:, None] * f + g).ravel()


def pad_gates(f: int, k: int, p: int) -> np.ndarray:
    """(f, k) 0/1 gates: row c holds the gate of each multiplier column i
    while the input pixel at map column c streams in; 0 masks the column
    to realise implicit zero padding."""
    c = np.arange(f)[:, None]
    i = np.arange(k)
    return ((c >= p - k + 1 + i) & (c < f - p + i)).astype(np.int64)


def map_stream(f: int, p: int) -> tuple[int, int]:
    """Lay feature maps back to back on one implicitly padded stream.

    Each map is preceded by prefix = p*(f+1) zero positions, so it takes
    period = f*f + prefix positions; the trailing zeros of one map double
    as the next map's top padding and one more prefix closes the stream.
    Returns (prefix, period).  Position x + prefix carries pixel n of map
    m, where (m, n) = divmod(x, period), if n < f*f, and a padding zero
    otherwise; a unit with latency L completes the window anchored there at
    position x + L.
    """
    prefix = p * (f + 1)
    return prefix, f * f + prefix


def stream_count(r: Rate) -> int:
    """ceil(r): the unit streams that carry r features per cycle."""
    return -(-r.numerator // r.denominator)


def interleave_count(kind: LayerKind, d_out: int, r_in: Rate) -> int:
    """I: the output channels on one KPU stream at input rate r_in, which
    is ceil(1/r_in) capped at d_out for a standard conv and 1 otherwise."""
    if kind != LayerKind.CONV:
        return 1
    return min(-(-r_in.denominator // r_in.numerator), d_out)


def config_count(kind: LayerKind, d_in: int, d_out: int, r_in: Rate) -> int:
    """C = q * I: the configurations a KPU or PPU cycles through per stream
    position at input rate r_in, and the slots the engine runs there.  Each
    of the ceil(r_in) unit streams carries q = ceil(d_in / ceil(r_in)) input
    channels, and each of them meets I output channels in turn."""
    return -(-d_in // stream_count(r_in)) * interleave_count(kind, d_out, r_in)


def classify_flow(layer: LayerSpec, r_in: Rate) -> LayerRateInfo:
    """Continuous / restored-by-interleaving / stalled, plus utilization.

    A position takes C slots and the input supplies one every d_in/r_in
    cycles, so utilization is min(1, r_in * C / d_in): the layer stalls when
    r_in * C < d_in, where interleaving cannot hide the idle cycles, and is
    restored when C > 1 slots fill the pace.  FCU-fed and merge layers
    (outside WINDOW_KINDS) absorb slow input and never stall.
    """
    r_out = output_rate(layer.d_in, layer.d_out, r_in, layer.s)
    if layer.kind not in WINDOW_KINDS:
        return LayerRateInfo(r_in, r_out, Flow.CONTINUOUS, _ONE)

    c = config_count(layer.kind, layer.d_in, layer.d_out, r_in)
    fill, pace = r_in.numerator * c, r_in.denominator * layer.d_in
    if fill < pace:
        return LayerRateInfo(r_in, r_out, Flow.STALLED, Fraction(fill, pace))
    flow = Flow.RESTORED_BY_INTERLEAVING if c > 1 else Flow.CONTINUOUS
    return LayerRateInfo(r_in, r_out, flow, _ONE)


def propagate_rates(spec: NetworkSpec) -> list[LayerRateInfo]:
    """Chain rates from the input through every layer.

    The first layer sees the input rate (defaulting to d_0, one pixel per
    cycle); a residual merge runs at the lower of its two source rates.
    """
    infos: list[LayerRateInfo] = []
    r = spec.input_rate
    for layer in spec.layers:
        if layer.kind == LayerKind.RESIDUAL_ADD:
            r = min(r, infos[layer.residual_source].r_out)
        info = classify_flow(layer, r)
        infos.append(info)
        r = info.r_out
    return infos

"""Exact data-rate propagation, configuration counts, output-validity
predicates and the layout of padded maps on a stream.

Rates are `fractions.Fraction` end to end: a layer fed d_in-channel pixels at
r_in valid features per cycle produces

    r_out = d_out * r_in / (d_in * s^2)

valid features per cycle, for every layer kind.  Rates are only rounded in
human-readable reports; 4/9 and 5/288 must compose without drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .netspec import LayerKind, LayerSpec, NetworkSpec

Rate = Fraction


class Flow(Enum):
    CONTINUOUS = "continuous"
    RESTORED_BY_INTERLEAVING = "restored"
    STALLED = "stalled"


@dataclass(frozen=True)
class LayerRateInfo:
    r_in: Rate
    r_out: Rate
    flow: Flow
    utilization: Fraction


def output_rate(d_in: int, d_out: int, r_in: Rate, s: int) -> Rate:
    """Valid output features per cycle for any layer kind."""
    if d_in <= 0 or d_out <= 0 or s <= 0 or r_in <= 0:
        raise ValueError("rate arguments must be positive")
    return Fraction(d_out) * r_in / (d_in * s * s)


def output_valid(n: int, f: int, k: int, s: int, p: int) -> bool:
    """Whether the sliding window anchored at position n yields an output.

    n = r*f + c indexes the (implicitly padded) stream; the window is valid
    when both r and c lie in {0, s, 2s, ..., f - k + 2p}.
    """
    if not 0 <= n < f * f:
        raise ValueError(f"position {n} outside feature map of side {f}")
    r, c = divmod(n, f)
    hi = f - k + 2 * p
    return r <= hi and c <= hi and r % s == 0 and c % s == 0


def valid_output_positions(f: int, k: int, s: int, p: int) -> list[int]:
    return [n for n in range(f * f) if output_valid(n, f, k, s, p)]


def valid_output_count(f: int, k: int, s: int, p: int) -> int:
    """((f - k + 2p) // s + 1)^2, the output grid size squared."""
    side = (f - k + 2 * p) // s + 1
    return side * side


def pad_select(c: int, i: int, f: int, k: int, p: int) -> int:
    """Gate bit for multiplier column i while the input pixel at column c
    streams in; 0 masks the column to realise implicit zero padding."""
    if c >= f - p + i:
        return 0
    if c < p - k + i + 1:
        return 0
    return 1


def pad_tuple(c: int, f: int, k: int, p: int) -> tuple[int, ...]:
    return tuple(pad_select(c, i, f, k, p) for i in range(k))


def map_stream(f: int, p: int, n_maps: int
               ) -> tuple[int, int, list[tuple[int, int] | None]]:
    """Lay feature maps back to back on one implicitly padded stream.

    Each map is preceded by prefix = p*(f+1) zero positions, so it takes
    period = f*f + prefix positions; the trailing zeros of one map double
    as the next map's top padding and one more prefix closes the stream.
    Returns (prefix, period, anchors) with anchors[x] = (map, n) for the
    window anchored at padded position n of that map (also the pixel that
    streams in at position x + prefix), or None for a padding slot.  The
    window a unit with latency L completes at position t is anchors[t - L].
    """
    prefix = p * (f + 1)
    pads = [None] * prefix
    anchors: list[tuple[int, int] | None] = []
    for m in range(n_maps):
        anchors += [(m, n) for n in range(f * f)]
        anchors += pads
    return prefix, f * f + prefix, anchors


def config_count(kind: LayerKind, d_in: int, d_out: int, r_in: Rate) -> int:
    """C: the configurations one unit cycles through at input rate r_in.

    A KPU interleaves ceil(d_in / r_in) weight configurations, capped by the
    kernels it can hold (d_in * d_out standard, d_in depthwise); a PPU
    interleaves the d_in channels over its ceil(r_in) units.
    """
    if kind == LayerKind.MAXPOOL:
        return -(-d_in // math.ceil(r_in))
    if kind == LayerKind.CONV:
        cap = d_in * d_out
    elif kind == LayerKind.DW_CONV:
        cap = d_in
    else:
        raise ValueError(f"cannot classify kind {kind}")
    return min(math.ceil(Fraction(d_in) / r_in), cap)


def classify_flow(layer: LayerSpec, r_in: Rate) -> LayerRateInfo:
    """Continuous / restored-by-interleaving / stalled, plus utilization.

    A layer stalls when its configuration count hits the min() cap, i.e.
    interleaving can no longer hide the idle cycles; utilization is
    min(1, r_in * C / d_in).  FCU-based layers (fully connected, pointwise)
    absorb slow input by construction and never stall.
    """
    r_out = output_rate(layer.d_in, layer.d_out, r_in, layer.s)
    if layer.kind in (LayerKind.FC, LayerKind.PW_CONV, LayerKind.RESIDUAL_ADD):
        return LayerRateInfo(r_in, r_out, Flow.CONTINUOUS, Fraction(1))

    c = config_count(layer.kind, layer.d_in, layer.d_out, r_in)
    util = min(Fraction(1), r_in * c / layer.d_in)
    if util < 1:
        flow = Flow.STALLED
    elif c > 1:
        flow = Flow.RESTORED_BY_INTERLEAVING
    else:
        flow = Flow.CONTINUOUS
    return LayerRateInfo(r_in, r_out, flow, util)


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

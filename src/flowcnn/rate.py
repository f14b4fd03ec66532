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

import numpy as np

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


def valid_output_positions(f: int, k: int, s: int, p: int) -> np.ndarray:
    """Positions n = r*f + c of the valid windows in row-major order: the
    grid of rows and columns 0, s, 2s, ..., f - k + 2p (output_valid in
    closed form; 2p <= k-1 keeps the grid inside the map)."""
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


def interleave_count(kind: LayerKind, d_out: int, r_in: Rate) -> int:
    """I: the output channels on one KPU stream at input rate r_in, which
    is ceil(1/r_in) capped at d_out for a standard conv and 1 otherwise."""
    return min(math.ceil(1 / r_in), d_out) if kind == LayerKind.CONV else 1


def config_count(kind: LayerKind, d_in: int, d_out: int, r_in: Rate) -> int:
    """C = q * I: the configurations a KPU or PPU cycles through per stream
    position at input rate r_in, and the slots the engine runs there.  Each
    of the ceil(r_in) unit streams carries q = ceil(d_in / ceil(r_in)) input
    channels, and each of them meets I output channels in turn."""
    return -(-d_in // math.ceil(r_in)) * interleave_count(kind, d_out, r_in)


def classify_flow(layer: LayerSpec, r_in: Rate) -> LayerRateInfo:
    """Continuous / restored-by-interleaving / stalled, plus utilization.

    A position takes C slots and the input supplies one every d_in/r_in
    cycles, so utilization is min(1, r_in * C / d_in): the layer stalls when
    r_in * C < d_in, where interleaving cannot hide the idle cycles, and is
    restored when C > 1 slots fill the pace.  FCU-based layers (fully
    connected, pointwise) absorb slow input by construction and never stall.
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

"""Brute-force references that the tests check closed forms against."""

import math
from collections import Counter
from fractions import Fraction

from flowcnn.alloc import ConvAllocation, FcuAllocation
from flowcnn.cost import (ResourceVector, _accumulator_counts, _bias_counts,
                          _fcu_counts, _interleaver_counts, _kpu_counts,
                          _ppu_counts, sum_vectors)
from flowcnn.netspec import LayerKind
from flowcnn.rate import WINDOW_KINDS, Flow, LayerRateInfo


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


def fifo_peak(arrivals, departures) -> int:
    """Peak occupancy of a FIFO, one stamp per entry in each list, found by
    walking its events cycle by cycle: in each cycle the departures leave
    first, then the arrivals enter one at a time, and the depth is read
    after every arrival."""
    came, left = Counter(arrivals), Counter(departures)
    depth = peak = 0
    for cycle in sorted(came.keys() | left.keys()):
        depth -= left[cycle]
        for _ in range(came[cycle]):
            depth += 1
            peak = max(peak, depth)
    return peak


# The rate formulas in Fraction arithmetic, one operation at a time; the
# library evaluates them on integer numerators and denominators.

def output_rate(d_in: int, d_out: int, r_in, s: int) -> Fraction:
    return Fraction(d_out) * r_in / (d_in * s * s)


def interleave_count(kind: LayerKind, d_out: int, r_in) -> int:
    return min(math.ceil(1 / r_in), d_out) if kind == LayerKind.CONV else 1


def config_count(kind: LayerKind, d_in: int, d_out: int, r_in) -> int:
    return -(-d_in // math.ceil(r_in)) * interleave_count(kind, d_out, r_in)


def classify_flow(layer, r_in) -> LayerRateInfo:
    r_out = output_rate(layer.d_in, layer.d_out, r_in, layer.s)
    if layer.kind not in WINDOW_KINDS:
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


def cycle_budget(plan) -> int:
    return max(math.ceil(Fraction(e.layer.feature_count) / e.rate.r_in)
               for e in plan.layers)


def layer_cost(entry, scope, producer) -> ResourceVector:
    """A layer row priced as a list of part vectors, one built from each
    part's counts, each unit price times its unit count, summed by
    `sum_vectors`."""
    ly, unit = entry.layer, entry.unit
    parts = [ResourceVector(weights=ly.weight_count)]
    if isinstance(unit, ConvAllocation):
        counts = _ppu_counts if entry.n_ppu else _kpu_counts
        parts.append(ResourceVector(*(unit.n_units * v for v in counts(
            ly.k, ly.f, unit.c))))
        if unit.accumulators:
            adders, registers = _accumulator_counts(
                ly.d_out, unit.accumulators, unit.n_units)
            parts.append(ResourceVector(adders=adders, registers=registers))
        if scope.include_bias and ly.has_weights:
            adders, mux2 = _bias_counts(
                ly.d_out, unit.c if ly.kind == LayerKind.DW_CONV else unit.i)
            parts.append(ResourceVector(adders=adders, mux2=mux2))
        if unit.continuity_break:
            parts.append(ResourceVector(registers=ly.d_out))
    elif isinstance(unit, FcuAllocation):
        parts.append(ResourceVector(*(unit.n_fcu * v for v in _fcu_counts(
            unit.j, unit.h, unit.c))))
    elif ly.kind == LayerKind.RESIDUAL_ADD:
        parts.append(ResourceVector(adders=math.ceil(entry.rate.r_in)))
    if producer is not None:
        if ly.internal_input:
            parts.append(ResourceVector(registers=ly.d_in))
        if scope.include_interleaver and ly.kind in WINDOW_KINDS:
            parts.append(ResourceVector(mux2=_interleaver_counts(
                ly.d_in, producer.interleave, entry.rate.r_in)))
    return sum_vectors(parts)

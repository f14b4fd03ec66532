"""Turn data rates into a hardware plan: unit counts, configurations,
interleave factors, FCU sizing and worst-case adder widths.  `plan_network`
builds each layer's allocation once, width included, and the plan with its
cycle budget.

Allocation rules per layer kind (r = input data rate, d = d_in; the
configuration count C = q * I of KPUs and PPUs comes from
`rate.config_count`, with q = ceil(d / ceil(r)) input channels per stream):

  standard conv   I = min(ceil(1/r), d_out)          output channels per stream
                  C = q * I, #KPU = ceil(r) * ceil(d_out / I)
  depthwise conv  I = 1, C = q, #KPU = ceil(r)
  max pooling     as depthwise, with PPUs (KPUs without weights)
  fully connected r = j_max / h_max in lowest terms; least = the smallest
                  divisor of d_out >= min_h, aggregation a = ceil(least /
                  h_max), j = a * j_max, h = the largest divisor of d_out
                  <= a * h_max; #FCU = d_out / h; C = h * d_in / j
  pointwise conv  sized like a fully connected layer applied per pixel

A layer stalls when r * C < d: its C slots leave idle cycles in the
d/r-cycle pace of a stream position.  When r * C > d the slots outrun the
pace and the layer cannot keep its input rate.  The plan warns of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .netspec import LayerKind, LayerSpec, NetworkSpec, QuantFormat
from .rate import (WINDOW_KINDS, Flow, LayerRateInfo, Rate, classify_flow,
                   config_count, interleave_count, propagate_rates,
                   stream_count)


class AllocError(Exception):
    """A layer cannot be realised with the allocation rules."""


@dataclass(frozen=True, slots=True)
class ConvAllocation:
    """Window-unit provisioning for a standard or depthwise convolution or
    a max pool, whose units are PPUs: KPUs without weights."""

    n_units: int
    c: int                 # configurations cycled per unit
    i: int                 # output channels interleaved onto one stream
    accumulators: int      # cross-channel accumulation units (0 unless conv)
    continuity_break: bool = False


@dataclass(frozen=True, slots=True)
class FcuAllocation:
    """FCU provisioning for a fully connected or pointwise layer."""

    j: int                 # inputs consumed per cycle
    h: int                 # neurons computed per FCU
    a: int                 # input aggregation factor
    n_fcu: int
    c: int                 # weight configurations = h * d_in / j


@dataclass(frozen=True, slots=True)
class LayerAllocation:
    index: int
    layer: LayerSpec
    rate: LayerRateInfo
    unit: ConvAllocation | FcuAllocation | None
    acc_width: int         # worst-case adder/accumulator width, bits
    warnings: list[str] = field(default_factory=list)

    def _window_units(self, pool: bool) -> int:
        if isinstance(self.unit, ConvAllocation) \
                and (self.layer.kind == LayerKind.MAXPOOL) == pool:
            return self.unit.n_units
        return 0

    @property
    def n_kpu(self) -> int:
        return self._window_units(pool=False)

    @property
    def n_fcu(self) -> int:
        return self.unit.n_fcu if isinstance(self.unit, FcuAllocation) else 0

    @property
    def n_ppu(self) -> int:
        return self._window_units(pool=True)

    @property
    def configs(self) -> int:
        return self.unit.c if self.unit is not None else 1

    @property
    def interleave(self) -> int:
        """Output channels multiplexed onto one physical stream."""
        return self.unit.i if isinstance(self.unit, ConvAllocation) else 1


@dataclass(frozen=True, slots=True)
class ArchitecturePlan:
    spec: NetworkSpec
    layers: list[LayerAllocation]
    cycle_budget: int      # cycles to stream one feature map, steady state

    @property
    def total_kpu(self) -> int:
        return sum(e.n_kpu for e in self.layers)

    @property
    def total_fcu(self) -> int:
        return sum(e.n_fcu for e in self.layers)

    @property
    def total_ppu(self) -> int:
        return sum(e.n_ppu for e in self.layers)

    @property
    def warnings(self) -> list[str]:
        return [w for e in self.layers for w in e.warnings]


def alloc_conv(kind: LayerKind, d_in: int, d_out: int,
               r_in: Rate) -> ConvAllocation:
    """Allocate the window units of a standard or depthwise conv or a max
    pool: each of the ceil(r_in) input streams feeds one unit per output
    stream of a standard conv, ceil(d_out / I) of them, and one unit
    otherwise.  A standard conv whose I does not divide d_out breaks
    continuous flow on its last, partly filled stream."""
    i = interleave_count(kind, d_out, r_in)
    fan_out = -(-d_out // i) if kind == LayerKind.CONV else 1
    accumulate = kind == LayerKind.CONV and not (d_in == 1 and r_in == 1)
    return ConvAllocation(
        n_units=stream_count(r_in) * fan_out,
        c=config_count(kind, d_in, d_out, r_in),
        i=i,
        accumulators=fan_out if accumulate else 0,
        continuity_break=d_out % i != 0,
    )


def size_fcu(d_in: int, d_out: int, r_in: Rate, min_h: int = 1,
             shared_pointwise_streams: bool = False) -> FcuAllocation:
    """Pick (j, h, a) for FCUs given the input feature rate.

    d_in is the unit's input width: the flattened map of a fully connected
    layer, one pixel's channels of a pointwise conv.  j_max/h_max come from
    r_in in lowest terms; the aggregation a is the least multiplier of both
    that fits a divisor of d_out at least min_h under a * h_max.

    With shared_pointwise_streams, FCUs with h = 1 time-multiplex ceil(r)
    output channels each, halving-or-better the unit count at the price of
    interleaved outputs; the default keeps one neuron set per FCU.
    """
    if min_h > d_out:
        raise AllocError(
            f"pipeline depth {min_h} exceeds d_out={d_out}; no feasible h")
    j_max, h_max = r_in.numerator, r_in.denominator
    least = next(h for h in range(max(min_h, 1), d_out + 1) if d_out % h == 0)
    a = -(-least // h_max)
    h = next(h for h in range(min(a * h_max, d_out), 0, -1) if d_out % h == 0)
    j = a * j_max
    if d_in % j != 0:
        raise AllocError(
            f"fully connected layer with {d_in} inputs is not realisable at "
            f"j={j} inputs per cycle without padding the feature vector")
    n_fcu, c = d_out // h, h * d_in // j
    share = math.gcd(stream_count(r_in), n_fcu) \
        if shared_pointwise_streams and h == 1 else 1
    return FcuAllocation(j=j, h=h, a=a, n_fcu=n_fcu // share, c=c * share)


def _unit_inputs(ly: LayerSpec) -> int:
    """Inputs of one FCU pass: a fully connected layer's flattened map,
    one pixel's channels of any other layer."""
    return ly.feature_count if ly.kind == LayerKind.FC else ly.d_in


def _widths(ly: LayerSpec, in_bits: int,
            quant: QuantFormat) -> tuple[int, int]:
    """A layer's worst-case accumulator width and its output width, given
    its input width: input bits + weight bits + ceil(log2(#accumulated
    terms)), chained through the network as accumulators keep full
    precision.  The simulator asserts these widths are never exceeded."""
    if ly.kind == LayerKind.MAXPOOL:
        return in_bits, in_bits
    if ly.kind == LayerKind.RESIDUAL_ADD:     # one carry bit
        return in_bits + 1, in_bits + 1
    if ly.constant_weights:
        # k*k unit-weight terms then floor division by k*k: the quotient
        # fits the input width again
        return in_bits + (ly.k * ly.k - 1).bit_length(), in_bits
    acc = in_bits + quant.weight_bits \
        + (math.prod(ly.weight_shape[1:]) - 1).bit_length()
    return acc, acc


def plan_network(spec: NetworkSpec,
                 rates: list[LayerRateInfo] | None = None,
                 min_h: int = 1,
                 parallel: bool = False,
                 shared_pointwise_streams: bool = False) -> ArchitecturePlan:
    """Allocate every layer and wire the plan together.

    parallel=True prices the fully parallel reference point: every layer is
    fed at r_in = d_in (the whole input per cycle), giving C = 1 everywhere
    and a 1:1 neuron-to-unit mapping, so neither min_h nor
    shared_pointwise_streams applies to it.  A
    window layer (conv, depthwise or pool) takes at most one pixel per
    cycle, r_in <= d_in; a faster rate is refused.
    """
    if parallel:
        rates = [classify_flow(ly, Fraction(_unit_inputs(ly)))
                 for ly in spec.layers]
        min_h, shared_pointwise_streams = 1, False
    elif rates is None:
        rates = propagate_rates(spec)
    if len(rates) != len(spec.layers):
        raise AllocError("internal wiring error: rate list does not match layers")

    entries: list[LayerAllocation] = []
    in_bits = spec.quant.activation_bits
    for idx, (ly, info) in enumerate(zip(spec.layers, rates)):
        warnings: list[str] = []
        unit: ConvAllocation | FcuAllocation | None
        num, den = info.r_in.numerator, info.r_in.denominator
        if ly.kind in WINDOW_KINDS:
            if num > ly.d_in * den:
                raise AllocError(
                    f"{spec.layer_name(idx)}: input rate {info.r_in} is above "
                    f"one pixel per cycle (d_in = {ly.d_in})")
            unit = alloc_conv(ly.kind, ly.d_in, ly.d_out, info.r_in)
            if unit.continuity_break:
                warnings.append(
                    f"{spec.layer_name(idx)}: unit count rounded up; "
                    f"continuous flow breaks and output-hold registers are added")
        elif ly.kind in (LayerKind.FC, LayerKind.PW_CONV):
            unit = size_fcu(_unit_inputs(ly), ly.d_out, info.r_in, min_h,
                            shared_pointwise_streams
                            and ly.kind == LayerKind.PW_CONV)
        elif ly.kind == LayerKind.RESIDUAL_ADD:
            unit = None
        else:
            raise AllocError(f"cannot allocate unlowered kind {ly.kind}")
        if info.flow is Flow.STALLED:
            warnings.append(
                f"{spec.layer_name(idx)}: input rate {info.r_in} stalls the "
                f"layer (utilization {info.utilization})")
        elif isinstance(unit, ConvAllocation) and num * unit.c > ly.d_in * den:
            warnings.append(
                f"{spec.layer_name(idx)}: C={unit.c} slots per position "
                f"outrun its pace of d_in/r_in = {ly.d_in / info.r_in} "
                f"cycles; the layer cannot keep input rate {info.r_in}")
        acc_width, in_bits = _widths(ly, in_bits, spec.quant)
        entries.append(
            LayerAllocation(idx, ly, info, unit, acc_width, warnings))

    # Stream wiring must agree with the rate chain; a mismatch here means an
    # allocation formula was misapplied.
    for prev, cur in zip(entries, entries[1:]):
        expected = cur.rate.r_in
        feeds = prev.rate.r_out
        if cur.layer.kind == LayerKind.RESIDUAL_ADD:
            feeds = min(feeds, entries[cur.layer.residual_source].rate.r_out)
        if not parallel and feeds != expected:
            raise AllocError(
                f"internal wiring error between layers {prev.index} and "
                f"{cur.index}: rate {feeds} vs {expected}")

    # ceil(feature_count / r_in): the cycles each layer takes over one map
    return ArchitecturePlan(spec, entries, max(
        -(-e.layer.feature_count * e.rate.r_in.denominator
          // e.rate.r_in.numerator) for e in entries))


def plan_to_dict(plan: ArchitecturePlan) -> dict:
    """Serialisable view of a plan (same dialect as the network document)."""
    rows = []
    for e in plan.layers:
        row = {
            "layer": plan.spec.layer_name(e.index),
            "kind": e.layer.kind.value,
            "r_in": str(e.rate.r_in),
            "r_out": str(e.rate.r_out),
            "flow": e.rate.flow.value,
            "utilization": str(e.rate.utilization),
            "configs": e.configs,
            "acc_width": e.acc_width,
        }
        if e.n_ppu:
            row.update(ppus=e.n_ppu)
        elif isinstance(e.unit, ConvAllocation):
            row.update(kpus=e.n_kpu, interleave=e.unit.i,
                       accumulators=e.unit.accumulators)
        elif isinstance(e.unit, FcuAllocation):
            row.update(fcus=e.unit.n_fcu, j=e.unit.j, h=e.unit.h,
                       aggregation=e.unit.a)
        rows.append(row)
    return {
        "layers": rows,
        "totals": {"kpu": plan.total_kpu, "fcu": plan.total_fcu,
                   "ppu": plan.total_ppu},
        "cycle_budget": plan.cycle_budget,
        "warnings": plan.warnings,
    }

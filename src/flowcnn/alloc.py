"""Turn data rates into a hardware plan: unit counts, configurations,
interleave factors, FCU sizing and worst-case adder widths.

Allocation rules per layer kind (r = input data rate, d = d_in; the
configuration count C = q * I of KPUs and PPUs comes from
`rate.config_count`, with q = ceil(d / ceil(r)) input channels per stream):

  standard conv   I = min(ceil(1/r), d_out)          output channels per stream
                  C = q * I, #KPU = ceil(r) * d_out / I
  depthwise conv  I = 1, C = q, #KPU = ceil(r)
  pooling         C = q, #PPU = ceil(r)
  fully connected r = j_max / h_max in lowest terms; j = a * j_max with the
                  smallest aggregation a making some divisor h of d_out with
                  min_h <= h <= a * h_max feasible; #FCU = d_out / h;
                  C = h * d_in / j
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
from .rate import (Flow, LayerRateInfo, Rate, classify_flow, config_count,
                   interleave_count, propagate_rates)


class AllocError(Exception):
    """A layer cannot be realised with the allocation rules."""


@dataclass(frozen=True)
class ConvAllocation:
    """KPU provisioning for a standard or depthwise convolution."""

    n_kpu: int
    c: int                 # weight configurations cycled per KPU
    i: int                 # output channels interleaved onto one stream
    accumulators: int      # cross-channel accumulation units (0 for dw)
    continuity_break: bool = False


@dataclass(frozen=True)
class FcuAllocation:
    """FCU provisioning for a fully connected or pointwise layer."""

    j: int                 # inputs consumed per cycle
    h: int                 # neurons computed per FCU
    a: int                 # input aggregation factor
    n_fcu: int
    c: int                 # weight configurations = h * d_in / j


@dataclass(frozen=True)
class PoolAllocation:
    n_ppu: int
    c: int                 # channels interleaved per PPU


@dataclass
class LayerAllocation:
    index: int
    layer: LayerSpec
    rate: LayerRateInfo
    unit: ConvAllocation | FcuAllocation | PoolAllocation | None
    acc_width: int = 0     # worst-case adder/accumulator width, bits
    warnings: list[str] = field(default_factory=list)

    @property
    def n_kpu(self) -> int:
        return self.unit.n_kpu if isinstance(self.unit, ConvAllocation) else 0

    @property
    def n_fcu(self) -> int:
        return self.unit.n_fcu if isinstance(self.unit, FcuAllocation) else 0

    @property
    def n_ppu(self) -> int:
        return self.unit.n_ppu if isinstance(self.unit, PoolAllocation) else 0

    @property
    def configs(self) -> int:
        return self.unit.c if self.unit is not None else 1

    @property
    def interleave(self) -> int:
        """Output channels multiplexed onto one physical stream."""
        if isinstance(self.unit, ConvAllocation):
            return self.unit.i
        return 1


@dataclass
class ArchitecturePlan:
    spec: NetworkSpec
    layers: list[LayerAllocation]
    cycle_budget: int = 0   # cycles to stream one feature map, steady state

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


def alloc_conv(d_in: int, d_out: int, r_in: Rate) -> ConvAllocation:
    """Allocate KPUs for a standard convolution."""
    c = config_count(LayerKind.CONV, d_in, d_out, r_in)
    i = interleave_count(LayerKind.CONV, d_out, r_in)
    n_exact = Fraction(math.ceil(r_in) * d_out, i)
    n_kpu = math.ceil(n_exact)
    broken = n_kpu != n_exact or d_out % i != 0
    return ConvAllocation(
        n_kpu=n_kpu,
        c=c,
        i=i,
        accumulators=0 if (d_in == 1 and r_in == 1) else -(-d_out // i),
        continuity_break=broken,
    )


def alloc_depthwise(d_in: int, r_in: Rate) -> ConvAllocation:
    """Allocate KPUs for a depthwise convolution (one kernel per channel)."""
    return ConvAllocation(
        n_kpu=math.ceil(r_in),
        c=config_count(LayerKind.DW_CONV, d_in, d_in, r_in),
        i=1,
        accumulators=0,
    )


def size_fcu(d_in: int, d_out: int, r_in: Rate, min_h: int = 1) -> FcuAllocation:
    """Pick (j, h, a) for FCUs given the input feature rate.

    d_in is the flattened input width.  j_max/h_max come from r_in in lowest
    terms; aggregation multiplies both until some divisor of d_out at least
    min_h fits under a * h_max.
    """
    if min_h > d_out:
        raise AllocError(
            f"pipeline depth {min_h} exceeds d_out={d_out}; no feasible h")
    j_max, h_max = r_in.numerator, r_in.denominator
    a = 1
    while True:
        cap = a * h_max
        divisors = [h for h in range(1, min(cap, d_out) + 1) if d_out % h == 0]
        feasible = [h for h in divisors if h >= min_h]
        if feasible:
            h = max(feasible)
            break
        a += 1
    j = a * j_max
    if d_in % j != 0:
        raise AllocError(
            f"fully connected layer with {d_in} inputs is not realisable at "
            f"j={j} inputs per cycle without padding the feature vector")
    return FcuAllocation(j=j, h=h, a=a, n_fcu=d_out // h,
                         c=h * d_in // j)


def alloc_pointwise(d_in: int, d_out: int, r_in: Rate, min_h: int = 1,
                    shared_output_streams: bool = False) -> FcuAllocation:
    """Size the FCUs of a pointwise (1x1) convolution, applied per pixel.

    With shared_output_streams, FCUs with h = 1 time-multiplex ceil(r) output
    channels each, halving-or-better the unit count at the price of
    interleaved outputs; the default keeps one neuron set per FCU.
    """
    alloc = size_fcu(d_in, d_out, r_in, min_h)
    if shared_output_streams and alloc.h == 1 and math.ceil(r_in) > 1:
        share = math.gcd(math.ceil(r_in), alloc.n_fcu)
        if share > 1:
            alloc = FcuAllocation(j=alloc.j, h=alloc.h, a=alloc.a,
                                  n_fcu=alloc.n_fcu // share,
                                  c=alloc.c * share)
    return alloc


def alloc_pool(d_in: int, r_in: Rate) -> PoolAllocation:
    return PoolAllocation(n_ppu=math.ceil(r_in),
                          c=config_count(LayerKind.MAXPOOL, d_in, d_in, r_in))


def worst_case_widths(plan: ArchitecturePlan, quant: QuantFormat) -> list[int]:
    """Annotate every layer with its worst-case accumulator width.

    width = input_bits + weight_bits + ceil(log2(#accumulated terms)); the
    input width chains through the network because accumulators keep full
    precision.  The simulator asserts these widths are never exceeded.
    """
    widths = []
    in_bits = quant.activation_bits
    for entry in plan.layers:
        ly = entry.layer
        if ly.kind == LayerKind.MAXPOOL:
            acc = out = in_bits
        elif ly.kind == LayerKind.RESIDUAL_ADD:
            acc = out = in_bits + 1
        elif ly.constant_weights:
            # k*k unit-weight terms then floor division by k*k: the quotient
            # fits the input width again
            acc = in_bits + max(0, math.ceil(math.log2(ly.k * ly.k)))
            out = in_bits
        else:
            terms = math.prod(ly.weight_shape[1:])
            acc = out = in_bits + quant.weight_bits \
                + max(0, math.ceil(math.log2(terms)))
        entry.acc_width = acc
        widths.append(acc)
        in_bits = out
    return widths


def plan_network(spec: NetworkSpec,
                 rates: list[LayerRateInfo] | None = None,
                 min_h: int = 1,
                 parallel: bool = False,
                 shared_pointwise_streams: bool = False) -> ArchitecturePlan:
    """Allocate every layer and wire the plan together.

    parallel=True prices the fully parallel reference point: every layer is
    fed at r_in = d_in (the whole input per cycle), giving C = 1 everywhere
    and a 1:1 neuron-to-unit mapping.
    """
    if parallel:
        rates = [classify_flow(ly, Fraction(ly.feature_count if ly.kind == LayerKind.FC
                                            else ly.d_in))
                 for ly in spec.layers]
    elif rates is None:
        rates = propagate_rates(spec)
    if len(rates) != len(spec.layers):
        raise AllocError("internal wiring error: rate list does not match layers")

    entries: list[LayerAllocation] = []
    for idx, (ly, info) in enumerate(zip(spec.layers, rates)):
        warnings: list[str] = []
        unit: ConvAllocation | FcuAllocation | PoolAllocation | None
        if ly.kind == LayerKind.CONV:
            unit = alloc_conv(ly.d_in, ly.d_out, info.r_in)
            if unit.continuity_break:
                warnings.append(
                    f"{spec.layer_name(idx)}: unit count rounded up; "
                    f"continuous flow breaks and output-hold registers are added")
        elif ly.kind == LayerKind.DW_CONV:
            unit = alloc_depthwise(ly.d_in, info.r_in)
        elif ly.kind == LayerKind.PW_CONV:
            unit = alloc_pointwise(ly.d_in, ly.d_out, info.r_in, min_h,
                                   shared_pointwise_streams)
        elif ly.kind == LayerKind.FC:
            unit = size_fcu(ly.feature_count, ly.d_out, info.r_in, min_h)
        elif ly.kind == LayerKind.MAXPOOL:
            unit = alloc_pool(ly.d_in, info.r_in)
        elif ly.kind == LayerKind.RESIDUAL_ADD:
            unit = None
        else:
            raise AllocError(f"cannot allocate unlowered kind {ly.kind}")
        if info.flow is Flow.STALLED:
            warnings.append(
                f"{spec.layer_name(idx)}: input rate {info.r_in} stalls the "
                f"layer (utilization {info.utilization})")
        elif isinstance(unit, (ConvAllocation, PoolAllocation)) \
                and info.r_in * unit.c > ly.d_in:
            warnings.append(
                f"{spec.layer_name(idx)}: C={unit.c} slots per position "
                f"outrun its pace of d_in/r_in = {ly.d_in / info.r_in} "
                f"cycles; the layer cannot keep input rate {info.r_in}")
        entries.append(LayerAllocation(idx, ly, info, unit, warnings=warnings))

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

    plan = ArchitecturePlan(spec, entries)
    worst_case_widths(plan, spec.quant)
    plan.cycle_budget = max(
        math.ceil(Fraction(e.layer.feature_count) / e.rate.r_in)
        for e in entries)
    return plan


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
        if isinstance(e.unit, ConvAllocation):
            row.update(kpus=e.unit.n_kpu, interleave=e.unit.i,
                       accumulators=e.unit.accumulators)
        elif isinstance(e.unit, FcuAllocation):
            row.update(fcus=e.unit.n_fcu, j=e.unit.j, h=e.unit.h,
                       aggregation=e.unit.a)
        elif isinstance(e.unit, PoolAllocation):
            row.update(ppus=e.unit.n_ppu)
        rows.append(row)
    return {
        "layers": rows,
        "totals": {"kpu": plan.total_kpu, "fcu": plan.total_fcu,
                   "ppu": plan.total_ppu},
        "cycle_budget": plan.cycle_budget,
        "warnings": plan.warnings,
    }

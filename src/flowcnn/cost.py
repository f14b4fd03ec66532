"""Closed-form resource costs for a planned architecture.

Per-unit costs (k = kernel side, f = input map side, C = configurations):

  KPU   adders k^2-1, multipliers k^2,
        registers (k(k-1) + (k-1)(f-k+1)) * C, 2:1 muxes k^2 (C-1)
  PPU   MAX units k^2-1, registers as the KPU
  FCU   adders j, multipliers j, registers h, 2:1 muxes j (C-1)
  channel accumulation   registers d_out, adders (d_out/I) * ceil(#KPU/d_out)
  bias  adders per output stream, (I-1) 2:1 muxes each
  input interleaving     (d/I - ceil(r)) 2:1 muxes
  inter-layer FIFO       d registers

An N:1 multiplexer counts as N-1 two-to-one multiplexers.  ReLU and control
counters cost nothing.  Scope flags make the accounting conventions of the
different report styles explicit; FIFO registers on the link inside a lowered
depthwise-separable pair belong to the layer itself and are always counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .alloc import (ArchitecturePlan, ConvAllocation, FcuAllocation,
                    LayerAllocation, PoolAllocation, alloc_conv,
                    alloc_depthwise, alloc_pointwise, plan_network)
from .netspec import LayerKind, LayerSpec, NetworkSpec
from .rate import Flow, Rate, classify_flow


@dataclass(frozen=True)
class ResourceVector:
    adders: int = 0
    multipliers: int = 0
    registers: int = 0
    mux2: int = 0
    max_units: int = 0
    weights: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.adders + other.adders,
            self.multipliers + other.multipliers,
            self.registers + other.registers,
            self.mux2 + other.mux2,
            self.max_units + other.max_units,
            self.weights + other.weights,
        )

    def scaled(self, n: int) -> "ResourceVector":
        return ResourceVector(self.adders * n, self.multipliers * n,
                              self.registers * n, self.mux2 * n,
                              self.max_units * n, self.weights * n)


ZERO = ResourceVector()


@dataclass(frozen=True)
class CostScope:
    """Which shared components are attributed to the layer rows."""

    include_bias: bool = True
    include_interleaver: bool = True
    include_fifos: bool = True


# Full per-layer accounting: bias adders and input-interleaving muxes are in,
# inter-layer FIFO registers are reported separately (the exact per-layer
# register cells of the reference breakdown exclude them).
SCOPE_TABLE6 = CostScope(include_bias=True, include_interleaver=True,
                         include_fifos=False)
# Unit-only accounting for single-layer rate sweeps: bias and everything that
# depends on the surrounding layers is left out.
SCOPE_TABLE7 = CostScope(include_bias=False, include_interleaver=False,
                         include_fifos=False)
# Whole-model comparisons: interleaving muxes in, bias out.
SCOPE_TABLE9 = CostScope(include_bias=False, include_interleaver=True,
                         include_fifos=False)
# Fully parallel reference point; nothing is interleaved so only unit and
# accumulation costs remain.
SCOPE_PARALLEL = CostScope(include_bias=False, include_interleaver=False,
                           include_fifos=False)

SCOPES = {"table6": SCOPE_TABLE6, "table7": SCOPE_TABLE7,
          "table9": SCOPE_TABLE9, "parallel": SCOPE_PARALLEL}


def _window_registers(k: int, f: int, c: int) -> int:
    """Pipeline and line-buffer state of one KPU or PPU, per configuration."""
    return (k * (k - 1) + (k - 1) * (f - k + 1)) * c


def kpu_cost(k: int, f: int, c: int) -> ResourceVector:
    """One KPU: transposed-form MACs plus per-configuration state."""
    return ResourceVector(
        adders=k * k - 1,
        multipliers=k * k,
        registers=_window_registers(k, f, c),
        mux2=k * k * (c - 1),
    )


def accumulator_cost(d_out: int, i: int, n_kpu: int) -> ResourceVector:
    """Cross-channel accumulation behind the KPUs of one conv layer."""
    streams = -(-d_out // i)
    return ResourceVector(
        adders=streams * -(-n_kpu // d_out),
        registers=d_out,
    )


def bias_cost(d_out: int, i: int) -> ResourceVector:
    """One bias adder per output stream, with an I:1 constant mux each."""
    streams = -(-d_out // i)
    return ResourceVector(adders=streams, mux2=d_out - streams)


def interleaver_cost(d_in: int, i: int, r_in: Rate) -> ResourceVector:
    """Interleave d_in/I producer streams into ceil(r_in) continuous ones."""
    return ResourceVector(mux2=max(0, -(-d_in // i) - math.ceil(r_in)))


def ppu_cost(k: int, f: int, c: int) -> ResourceVector:
    """One PPU: comparator tree plus the same line-buffer state as a KPU."""
    return ResourceVector(
        max_units=k * k - 1,
        registers=_window_registers(k, f, c),
    )


def fcu_cost(j: int, h: int, c: int, n_fcu: int) -> ResourceVector:
    """n_fcu FCUs with j inputs, h neurons and c weight configurations."""
    per_unit = ResourceVector(adders=j, multipliers=j, registers=h,
                              mux2=j * (c - 1))
    return per_unit.scaled(n_fcu)


@dataclass
class CostRow:
    index: int
    name: str
    kind: str
    configs: int
    r_out: Fraction
    vector: ResourceVector
    n_kpu: int = 0
    n_fcu: int = 0
    n_ppu: int = 0
    stalled: bool = False


@dataclass
class CostReport:
    rows: list[CostRow]
    fifo_registers: int = 0      # inter-layer FIFO registers kept off-row

    @property
    def total(self) -> ResourceVector:
        total = ZERO
        for row in self.rows:
            total = total + row.vector
        return total

    @property
    def total_kpu(self) -> int:
        return sum(r.n_kpu for r in self.rows)

    @property
    def total_fcu(self) -> int:
        return sum(r.n_fcu for r in self.rows)

    @property
    def total_ppu(self) -> int:
        return sum(r.n_ppu for r in self.rows)


def layer_cost(entry: LayerAllocation, scope: CostScope,
               producer: LayerAllocation | None) -> ResourceVector:
    """Everything attributed to one layer row under the given scope."""
    ly, unit = entry.layer, entry.unit
    vec = ResourceVector(weights=ly.weight_count)

    if isinstance(unit, ConvAllocation):
        vec = vec + kpu_cost(ly.k, ly.f, unit.c).scaled(unit.n_kpu)
        if unit.accumulators:
            vec = vec + accumulator_cost(ly.d_out, unit.i, unit.n_kpu)
        if scope.include_bias and ly.has_bias:
            if unit.depthwise:
                vec = vec + bias_cost(ly.d_out, -(-ly.d_out // unit.n_kpu))
            else:
                vec = vec + bias_cost(ly.d_out, unit.i)
        vec = vec + ResourceVector(registers=unit.extra_hold_regs)
    elif isinstance(unit, FcuAllocation):
        vec = vec + fcu_cost(unit.j, unit.h, unit.c, unit.n_fcu)
        # FC/pointwise bias loads the accumulator start value; no adder
    elif isinstance(unit, PoolAllocation):
        vec = vec + ppu_cost(ly.k, ly.f, unit.c).scaled(unit.n_ppu)
    elif ly.kind == LayerKind.RESIDUAL_ADD:
        vec = vec + ResourceVector(adders=math.ceil(entry.rate.r_in))

    # Input-side interleaving.  FCU-fed layers hold their inputs themselves
    # and need no interleaving muxes; the FIFO on the link inside a lowered
    # depthwise-separable pair is part of the layer and always counted.
    if producer is not None:
        fifo = ResourceVector(registers=ly.d_in)
        if ly.internal_input:
            vec = vec + fifo
        elif scope.include_fifos:
            vec = vec + fifo
        if scope.include_interleaver and ly.kind not in (
                LayerKind.FC, LayerKind.PW_CONV, LayerKind.RESIDUAL_ADD):
            vec = vec + interleaver_cost(ly.d_in, producer.interleave,
                                         entry.rate.r_in)
    return vec


def network_cost(plan: ArchitecturePlan, scope: CostScope) -> CostReport:
    """Per-layer resource rows plus totals under the given scope."""
    rows: list[CostRow] = []
    fifo_total = 0
    for idx, entry in enumerate(plan.layers):
        producer = plan.layers[idx - 1] if idx > 0 else None
        vec = layer_cost(entry, scope, producer)
        if producer is not None and not entry.layer.internal_input \
                and not scope.include_fifos:
            fifo_total += entry.layer.d_in
        rows.append(CostRow(
            index=idx,
            name=plan.spec.layer_name(idx),
            kind=entry.layer.kind.value,
            configs=entry.configs,
            r_out=entry.rate.r_out,
            vector=vec,
            n_kpu=entry.n_kpu,
            n_fcu=entry.n_fcu,
            n_ppu=entry.n_ppu,
            stalled=entry.rate.flow is Flow.STALLED,
        ))
    return CostReport(rows, fifo_registers=fifo_total)


def fully_parallel_reference_cost(spec: NetworkSpec) -> CostReport:
    """Price the 1:1 neuron-to-unit mapping: r_in = d_in at every layer,
    C = 1 everywhere and no multiplexing."""
    plan = plan_network(spec, parallel=True)
    return network_cost(plan, SCOPE_PARALLEL)


@dataclass
class SweepRow:
    rate: Fraction
    vector: ResourceVector
    n_kpu: int
    n_fcu: int
    stalled: bool


def sweep_rates(f: int, k: int, p: int, d_in: int, d_out: int,
                rates: list[Rate], separable: bool = False,
                min_h: int = 1) -> list[SweepRow]:
    """Resource cost of one layer geometry across input data rates.

    Unit-only accounting (bias and inter-layer interleaving left out); rows
    where interleaving cannot restore continuous flow are flagged stalled.
    """
    rows: list[SweepRow] = []
    layer = (LayerSpec(LayerKind.DW_CONV, f, k, 1, p, d_in, d_in) if separable
             else LayerSpec(LayerKind.CONV, f, k, 1, p, d_in, d_out))
    for r in rates:
        r = Fraction(r)
        info = classify_flow(layer, r)
        stalled = info.flow is Flow.STALLED
        if separable:
            dw = alloc_depthwise(d_in, r)
            pw = alloc_pointwise(d_in, d_out, info.r_out, min_h)
            vec = (kpu_cost(k, f, dw.c).scaled(dw.n_kpu)
                   + ResourceVector(registers=d_in)   # dw->pw link FIFO
                   + fcu_cost(pw.j, pw.h, pw.c, pw.n_fcu))
            rows.append(SweepRow(r, vec, dw.n_kpu, pw.n_fcu, stalled))
        else:
            unit = alloc_conv(d_in, d_out, r)
            vec = kpu_cost(k, f, unit.c).scaled(unit.n_kpu)
            if unit.accumulators:
                vec = vec + accumulator_cost(d_out, unit.i, unit.n_kpu)
            rows.append(SweepRow(r, vec, unit.n_kpu, 0, stalled))
    return rows


def approx_display(n: int) -> str:
    """Round the way the reference tables print: 6656 -> '6.7k',
    474648 -> '475k', 4259264 -> '4.3M'.  Half-way cases round up."""
    def half_up(val: int, unit: int) -> int:
        return (val + unit // 2) // unit

    if n < 1000:
        return str(n)
    if n < 100_000:
        return f"{half_up(n, 100) / 10:.1f}k"
    if n < 1_000_000:
        return f"{half_up(n, 1000)}k"
    if n < 10_000_000:
        return f"{half_up(n, 100_000) / 10:.1f}M"
    return f"{half_up(n, 1_000_000)}M"


def display_range(text: str) -> tuple[int, int]:
    """Inclusive integer interval that a rounded display string covers."""
    text = text.strip()
    if text.endswith("k"):
        scale = 1000
        num = text[:-1]
    elif text.endswith("M"):
        scale = 1_000_000
        num = text[:-1]
    else:
        v = int(text)
        return v, v
    if "." in num:
        units = round(float(num) * 10)
        lo = units * scale // 10 - scale // 20
        hi = units * scale // 10 + scale // 20 - 1
    else:
        units = int(num)
        lo = units * scale - scale // 2
        hi = units * scale + scale // 2 - 1
    return lo, hi


def rate_display(r: Fraction) -> str:
    """Exact integers and small fractions; otherwise two decimals."""
    if r.denominator == 1:
        return str(r.numerator)
    if r.denominator <= 32:
        return f"{r.numerator}/{r.denominator}"
    return f"{float(r):.2f}"

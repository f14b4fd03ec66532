"""Closed-form resource costs for a planned architecture.

Per-unit costs (k = kernel side, f = input map side, C = configurations):

  KPU   adders k^2-1, multipliers k^2,
        registers (k(k-1) + (k-1)(f-k+1)) * C, 2:1 muxes k^2 (C-1)
  PPU   MAX units k^2-1, registers as the KPU
  FCU   adders j, multipliers j, registers h, 2:1 muxes j (C-1)
  channel accumulation   registers d_out, adders (d_out/I) * ceil(#KPU/d_out)
  bias  adders per output stream, (I-1) 2:1 muxes each
  input interleaving     (d/I - ceil(r)) 2:1 muxes, into KPUs and PPUs
  inter-layer FIFO       d registers

An N:1 multiplexer counts as N-1 two-to-one multiplexers.  ReLU and control
counters cost nothing.  Scope flags make the accounting conventions of the
different report styles explicit; FIFO registers on the link inside a lowered
depthwise-separable pair belong to the layer itself and are always counted.

Each part's price is stated once, by a private `_<part>_counts` formula
that returns plain int counts.  `layer_cost` keeps one count row per layer,
adds each part's counts into the row, each unit price times its unit count,
and builds one vector for the row.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter

from .alloc import (ArchitecturePlan, ConvAllocation, FcuAllocation,
                    LayerAllocation, plan_network)
from .netspec import LayerKind, LayerSpec, NetworkSpec
from .rate import WINDOW_KINDS, Flow, Rate, stream_count


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Resource counts; the arithmetic runs over the declared fields."""

    adders: int = 0
    multipliers: int = 0
    registers: int = 0
    mux2: int = 0
    max_units: int = 0
    weights: int = 0


_field_values = attrgetter(*(f.name for f in fields(ResourceVector)))


def sum_vectors(vectors: Iterable[ResourceVector]) -> ResourceVector:
    """Field-by-field sum, built once: building a frozen dataclass costs
    more than the additions."""
    return ResourceVector(*map(sum, zip(*map(_field_values, vectors))))


@dataclass(frozen=True, slots=True)
class CostScope:
    """Which shared components are attributed to the layer rows."""

    include_bias: bool = True
    include_interleaver: bool = True


# Full per-layer accounting: bias adders and input-interleaving muxes are in,
# inter-layer FIFO registers are reported separately (the exact per-layer
# register cells of the reference breakdown exclude them).
SCOPE_TABLE6 = CostScope(include_bias=True, include_interleaver=True)
# Unit-only accounting for single-layer rate sweeps and the fully parallel
# reference point: bias and everything that depends on the surrounding layers
# is left out, and in a fully parallel plan nothing is interleaved, so only
# unit and accumulation costs remain.
SCOPE_TABLE7 = CostScope(include_bias=False, include_interleaver=False)
# Whole-model comparisons: interleaving muxes in, bias out.
SCOPE_TABLE9 = CostScope(include_bias=False, include_interleaver=True)

SCOPES = {"table6": SCOPE_TABLE6, "table7": SCOPE_TABLE7,
          "table9": SCOPE_TABLE9, "parallel": SCOPE_TABLE7}


# The unit formulas return one unit's (adders, multipliers, registers,
# mux2, max_units); each shared part returns only the counts it prices:
# accumulation (adders, registers), bias (adders, mux2) and interleaving its
# mux2.  Weights belong to the layer and are priced per row.

def _window_registers(k: int, f: int, c: int) -> int:
    """Pipeline and line-buffer state of one KPU or PPU, per configuration."""
    return (k * (k - 1) + (k - 1) * (f - k + 1)) * c


def _kpu_counts(k: int, f: int, c: int) -> tuple[int, ...]:
    return k * k - 1, k * k, _window_registers(k, f, c), k * k * (c - 1), 0


def _ppu_counts(k: int, f: int, c: int) -> tuple[int, ...]:
    return 0, 0, _window_registers(k, f, c), 0, k * k - 1


def _accumulator_counts(d_out: int, accumulators: int,
                        n_kpu: int) -> tuple[int, int]:
    return accumulators * -(-n_kpu // d_out), d_out


def _bias_counts(d_out: int, i: int) -> tuple[int, int]:
    streams = -(-d_out // i)
    return streams, d_out - streams


def _interleaver_counts(d_in: int, i: int, r_in: Rate) -> int:
    return max(0, -(-d_in // i) - stream_count(r_in))


def _fcu_counts(j: int, h: int, c: int) -> tuple[int, ...]:
    return j, j, h, j * (c - 1), 0


@dataclass(slots=True)
class CostRow:
    name: str
    kind: str
    configs: int
    vector: ResourceVector
    n_kpu: int = 0
    n_fcu: int = 0
    n_ppu: int = 0
    stalled: bool = False


@dataclass(slots=True)
class CostReport:
    rows: list[CostRow]
    fifo_registers: int = 0      # inter-layer FIFO registers kept off-row

    @property
    def total(self) -> ResourceVector:
        return sum_vectors(row.vector for row in self.rows)

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
    ly, unit, r_in = entry.layer, entry.unit, entry.rate.r_in
    add = mul = reg = mux = mx = 0

    if isinstance(unit, ConvAllocation):
        n = unit.n_units
        counts = _ppu_counts if ly.kind == LayerKind.MAXPOOL else _kpu_counts
        a, m, r, x, p = counts(ly.k, ly.f, unit.c)
        add, mul, reg, mux, mx = n * a, n * m, n * r, n * x, n * p
        if unit.accumulators:
            a, r = _accumulator_counts(ly.d_out, unit.accumulators, n)
            add += a
            reg += r
        if scope.include_bias and ly.has_weights:
            # a depthwise output stream carries the C channels of its KPU
            a, x = _bias_counts(
                ly.d_out, unit.c if ly.kind == LayerKind.DW_CONV else unit.i)
            add += a
            mux += x
        if unit.continuity_break:
            # output-hold registers where the unit count was rounded up
            reg += ly.d_out
    elif isinstance(unit, FcuAllocation):
        n = unit.n_fcu
        a, m, r, x, _ = _fcu_counts(unit.j, unit.h, unit.c)
        add, mul, reg, mux = n * a, n * m, n * r, n * x
        # FC/pointwise bias loads the accumulator start value; no adder
    elif ly.kind == LayerKind.RESIDUAL_ADD:
        add = stream_count(r_in)

    # Input-side interleaving feeds window units only (WINDOW_KINDS): FCUs
    # hold their inputs themselves.  The FIFO on the link inside a lowered
    # depthwise-separable pair is part of the layer and always counted.
    if producer is not None:
        if ly.internal_input:
            reg += ly.d_in
        if scope.include_interleaver and ly.kind in WINDOW_KINDS:
            mux += _interleaver_counts(ly.d_in, producer.interleave, r_in)
    return ResourceVector(add, mul, reg, mux, mx, ly.weight_count)


def network_cost(plan: ArchitecturePlan, scope: CostScope) -> CostReport:
    """Per-layer resource rows plus totals under the given scope."""
    rows: list[CostRow] = []
    fifo_total = 0
    for idx, entry in enumerate(plan.layers):
        producer = plan.layers[idx - 1] if idx > 0 else None
        vec = layer_cost(entry, scope, producer)
        if producer is not None and not entry.layer.internal_input:
            fifo_total += entry.layer.d_in
        rows.append(CostRow(
            name=plan.spec.layer_name(idx),
            kind=entry.layer.kind.value,
            configs=entry.configs,
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
    return network_cost(plan, SCOPE_TABLE7)


@dataclass
class SweepRow:
    rate: Fraction
    vector: ResourceVector
    n_kpu: int
    n_fcu: int
    stalled: bool


def sweep_rates(f: int, k: int, p: int, d_in: int, d_out: int,
                rates: list[Rate], separable: bool = False,
                min_h: int = 1, s: int = 1, name: str = "") -> list[SweepRow]:
    """Resource cost of one layer geometry across input data rates.

    The swept layer is a standard conv, or with separable a depthwise stage
    followed by its pointwise partner at the stage's output rate.  Each row
    is the table7 pricing of that one-layer (or one-pair) network's plan at
    input rate r, so it carries output-hold registers and weights like any
    planned layer; the row is flagged stalled when the first layer stalls.
    A rate above d_in raises AllocError, naming the swept layer `name`.
    """
    if separable:
        dw = LayerSpec(LayerKind.DW_CONV, f, k, s, p, d_in, d_in, name=name)
        layers = [dw, LayerSpec(LayerKind.PW_CONV, dw.f_out, 1, 1, 0, d_in,
                                d_out, internal_input=True)]
    else:
        layers = [LayerSpec(LayerKind.CONV, f, k, s, p, d_in, d_out,
                            name=name)]
    rows: list[SweepRow] = []
    for r in rates:
        r = Fraction(r)
        plan = plan_network(NetworkSpec(layers, (f, f, d_in), r), min_h=min_h)
        report = network_cost(plan, SCOPE_TABLE7)
        rows.append(SweepRow(r, report.total, report.total_kpu,
                             report.total_fcu, report.rows[0].stalled))
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
    """Exact integers and small fractions; otherwise two decimals, unless
    they would print a positive rate as 0.00, which prints exact too."""
    if r.denominator == 1:
        return str(r.numerator)
    text = f"{float(r):.2f}"
    if r.denominator <= 32 or text == "0.00":
        return f"{r.numerator}/{r.denominator}"
    return text

"""Command-line front end.

Commands
  analyze   per-layer geometry, configurations and exact data rates
  plan      unit allocation (KPU/FCU/PPU counts, interleaving, widths)
  cost      closed-form resource table under a costing scope
  sweep     one layer geometry across a list of input data rates
  simulate  cycle-accurate run; outputs, stats and, with --trace, the signal
            events read from each layer's own output (`signal_events`)
  compare   simulator vs reference inference over seeded random trials
  trace     per-cycle table of one unit of a layer (timing-table style)

A per-layer command selects columns from one record per planned layer
(`_layer_records`; `cost` joins each layer's resources onto it), and every
command prints through `_emit`: text is a table of those columns and then
notes, csv the same columns, json the command's document.  `simulate` and
`compare` print notes only and take text or json.  `--min-h` does not
affect the fully parallel point.

Every command is deterministic given its files, flags and seed.  Exit codes:
0 ok, 1 comparison failure, 2 bad input.  A reader that closes standard
output early ends the command quietly, with 0 unless it had already
returned 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .alloc import (AllocError, ArchitecturePlan, FcuAllocation, plan_network,
                    plan_to_dict)
from .cost import (SCOPES, approx_display, network_cost, rate_display,
                   sweep_rates)
from .netspec import (LayerKind, NetworkSpec, SpecError, load_network_file,
                      validate_network)
from .oracle import (OracleError, gen_network_weights, gen_random,
                     load_tensor, ref_network, weights_from_json)
from .sim.engine import SimConfigError, signal_events, simulate_network
from .sim.trace import fcu_trace, kpu_trace
from .sim.units import WidthOverflow


class CliError(Exception):
    pass


def _load_spec(path: str) -> NetworkSpec:
    try:
        return load_network_file(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except SpecError as exc:
        raise CliError(f"{path}: {exc}") from None


def _parse_rates(text: str) -> list[Fraction]:
    try:
        rates = [Fraction(part) for part in text.split(",") if part]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rate list {text!r}: {exc}") from None
    if not rates or any(r <= 0 for r in rates):
        raise CliError(f"bad rate list {text!r}: give one or more positive "
                       f"rates")
    return rates


def _layer_index(spec: NetworkSpec, layer: str) -> int:
    """Index of the layer given by index or name."""
    try:
        idx = int(layer)
    except ValueError:
        names = [spec.layer_name(i) for i in range(len(spec.layers))]
        if layer not in names:
            raise CliError(f"no layer named {layer!r}") from None
        idx = names.index(layer)
    if not 0 <= idx < len(spec.layers):
        raise CliError(f"layer index {idx} out of range")
    return idx


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, col)) for col in zip(headers, *rows)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return "\n".join(fmt.format(*row) for row in [headers] + rows)


def _cell(value) -> str:
    """A record value as a text or CSV cell: a flag is a mark, a rate is
    exact or rounded."""
    if isinstance(value, bool):
        return "*" if value else ""
    if isinstance(value, Fraction):
        return rate_display(value)
    return str(value)


def _columns(text: str) -> list[tuple[str, str]]:
    """(header, record key) pairs from "header header=key ..."."""
    return [(h, key or h) for h, _, key in (c.partition("=")
                                             for c in text.split())]


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(args, payload, columns=(), records=(), notes=()) -> None:
    """Print a command's output: json prints its payload; text prints the
    (header, key) columns of its records as a table, then its notes; csv
    prints the same columns."""
    if args.format == "json":
        # trace's events keep their field order
        print(json.dumps(payload, indent=2, default=_json_value,
                         sort_keys=args.command != "trace"))
        return
    headers = [header for header, _ in columns]
    rows = [[_cell(rec.get(key, "")) for _, key in columns] for rec in records]
    if args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([headers] + rows)
    else:
        table = [_table(headers, rows)] if columns else []
        print("\n".join(table + list(notes)))


def _layer_records(plan: ArchitecturePlan) -> list[dict]:
    """One record per planned layer: its `plan_to_dict` row with exact
    rates, its geometry, its unit counts and the plan's units and I/j/h
    cells."""
    records = []
    for entry, row in zip(plan.layers, plan_to_dict(plan)["layers"]):
        ly, unit = entry.layer, entry.unit
        if isinstance(unit, FcuAllocation):
            units = f"{unit.n_fcu} FCU"
            aggregation = f",a={unit.a}" if unit.a > 1 else ""
            ijh = f"j={unit.j},h={unit.h}{aggregation}"
        elif unit is None:
            units, ijh = "-", ""
        else:
            units = f"{unit.n_units} {'PPU' if entry.n_ppu else 'KPU'}"
            ijh = "" if entry.n_ppu else f"I={unit.i}"
        records.append(dict(
            row, f=ly.f, k=ly.k, s=ly.s, p=ly.p, d_in=ly.d_in,
            d_out=ly.d_out, r_in=entry.rate.r_in, r_out=entry.rate.r_out,
            utilization=entry.rate.utilization, kpu=entry.n_kpu,
            fcu=entry.n_fcu, ppu=entry.n_ppu, units=units, ijh=ijh))
    return records


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h)
    records = _layer_records(plan)
    columns = _columns("layer kind f k s p d_in d_out C=configs r_out flow")
    keys = [key for _, key in columns] + ["utilization"]
    warn = [str(d) for d in validate_network(spec)] + plan.warnings
    payload = {"layers": [{key: rec[key] for key in keys} for rec in records],
               "warnings": warn}
    _emit(args, payload, columns, records, [f"! {w}" for w in warn])
    return 0


def cmd_plan(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h, parallel=args.parallel,
                        shared_pointwise_streams=args.shared_pointwise)
    doc = plan_to_dict(plan)
    totals = doc["totals"]
    notes = [f"totals: KPU {totals['kpu']}  FCU {totals['fcu']}  "
             f"PPU {totals['ppu']}  cycles/map {doc['cycle_budget']}"]
    columns = _columns("layer kind units C=configs I/j/h=ijh width=acc_width "
                       "r_out")
    _emit(args, doc, columns, _layer_records(plan),
          notes + [f"! {w}" for w in doc["warnings"]])
    return 0


def cmd_cost(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h,
                        parallel=args.scope == "parallel")
    report = network_cost(plan, SCOPES[args.scope])
    records = [dict(rec, label=row.name + ("*" if row.stalled else ""),
                    **asdict(row.vector))
               for rec, row in zip(_layer_records(plan), report.rows)]
    t = report.total
    total = dict(asdict(t), kpu=report.total_kpu, fcu=report.total_fcu,
                 ppu=report.total_ppu)
    columns = _columns("layer=label kind C=configs r=r_out weights add=adders "
                       "mul=multipliers reg=registers mux2 max=max_units "
                       "KPU=kpu FCU=fcu PPU=ppu")
    payload = {"scope": args.scope,
               "rows": [{header: _cell(rec[key]) for header, key in columns}
                        for rec in records],
               "total": total, "fifo_registers": report.fifo_registers}
    notes = [f"rounded totals: add {approx_display(t.adders)}  "
             f"mul {approx_display(t.multipliers)}  "
             f"reg {approx_display(t.registers)}  "
             f"mux {approx_display(t.mux2)}"]
    if report.fifo_registers:
        notes.append(f"inter-layer FIFO registers (off-row): "
                     f"{report.fifo_registers}")
    _emit(args, payload, columns, records + [dict(total, label="total")],
          notes)
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    idx = _layer_index(spec, args.layer)
    ly = spec.layers[idx]
    # a depthwise stage followed by its lowered pointwise partner sweeps as
    # the separable pair
    paired = (ly.kind == LayerKind.DW_CONV and idx + 1 < len(spec.layers)
              and spec.layers[idx + 1].internal_input)
    if ly.kind != LayerKind.CONV and not paired:
        raise CliError(f"cannot sweep layer {spec.layer_name(idx)!r} "
                       f"({ly.kind.value}): only a conv or a depthwise stage "
                       f"with its pointwise partner sweeps")
    separable = args.separable or paired
    d_out = spec.layers[idx + 1].d_out if paired else ly.d_out
    rates = _parse_rates(args.rates)
    rows = sweep_rates(ly.f, ly.k, ly.p, ly.d_in, d_out, rates,
                       separable=separable, min_h=args.min_h, s=ly.s,
                       name=spec.layer_name(idx))
    records = [dict(asdict(row.vector), rate=row.rate, kpu=row.n_kpu,
                    fcu=row.n_fcu, stalled=row.stalled) for row in rows]
    columns = _columns("r_in=rate add=adders mul=multipliers reg=registers "
                       "mux2 KPU=kpu FCU=fcu stall=stalled")
    payload = {"rows": [{key: rec[key] for _, key in columns}
                        for rec in records]}
    _emit(args, payload, columns, records)
    return 0


def _check_range(values: np.ndarray, bits: int, field: str,
                 where: str) -> None:
    """Refuse a file value outside the signed width the document declares
    for it; the library itself computes on any int64."""
    half = 1 << (bits - 1)
    if values.size:
        lo, hi = int(values.min()), int(values.max())
        if lo < -half or hi >= half:
            raise CliError(f"{where} holds {lo if lo < -half else hi}, "
                           f"outside [{-half}, {half}) of {field} {bits}")


def _load_inputs(args, spec: NetworkSpec):
    quant = spec.quant
    if args.input:
        try:
            x = load_tensor(args.input)
        except OSError as exc:
            raise CliError(f"cannot read {args.input}: {exc}") from None
        _check_range(x, quant.activation_bits, "activation_bits", args.input)
    else:
        h, w, c = spec.input_shape
        x = gen_random((h, w, c), args.seed, quant.activation_bits)
    if args.weights:
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                weights = weights_from_json(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.weights}: {exc}") from None
        for name, entry in weights.items():
            # biases have no declared width
            _check_range(entry["w"], quant.weight_bits, "weight_bits",
                         f"{args.weights}: layer {name!r}")
    else:
        weights = gen_network_weights(spec, args.seed)
    return weights, x


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    # split at the commas outside [...], which a signal name holds
    wanted = tuple(re.findall(r"(?:[^,\[]|\[[^\]]*\]?)+", args.trace or ""))
    if args.trace and not wanted:
        raise CliError(f"--trace {args.trace!r} names no signal substring")
    plan = plan_network(spec, min_h=args.min_h)
    weights, x = _load_inputs(args, spec)
    maps = [x] if args.maps == 1 else [
        gen_random(x.shape, args.seed + m, spec.quant.activation_bits)
        if m else x for m in range(args.maps)]
    result = simulate_network(plan, weights, maps, truncate=args.truncate)
    out = result.outputs[-1]
    stats = result.stats
    payload = {
        "outputs": out.reshape(-1).tolist(),
        "cycles": stats.cycles,
        "first_output_latency": stats.first_output_latency,
        "utilization": stats.utilization,
        "fifo_peaks": stats.fifo_peaks,
    }
    lines = [f"outputs (last map): {payload['outputs']}",
             f"cycles: {stats.cycles}",
             f"first output latency: {stats.first_output_latency}",
             "utilization: " + " ".join(
                 "-" if u is None else str(u) for u in stats.utilization),
             f"fifo peaks: {stats.fifo_peaks}"]
    if wanted:
        events = signal_events(spec, result, wanted)
        payload["events"] = [{"cycle": c, "signal": s, "value": v,
                              "valid": ok} for c, s, v, ok in events]
        lines += [f"{c:>6}  {s:<18} {v}" for c, s, v, ok in events]
    _emit(args, payload, notes=lines)
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h)
    h, w, c = spec.input_shape
    trials = args.trials
    # trial-batched execution: weights and inputs carry a trailing trial axis
    stacked: dict = {}
    per_trial = [gen_network_weights(spec, args.seed + t) for t in range(trials)]
    for name in per_trial[0]:
        stacked[name] = {
            "w": np.stack([pt[name]["w"] for pt in per_trial], axis=-1),
            "b": None if per_trial[0][name]["b"] is None else
                 np.stack([pt[name]["b"] for pt in per_trial], axis=-1),
        }
    x = np.stack([gen_random((h, w, c), args.seed + 10_000 + t,
                             spec.quant.activation_bits)
                  for t in range(trials)], axis=-1)
    result = simulate_network(plan, stacked, x, truncate=args.truncate)
    got = result.outputs[0]
    mismatched = [t for t in range(trials) if not np.array_equal(
        got[..., t], ref_network(spec, per_trial[t], x[..., t],
                                 truncate=args.truncate))]
    notes = [f"trial {t}: {'MISMATCH' if t in mismatched else 'ok'}"
             for t in range(trials)]
    notes.append(f"{len(mismatched)}/{trials} trials mismatched: {mismatched}"
                 if mismatched else f"all {trials} trials bit-exact")
    _emit(args, {"trials": trials, "mismatched": mismatched}, notes=notes)
    return 1 if mismatched else 0


def cmd_trace(args) -> int:
    spec = _load_spec(args.spec)
    idx = _layer_index(spec, args.layer)
    ly = spec.layers[idx]
    rng = np.random.default_rng(args.seed)
    half = 1 << (spec.quant.weight_bits - 1)
    if ly.kind == LayerKind.FC:
        d_in = ly.feature_count
        plan = plan_network(spec, min_h=args.min_h)
        unit = plan.layers[idx].unit
        w = np.zeros((unit.h, d_in), dtype=np.int64) if args.zero else \
            rng.integers(-half, half, size=(unit.h, d_in), dtype=np.int64)
        x = rng.integers(-half, half, size=d_in, dtype=np.int64)
        trace = fcu_trace(unit.j, unit.h, d_in, w, x, aggregate=unit.a)
    elif ly.kind in (LayerKind.CONV, LayerKind.DW_CONV):
        w = np.zeros((ly.k, ly.k), dtype=np.int64) if args.zero else \
            rng.integers(-half, half, size=(ly.k, ly.k), dtype=np.int64)
        maps = [rng.integers(-half, half, size=ly.f * ly.f, dtype=np.int64)
                for _ in range(args.maps)]
        trace = kpu_trace(ly.f, ly.k, ly.p, w, maps, s=ly.s)
    else:
        raise CliError(f"trace supports conv and fc layers, not {ly.kind.value}")
    columns = [(name, name) for name in ["t"] + trace.columns]
    records = [dict({name: row.cell(name) for name in trace.columns},
                    t=row.cycle) for row in trace.rows]
    _emit(args, trace.to_events(), columns, records)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcnn",
        description="plan, price and cycle-accurately simulate "
                    "continuous-flow CNN architectures")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, seeded=False,
                formats=("text", "json", "csv")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("spec", help="network document (JSON)")
        p.add_argument("--min-h", type=int, default=1,
                       help="minimum FCU pipeline depth (drives aggregation; "
                            "the fully parallel point ignores it)")
        p.add_argument("--format", choices=formats, default="text")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        return p

    command("analyze", cmd_analyze, "rates, configurations, stalls")

    p = command("plan", cmd_plan, "unit allocation")
    p.add_argument("--parallel", action="store_true",
                   help="fully parallel reference point (r_in = d_in)")
    p.add_argument("--shared-pointwise", action="store_true",
                   help="let pointwise FCUs with h=1 time-multiplex ceil(r) "
                        "output channels (fewer units, interleaved outputs)")

    p = command("cost", cmd_cost, "closed-form resource table")
    p.add_argument("--scope", choices=sorted(SCOPES), default="table6")

    p = command("sweep", cmd_sweep, "one layer across data rates")
    p.add_argument("--layer", required=True, help="layer index or name")
    p.add_argument("--rates", required=True,
                   help="comma-separated exact rates, e.g. 8,4,2,1,1/2")
    p.add_argument("--separable", action="store_true",
                   help="treat the layer as depthwise-separable")

    p = command("simulate", cmd_simulate, "cycle-accurate run", seeded=True,
                formats=("text", "json"))
    p.add_argument("--weights", help="weights JSON file")
    p.add_argument("--input", help="input tensor fixture")
    p.add_argument("--maps", type=int, default=1,
                   help="number of back-to-back feature maps")
    p.add_argument("--truncate", action="store_true",
                   help="wrap activations to their quantized width per layer")
    p.add_argument("--trace", help="comma-separated signal substrings to log")

    p = command("compare", cmd_compare, "simulator vs reference inference",
                seeded=True, formats=("text", "json"))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--truncate", action="store_true")

    p = command("trace", cmd_trace, "per-cycle table of one unit",
                seeded=True)
    p.add_argument("--layer", required=True, help="layer index or name")
    p.add_argument("--maps", type=int, default=1)
    p.add_argument("--zero", action="store_true", help="zero weights")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = 0
    try:
        for name, least in (("maps", 1), ("trials", 1), ("min_h", 1),
                            ("seed", 0)):
            if getattr(args, name, least) < least:
                raise CliError(f"--{name.replace('_', '-')} must be a "
                               f"{'positive' if least else 'non-negative'} "
                               f"integer")
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe shows here, not at exit
    except (CliError, SpecError, AllocError, OracleError, SimConfigError,
            WidthOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: drop the unwritten output, so that the
        # interpreter's last flush at exit has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())

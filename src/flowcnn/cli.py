"""Command-line front end.

Commands
  analyze   per-layer geometry, configurations and exact data rates
  plan      unit allocation (KPU/FCU/PPU counts, interleaving, widths)
  cost      closed-form resource table under a costing scope
  sweep     one layer geometry across a list of input data rates
  simulate  cycle-accurate run; outputs, stats and optional signal events
  compare   simulator vs reference inference over seeded random trials
  trace     per-cycle table of one unit of a layer (timing-table style)

Every command is deterministic given its files, flags and seed.  Exit codes:
0 ok, 1 comparison failure, 2 bad input.  A reader that closes standard
output early ends the command quietly, with 0 unless it had already
returned 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .alloc import AllocError, plan_network, plan_to_dict
from .cost import (SCOPES, CostReport, approx_display, network_cost,
                   rate_display, sweep_rates)
from .netspec import (LayerKind, NetworkSpec, SpecError, load_network_file,
                      validate_network)
from .oracle import (OracleError, gen_network_weights, gen_random,
                     load_tensor, ref_network, weights_from_json)
from .sim.engine import SimConfigError, simulate_network
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
    if any(r <= 0 for r in rates):
        raise CliError(f"bad rate list {text!r}: rates must be positive")
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
    lines = [fmt.format(*headers)]
    lines += [fmt.format(*row) for row in rows]
    return "\n".join(lines)


def _emit(args, payload: dict, text: str, csv_rows=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv" and csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(c) for c in row))
    else:
        print(text)


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h)
    headers = ["layer", "kind", "f", "k", "s", "p", "d_in", "d_out",
               "C", "r_out", "flow"]
    rows, payload = [], []
    for entry in plan.layers:
        ly = entry.layer
        rows.append([spec.layer_name(entry.index), ly.kind.value,
                     str(ly.f), str(ly.k), str(ly.s), str(ly.p),
                     str(ly.d_in), str(ly.d_out), str(entry.configs),
                     rate_display(entry.rate.r_out), entry.rate.flow.value])
        payload.append({"layer": spec.layer_name(entry.index),
                        "kind": ly.kind.value, "f": ly.f, "k": ly.k,
                        "s": ly.s, "p": ly.p, "d_in": ly.d_in,
                        "d_out": ly.d_out, "configs": entry.configs,
                        "r_out": str(entry.rate.r_out),
                        "flow": entry.rate.flow.value,
                        "utilization": str(entry.rate.utilization)})
    text = _table(headers, rows)
    warn = [str(d) for d in validate_network(spec)] + plan.warnings
    if warn:
        text += "\n" + "\n".join(f"! {w}" for w in warn)
    _emit(args, {"layers": payload, "warnings": warn}, text,
          [headers] + rows)
    return 0


def cmd_plan(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h, parallel=args.parallel,
                        shared_pointwise_streams=args.shared_pointwise)
    doc = plan_to_dict(plan)
    headers = ["layer", "kind", "units", "C", "I/j/h", "width", "r_out"]
    rows = []
    for entry, row in zip(plan.layers, doc["layers"]):
        if "kpus" in row:
            units, extra = f"{row['kpus']} KPU", f"I={row['interleave']}"
        elif "fcus" in row:
            units = f"{row['fcus']} FCU"
            extra = f"j={row['j']},h={row['h']}" + (
                f",a={row['aggregation']}" if row["aggregation"] > 1 else "")
        elif "ppus" in row:
            units, extra = f"{row['ppus']} PPU", ""
        else:
            units, extra = "-", ""
        rows.append([row["layer"], row["kind"], units, str(row["configs"]),
                     extra, str(row["acc_width"]), rate_display(entry.rate.r_out)])
    text = _table(headers, rows)
    totals = doc["totals"]
    text += (f"\ntotals: KPU {totals['kpu']}  FCU {totals['fcu']}  "
             f"PPU {totals['ppu']}  cycles/map {doc['cycle_budget']}")
    if doc["warnings"]:
        text += "\n" + "\n".join(f"! {w}" for w in doc["warnings"])
    _emit(args, doc, text, [headers] + rows)
    return 0


def _cost_rows(report: CostReport):
    headers = ["layer", "kind", "C", "r", "weights", "add", "mul", "reg",
               "mux2", "max", "KPU", "FCU", "PPU"]
    rows = []
    for r in report.rows:
        v = r.vector
        rows.append([r.name + ("*" if r.stalled else ""), r.kind,
                     str(r.configs), rate_display(r.r_out), str(v.weights),
                     str(v.adders), str(v.multipliers), str(v.registers),
                     str(v.mux2), str(v.max_units), str(r.n_kpu),
                     str(r.n_fcu), str(r.n_ppu)])
    t = report.total
    rows.append(["total", "", "", "", str(t.weights), str(t.adders),
                 str(t.multipliers), str(t.registers), str(t.mux2),
                 str(t.max_units), str(report.total_kpu),
                 str(report.total_fcu), str(report.total_ppu)])
    return headers, rows


def cmd_cost(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h,
                        parallel=args.scope == "parallel")
    report = network_cost(plan, SCOPES[args.scope])
    headers, rows = _cost_rows(report)
    text = _table(headers, rows)
    t = report.total
    text += (f"\nrounded totals: add {approx_display(t.adders)}  "
             f"mul {approx_display(t.multipliers)}  "
             f"reg {approx_display(t.registers)}  "
             f"mux {approx_display(t.mux2)}")
    if report.fifo_registers:
        text += f"\ninter-layer FIFO registers (off-row): {report.fifo_registers}"
    payload = {
        "scope": args.scope,
        "rows": [dict(zip(headers, row)) for row in rows[:-1]],
        "total": {"weights": t.weights, "adders": t.adders,
                  "multipliers": t.multipliers, "registers": t.registers,
                  "mux2": t.mux2, "max_units": t.max_units,
                  "kpu": report.total_kpu, "fcu": report.total_fcu,
                  "ppu": report.total_ppu},
        "fifo_registers": report.fifo_registers,
    }
    _emit(args, payload, text, [headers] + rows)
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
                       separable=separable, min_h=args.min_h, s=ly.s)
    headers = ["r_in", "add", "mul", "reg", "mux2", "KPU", "FCU", "stall"]
    table = []
    for row in rows:
        v = row.vector
        table.append([rate_display(row.rate), str(v.adders),
                      str(v.multipliers), str(v.registers), str(v.mux2),
                      str(row.n_kpu), str(row.n_fcu),
                      "*" if row.stalled else ""])
    payload = [{"rate": str(r.rate), "adders": r.vector.adders,
                "multipliers": r.vector.multipliers,
                "registers": r.vector.registers, "mux2": r.vector.mux2,
                "kpu": r.n_kpu, "fcu": r.n_fcu, "stalled": r.stalled}
               for r in rows]
    _emit(args, {"rows": payload}, _table(headers, table), [headers] + table)
    return 0


def _load_inputs(args, spec: NetworkSpec):
    if args.input:
        try:
            x = load_tensor(args.input)
        except OSError as exc:
            raise CliError(f"cannot read {args.input}: {exc}") from None
    else:
        h, w, c = spec.input_shape
        x = gen_random((h, w, c), args.seed, spec.quant.activation_bits)
    if args.weights:
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                weights = weights_from_json(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.weights}: {exc}") from None
    else:
        weights = gen_network_weights(spec, args.seed)
    return weights, x


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    plan = plan_network(spec, min_h=args.min_h)
    weights, x = _load_inputs(args, spec)
    maps = [x] if args.maps == 1 else [
        gen_random(x.shape, args.seed + m, spec.quant.activation_bits)
        if m else x for m in range(args.maps)]
    result = simulate_network(plan, weights, maps, truncate=args.truncate,
                              collect_events=bool(args.trace))
    out = result.outputs[-1]
    stats = result.stats
    payload = {
        "outputs": out.reshape(-1).tolist(),
        "cycles": stats.cycles,
        "first_output_latency": stats.first_output_latency,
        "utilization": [None if u is None else str(u)
                        for u in stats.utilization],
        "fifo_peaks": stats.fifo_peaks,
    }
    lines = [f"outputs (last map): {out.reshape(-1).tolist()}",
             f"cycles: {stats.cycles}",
             f"first output latency: {stats.first_output_latency}",
             "utilization: " + " ".join(
                 "-" if u is None else str(u) for u in stats.utilization),
             f"fifo peaks: {stats.fifo_peaks}"]
    if args.trace:
        wanted = args.trace.split(",")
        events = [e for e in result.events
                  if any(w in e[1] for w in wanted)]
        payload["events"] = [{"cycle": c, "signal": s, "value": v,
                              "valid": ok} for c, s, v, ok in events]
        lines += [f"{c:>6}  {s:<18} {v}" for c, s, v, ok in events]
    _emit(args, payload, "\n".join(lines))
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
    failures = []
    for t in range(trials):
        ref = ref_network(spec, per_trial[t], x[..., t],
                          truncate=args.truncate)
        ok = np.array_equal(got[..., t], ref)
        print(f"trial {t}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(t)
    if failures:
        print(f"{len(failures)}/{trials} trials mismatched: {failures}")
        return 1
    print(f"all {trials} trials bit-exact")
    return 0


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
    if args.format == "json":
        print(json.dumps(trace.to_events(), indent=2))
    else:
        print(_table(["t"] + trace.columns,
                     [[str(row.cycle)] + [row.cell(c) for c in trace.columns]
                      for row in trace.rows]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcnn",
        description="plan, price and cycle-accurately simulate "
                    "continuous-flow CNN architectures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("spec", help="network document (JSON)")
        p.add_argument("--min-h", type=int, default=1,
                       help="minimum FCU pipeline depth (drives aggregation)")
        p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="rates, configurations, stalls")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("plan", help="unit allocation")
    common(p)
    p.add_argument("--parallel", action="store_true",
                   help="fully parallel reference point (r_in = d_in)")
    p.add_argument("--shared-pointwise", action="store_true",
                   help="let pointwise FCUs with h=1 time-multiplex ceil(r) "
                        "output channels (fewer units, interleaved outputs)")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("cost", help="closed-form resource table")
    common(p)
    p.add_argument("--scope", choices=sorted(SCOPES), default="table6")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("sweep", help="one layer across data rates")
    common(p)
    p.add_argument("--layer", required=True, help="layer index or name")
    p.add_argument("--rates", required=True,
                   help="comma-separated exact rates, e.g. 8,4,2,1,1/2")
    p.add_argument("--separable", action="store_true",
                   help="treat the layer as depthwise-separable")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="cycle-accurate run")
    common(p, seeded=True)
    p.add_argument("--weights", help="weights JSON file")
    p.add_argument("--input", help="input tensor fixture")
    p.add_argument("--maps", type=int, default=1,
                   help="number of back-to-back feature maps")
    p.add_argument("--truncate", action="store_true",
                   help="wrap activations to their quantized width per layer")
    p.add_argument("--trace", help="comma-separated signal substrings to log")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="simulator vs reference inference")
    common(p, seeded=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--truncate", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("trace", help="per-cycle table of one unit")
    common(p, seeded=True)
    p.add_argument("--layer", required=True, help="layer index or name")
    p.add_argument("--maps", type=int, default=1)
    p.add_argument("--zero", action="store_true", help="zero weights")
    p.set_defaults(fn=cmd_trace)
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

"""Per-cycle signal traces of single units, formatted like timing tables.

A trace row carries every tapped signal of one clock cycle; absent signals
render as "-".  Two tracers cover the interesting machines:

  * kpu_trace: a KPU streaming one or more feature maps, tapping the input,
    the padding-select tuple, all partial-sum nodes a_{row}{node} and the
    window output y with its validity schedule.
  * fcu_trace: an FCU tapping the held input batch (or, with input
    aggregation, the lanes gathered so far), the active weight row, the
    recalled partial sum q and the output y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rate import map_stream, valid_output_positions
from .engine import _chain
from .units import FcuUnit, KpuUnit


@dataclass
class TraceRow:
    cycle: int
    signals: dict[str, object] = field(default_factory=dict)  # name -> value
    valid: dict[str, bool] = field(default_factory=dict)

    def cell(self, name: str) -> str:
        if not self.valid.get(name, False):
            return "-"
        val = self.signals[name]
        return str(val)


@dataclass
class CycleTrace:
    columns: list[str]
    rows: list[TraceRow] = field(default_factory=list)

    def to_events(self) -> list[dict]:
        out = []
        for row in self.rows:
            for name in self.columns:
                out.append({"cycle": row.cycle, "signal": name,
                            "value": row.signals.get(name),
                            "valid": bool(row.valid.get(name, False))})
        return out

    def column(self, name: str) -> list[tuple[int, object, bool]]:
        return [(r.cycle, r.signals.get(name), r.valid.get(name, False))
                for r in self.rows]


def kpu_trace(f: int, k: int, p: int, weights: np.ndarray,
              maps: list[np.ndarray], s: int = 1) -> CycleTrace:
    """Stream feature maps (row-major, flattened) through one KPU.

    maps are flat arrays of f*f integers.  With padding, each map is
    preceded by p*(f+1) zeros and the trailing zeros double as the next
    map's top padding.  Taps a_{i+1}{m+1} show the partial sum z for the
    window they contribute to; a tap is valid only while that window is a
    valid output position.
    """
    unit = KpuUnit(k, f, 1, weights.reshape(1, k, k), p)
    prefix, period = map_stream(f, p)
    total = prefix + len(maps) * period

    tap_names = {(i, m): "y_n" if i == m == k - 1 else f"a_{i + 1}{m + 1}"
                 for i in range(k) for m in range(k)}
    columns = ["x_n"] + (["pad"] if p else []) + list(tap_names.values())
    valid = set(valid_output_positions(f, k, s, p).tolist())

    def anchor(x: int) -> tuple[int, int] | None:
        """(map, pixel) streaming in at position x + prefix, or None."""
        m, n = divmod(x, period)
        return (m, n) if 0 <= m < len(maps) and n < f * f else None

    trace = CycleTrace(columns)
    for t in range(total):
        pixel = anchor(t - prefix)
        if pixel is None:
            x, col, label = 0, None, "0"
        else:
            m, n = pixel
            x, col, label = int(maps[m][n]), n % f, f"x_{n}"
        taps = unit.step(x, col)
        row = TraceRow(t)
        row.signals["x_n"] = label
        row.valid["x_n"] = True
        if p:
            row.signals["pad"] = "-" if col is None else \
                "(" + ",".join(str(b) for b in unit.gates[col]) + ")"
            row.valid["pad"] = col is not None
        for (i, m), val in taps.items():
            name = tap_names[(i, m)]
            window = anchor(t - unit.tap_delay(i, m))
            ok = window is not None and window[1] in valid
            w_local = window[1] if ok else None
            row.valid[name] = ok
            if name == "y_n":
                row.signals[name] = f"y_{w_local}" if ok else None
                row.signals["y_value"] = int(val) if np.ndim(val) == 0 else val
                row.signals["y_window"] = w_local
            else:
                z_index = i * k + m
                row.signals[name] = f"z_{w_local},{z_index}" if ok else None
                row.signals[f"{name}_value"] = val
        trace.rows.append(row)
    return trace


def fcu_trace(j: int, h: int, d_in: int, weights: np.ndarray,
              x: np.ndarray, aggregate: int = 1) -> CycleTrace:
    """Feed d_in features through one FCU computing h neurons.

    weights is (h, d_in), a row per neuron; x is the flat feature vector.
    With aggregate > 1 the features arrive aggregate-per-batch slower and
    an input aggregator assembles the wide batches, exactly one cycle of
    extra delay per missing lane.  The batches start on the engine's
    schedule (`_chain`).
    """
    n_batches = d_in // j
    configs = h * n_batches
    # configuration b*h + sl: neuron sl's weights on batch b
    bank = weights.reshape(h, n_batches, j).swapaxes(0, 1).reshape(configs, j)
    unit = FcuUnit(j, h, configs, bank)

    aggregated = aggregate > 1
    first = "x" if aggregated else "n"
    columns = [first] + [f"w_i{m}" for m in range(j)] + ["q", "y"]
    trace = CycleTrace(columns)
    # Narrow deliveries land one lane group per cycle and become visible a
    # cycle later; the aggregator keeps filling while the FCU works on the
    # previously latched batch, so batch b is ready at (b+1)*a.  Without
    # aggregation the batches run back to back.
    lanes = j // aggregate
    n_groups = d_in // lanes
    ready = np.arange(1, n_batches + 1) * aggregate if aggregated \
        else np.zeros(n_batches, dtype=np.int64)
    starts = _chain(ready, h).tolist()
    end = starts[-1] + h

    def agg_view(t: int, consumed_batches: int) -> str:
        arrived = min(t, n_groups)
        fresh = arrived - consumed_batches * aggregate
        vals: list[object] = [None] * (aggregate - fresh) * lanes
        base = consumed_batches * aggregate
        for g in range(base, base + fresh):
            vals.extend(int(v) for v in x[g * lanes:(g + 1) * lanes])
        return "(" + ",".join("-" if v is None else str(v)
                              for v in vals[-j:]) + ")"

    b = 0
    for t in range(end):
        row = TraceRow(t)
        row.valid[first] = True
        if b < n_batches and starts[b] <= t:
            slot = t - starts[b]
            batch = x[b * j:(b + 1) * j]
            if aggregated:
                row.signals["x"] = "(" + ",".join(str(int(v)) for v in batch) + ")"
            else:
                row.signals["n"] = b * j
            cfg = b * h + slot
            for m in range(j):
                row.signals[f"w_i{m}"] = f"w_{cfg},{m}"
                row.valid[f"w_i{m}"] = True
            q, y = unit.step(batch, first_round=(b == 0))
            row.signals["q"] = int(q) if np.ndim(q) == 0 else q
            row.valid["q"] = True
            last = b == n_batches - 1
            row.signals["y"] = f"y_{slot}" if last \
                else f"z_{slot},{(b + 1) * j - 1}"
            row.signals["y_value"] = int(y)
            row.valid["y"] = True
            if slot == h - 1:
                b += 1
        else:
            row.signals["x"] = agg_view(t, b)
            for m in range(j):
                row.valid[f"w_i{m}"] = False
            row.signals["q"] = 0
            row.valid["q"] = True
            row.valid["y"] = False
        trace.rows.append(row)
    return trace

"""Execute an architecture plan cycle-accurately over input feature maps.

Each layer runs its planned units in lockstep over a shared slot schedule:
a *position* is one sliding-window step of the input stream (a map pixel or
an implicit-padding zero row element) and spans `glen` cycles, one per
interleaved channel slot.  A position starts no earlier than one cycle after
its last input feature reaches the layer (inter-layer FIFOs decouple
producers from consumers) and no earlier than the previous position's end.
Padding positions take stream time too, so a layer behind a padded one idles
while that layer streams its padding and measures utilization below 1.

Units only advance on enabled cycles (clock gating), so unit state is a pure
function of the slot sequence while wall-clock cycle stamps carry the
schedule.  Values may carry trailing trial dimensions; the whole simulation
is then batched across trials with identical control flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..alloc import (ArchitecturePlan, ConvAllocation, FcuAllocation,
                     LayerAllocation, PoolAllocation)
from ..netspec import LayerKind
from ..oracle import wrap_to_width
from ..rate import map_stream, output_valid
from .units import FcuUnit, KpuUnit, PpuUnit


class SimConfigError(Exception):
    """Plan, weights and input do not describe a runnable simulation."""


@dataclass
class LayerSim:
    """Everything a layer hands to its consumer."""

    values: list[np.ndarray]      # per map: (n_pixels, d_out, *TS)
    arrivals: list[np.ndarray]    # per map: (n_pixels, d_out) cycle stamps
    chan_order: list[int]         # channel emission order within one pixel
    n_pixels: int
    busy: list[int]               # enabled cycles attributed to each map
    first_cycle: list[int]        # schedule start of each map
    fifo_peak: int = 0            # peak occupancy of the input-side FIFO
    fifo_final: int = 0           # leftover entries (0 in steady state)


@dataclass
class SimStats:
    cycles: int
    first_output_latency: int
    utilization: list[Fraction | None]
    fifo_peaks: list[int]
    stall_warnings: list[str] = field(default_factory=list)


@dataclass
class SimResult:
    outputs: list[np.ndarray]     # per map: (f_out, f_out, d_out, *TS)
    stats: SimStats
    layers: list[LayerSim]
    events: list[tuple] | None = None   # (cycle, signal, value, valid)


def _select_bias(bias, channels, ts: tuple):
    """Per-channel bias aligned against values carrying trial dims."""
    sel = bias[channels]
    if ts and sel.ndim == 1:
        sel = sel.reshape((len(channels),) + (1,) * len(ts))
    return sel


def _expand_ts(w, base_ndim: int, ts: tuple):
    """Let shared weights broadcast over the trial dims of the values."""
    if ts and w.ndim == base_ndim:
        return w.reshape(w.shape + (1,) * len(ts))
    return w


def _fifo_stats(arr_cycles: list[int], dec_cycles: list[int]) -> tuple[int, int]:
    events = [(c, 1) for c in arr_cycles] + [(c, -1) for c in dec_cycles]
    events.sort()
    depth = peak = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak, depth


def _input_layer(x_maps: list[np.ndarray], rate: Fraction) -> LayerSim:
    """Present the network input as a producing pseudo-layer."""
    n_pixels = x_maps[0].shape[0] * x_maps[0].shape[1]
    d = x_maps[0].shape[2]
    values, arrivals = [], []
    num, den = rate.numerator, rate.denominator
    for m, xm in enumerate(x_maps):
        flat = xm.reshape(n_pixels, d, *xm.shape[3:])
        idx = np.arange(n_pixels * d, dtype=np.int64) + m * n_pixels * d
        arr = (idx * den) // num
        values.append(flat.astype(np.int64))
        arrivals.append(arr.reshape(n_pixels, d))
    return LayerSim(values, arrivals, list(range(d)), n_pixels,
                    busy=[0] * len(x_maps), first_cycle=[0] * len(x_maps))


def _schedule_positions(readies: list[int], glen: int,
                        pace: Fraction) -> list[int]:
    """Start cycles per stream position.

    Positions chain back to back and never start before their data is ready
    (ready -1: a padding zero, ready at once).  Implicit-padding zero slots
    occupy stream time like any other position, so a virtual stream clock
    advances `pace` cycles per position; for non-stalled layers pace equals
    the group length and the clock is simply the chain.  This models holding
    slow inputs stable instead of buffering ahead of the stream.
    """
    schedule = []
    cursor = 0
    clock = Fraction(-1)
    for ready in readies:
        clock += pace
        if ready >= 0:
            clock = max(clock, Fraction(ready))
        start = max(cursor, math.floor(clock) + 1)
        schedule.append(start)
        cursor = start + glen
    return schedule


def _run_conv_like(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, bias, ts: tuple, events) -> LayerSim:
    ly = entry.layer
    f, k, s, p, d_in, d_out = ly.f, ly.k, ly.s, ly.p, ly.d_in, ly.d_out
    unit_alloc = entry.unit
    is_pool = isinstance(unit_alloc, PoolAllocation)
    depthwise = isinstance(unit_alloc, ConvAllocation) and unit_alloc.depthwise
    standard = isinstance(unit_alloc, ConvAllocation) and not depthwise
    n_maps = len(feed.values)
    if feed.n_pixels != f * f:
        raise SimConfigError(
            f"{name}: feed has {feed.n_pixels} pixels, expected {f * f}")

    streams = math.ceil(entry.rate.r_in)
    q = -(-d_in // streams)                      # channels per stream
    interleave = unit_alloc.i if standard else 1
    glen = q * interleave
    # channel consumed by stream sigma at slot t (-1 = idle filler slot)
    slot_ch = np.full((glen, streams), -1, dtype=np.int64)
    for sigma in range(streams):
        for t in range(glen):
            a = t // interleave
            ch = sigma * q + a
            if ch < d_in:
                slot_ch[t, sigma] = ch
    last_use = {}
    for t in range(glen):
        for sigma in range(streams):
            if slot_ch[t, sigma] >= 0:
                last_use[int(slot_ch[t, sigma])] = t

    blocks = unit_alloc.n_streams_out if standard else streams
    width = entry.acc_width

    # Stacked weight banks, one configuration per slot.
    if standard:
        w = _expand_ts(w, 4, ts)
        bank = np.zeros((glen, k, k, streams, blocks) + w.shape[4:],
                        dtype=np.int64)
        for t in range(glen):
            rho = t % interleave
            for sigma in range(streams):
                ch = slot_ch[t, sigma]
                if ch < 0:
                    continue
                for b in range(blocks):
                    oc = b * interleave + rho
                    if oc < d_out:
                        bank[t, :, :, sigma, b] = w[oc, ch]
        unit = KpuUnit(k, f, glen, bank, p, width)
        x_shape = (streams, 1) + ts      # broadcasts over output blocks
    elif depthwise:
        w = _expand_ts(w, 3, ts)
        bank = np.zeros((glen, k, k, streams) + w.shape[3:], dtype=np.int64)
        for t in range(glen):
            for sigma in range(streams):
                ch = slot_ch[t, sigma]
                if ch >= 0:
                    bank[t, :, :, sigma] = w[ch]
        unit = KpuUnit(k, f, glen, bank, p, width)
        x_shape = (streams,) + ts
    else:
        unit = PpuUnit(k, f, glen, width)
        x_shape = (streams,) + ts

    prefix, period, anchors = map_stream(f, p, n_maps)
    lat_pos = (k - 1) * (f + 1)
    # the map pixel each position streams in, and the window it completes
    pixel_at = [None] * prefix + anchors
    window_at = [None] * lat_pos + anchors
    f_out = ly.f_out
    n_out = f_out * f_out

    readies = [-1 if px is None else int(feed.arrivals[px[0]][px[1]].max())
               for px in pixel_at]
    pace = Fraction(d_in) / entry.rate.r_in
    schedule = _schedule_positions(readies, glen, pace)

    out_vals = [np.zeros((n_out, d_out) + ts, dtype=np.int64)
                for _ in range(n_maps)]
    out_arr = [np.zeros((n_out, d_out), dtype=np.int64) for _ in range(n_maps)]
    # the trailing flush zeros belong to the last map
    busy = [period * glen] * (n_maps - 1) + [(period + prefix) * glen]
    first_cycle = [schedule[m * period] for m in range(n_maps)]
    arr_events: list[int] = []
    dec_events: list[int] = []

    zero_x = np.zeros(x_shape, dtype=np.int64)
    gathered = [fv.transpose((1, 0) + tuple(range(2, fv.ndim)))
                for fv in feed.values]     # (d_in, n_pixels, *TS)

    for pi, start in enumerate(schedule):
        col = None
        pix_vals = None
        if pixel_at[pi] is not None:
            m, n = pixel_at[pi]
            col = n % f
            pix_vals = gathered[m][:, n]      # (d_in, *TS)
            for ch in range(d_in):
                arr_events.append(int(feed.arrivals[m][n, ch]))
                dec_events.append(start + last_use[ch])
        window = window_at[pi]
        if window is not None and output_valid(window[1], f, k, s, p):
            wm, w_local = window
            r_s, c_s = divmod(w_local, f)
            opix = (r_s // s) * f_out + (c_s // s)
        else:
            wm = None
        acc = np.zeros((blocks, interleave) + ts, dtype=np.int64) \
            if standard and wm is not None else None
        for t in range(glen):
            if pix_vals is None:
                x = zero_x
            else:
                # idle filler slots (ch == -1) carry weight zero or live in
                # their own interleave slice, so any value is inert
                x = pix_vals[np.maximum(slot_ch[t], 0)].reshape(x_shape)
            if is_pool:
                y = unit.step(x)
            else:
                y = unit.step(x, col)[(k - 1, k - 1)]
            if wm is None:
                continue
            cycle = start + t
            if standard:
                rho = t % interleave
                acc[:, rho] += y.sum(axis=0)
                if t >= glen - interleave:
                    rho = t - (glen - interleave)
                    ocs = np.array([b * interleave + rho for b in range(blocks)])
                    keep = ocs < d_out
                    vals = acc[:, rho][keep]
                    ocs = ocs[keep]
                    if bias is not None:
                        vals = vals + _select_bias(bias, ocs, ts)
                    out_vals[wm][opix, ocs] = vals
                    out_arr[wm][opix, ocs] = cycle
                    if events is not None:
                        _emit_events(events, cycle, name, opix, ocs, vals)
            else:
                chs = slot_ch[t]
                keep = chs >= 0
                vals = y[keep]
                ocs = chs[keep]
                if ly.post_divisor > 1:
                    vals = vals // ly.post_divisor
                if bias is not None and not is_pool:
                    vals = vals + _select_bias(bias, ocs, ts)
                out_vals[wm][opix, ocs] = vals
                out_arr[wm][opix, ocs] = cycle
                if events is not None:
                    _emit_events(events, cycle, name, opix, ocs, vals)

    peak, leftover = _fifo_stats(arr_events, dec_events)
    if standard:
        order = [b * interleave + rho
                 for rho in range(interleave) for b in range(blocks)]
        order = [oc for oc in order if oc < d_out]
    else:
        order = [int(slot_ch[t, sigma])
                 for t in range(glen) for sigma in range(streams)
                 if slot_ch[t, sigma] >= 0]
    return LayerSim(out_vals, out_arr, order, n_out, busy, first_cycle,
                    fifo_peak=peak, fifo_final=leftover)


def _emit_events(events, cycle, name, pixel, channels, values) -> None:
    for ch, val in zip(np.atleast_1d(channels), np.atleast_1d(values)):
        v = val if np.ndim(val) == 0 else val.reshape(-1)[0]
        events.append((cycle, f"{name}.y[{pixel},{int(ch)}]", int(v), True))


def _run_fcu_layer(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, bias, ts: tuple, events) -> LayerSim:
    ly = entry.layer
    unit_alloc = entry.unit
    j, h, n_fcu, configs = (unit_alloc.j, unit_alloc.h, unit_alloc.n_fcu,
                            unit_alloc.c)
    n_maps = len(feed.values)
    if feed.n_pixels != ly.f * ly.f:
        raise SimConfigError(
            f"{name}: feed has {feed.n_pixels} pixels, expected {ly.f * ly.f}")
    # a pointwise layer runs per pixel; a fully connected layer is one pixel
    # of all the feed's features
    n_pixels = feed.n_pixels if ly.kind == LayerKind.PW_CONV else 1
    flat_width = feed.n_pixels // n_pixels * ly.d_in
    if flat_width % j:
        raise SimConfigError(f"{name}: {flat_width} features not divisible "
                             f"by j={j}")
    n_batches = flat_width // j

    # Structural feature order: the producer's emission order per pixel.
    feat_order = [pn * ly.d_in + ch
                  for pn in range(feed.n_pixels // n_pixels)
                  for ch in feed.chan_order]
    batches = [feat_order[b * j:(b + 1) * j] for b in range(n_batches)]

    # One weight configuration per (batch, neuron slot).
    w = _expand_ts(w, 2, ts)
    bank = np.zeros((configs, j, n_fcu) + w.shape[2:], dtype=np.int64)
    for b, feats in enumerate(batches):
        for sl in range(h):
            for u in range(n_fcu):
                bank[b * h + sl, :, u] = w[u * h + sl, feats]
    unit = FcuUnit(j, h, configs, bank, entry.acc_width)
    slot_ocs = [np.array([u * h + sl for u in range(n_fcu)]) for sl in range(h)]

    f_out = ly.f_out
    n_out = f_out * f_out
    out_vals = [np.zeros((n_out, ly.d_out) + ts, dtype=np.int64)
                for _ in range(n_maps)]
    out_arr = [np.zeros((n_out, ly.d_out), dtype=np.int64)
               for _ in range(n_maps)]
    busy = [0] * n_maps
    first_cycle = [None] * n_maps
    arr_events: list[int] = []
    dec_events: list[int] = []
    cursor = 0

    for m in range(n_maps):
        map_vals = feed.values[m].reshape((n_pixels, flat_width) + ts)
        map_arr = feed.arrivals[m].reshape(n_pixels, flat_width)
        for pix in range(n_pixels):
            for b, feats in enumerate(batches):
                arrs = map_arr[pix][feats]
                ready = int(arrs.max())
                start = max(cursor, ready + 1)
                cursor = start + h
                if first_cycle[m] is None:
                    first_cycle[m] = start
                busy[m] += h
                arr_events.extend(int(a) for a in arrs)
                dec_events.extend([start] * j)
                xb = map_vals[pix][feats].reshape((j, 1) + ts)
                last = b == n_batches - 1
                for sl in range(h):
                    _, y = unit.step(xb, first_round=(b == 0))
                    if not last:
                        continue
                    ocs = slot_ocs[sl]
                    vals = y
                    if bias is not None:
                        vals = vals + _select_bias(bias, ocs, ts)
                    cycle = start + sl
                    out_vals[m][pix, ocs] = vals
                    out_arr[m][pix, ocs] = cycle
                    if events is not None:
                        _emit_events(events, cycle, name, pix, ocs, vals)

    peak, leftover = _fifo_stats(arr_events, dec_events)
    order = [u * h + sl for sl in range(h) for u in range(n_fcu)]
    return LayerSim(out_vals, out_arr, order, n_out, busy,
                    [c or 0 for c in first_cycle],
                    fifo_peak=peak, fifo_final=leftover)


def simulate_network(plan: ArchitecturePlan, weights: dict,
                     x_maps: np.ndarray | list[np.ndarray],
                     truncate: bool = False,
                     collect_events: bool = False) -> SimResult:
    """Run every planned layer over one or more input maps.

    x_maps: one (h, w, c, *trials) array or a list of them for back-to-back
    maps.  Outputs are bit-exact against the reference inference under the
    same truncate setting.
    """
    spec = plan.spec
    if isinstance(x_maps, np.ndarray):
        x_maps = [x_maps]
    h, w_, c = spec.input_shape
    for xm in x_maps:
        if xm.shape[:3] != (h, w_, c):
            raise SimConfigError(
                f"input map {xm.shape} does not match spec {(h, w_, c)}")
    ts = tuple(x_maps[0].shape[3:])
    events: list[tuple] | None = [] if collect_events else None

    feed = _input_layer([xm.astype(np.int64) for xm in x_maps],
                        plan.layers[0].rate.r_in)
    sims: list[LayerSim] = []
    for entry in plan.layers:
        name = spec.layer_name(entry.index)
        ly = entry.layer
        if ly.kind == LayerKind.RESIDUAL_ADD:
            raise SimConfigError(
                "residual merges are analysis-only; the simulator runs "
                "straight-line networks")
        entry_w = weights.get(name, {})
        w = entry_w.get("w")
        bias = entry_w.get("b")
        if ly.has_weights and w is None:
            raise SimConfigError(f"{name}: no weights provided")
        if w is not None:
            w = np.asarray(w, dtype=np.int64)
        if bias is not None:
            bias = np.asarray(bias, dtype=np.int64)
        if isinstance(entry.unit, FcuAllocation):
            sim = _run_fcu_layer(entry, name, feed, w, bias, ts, events)
        else:
            sim = _run_conv_like(entry, name, feed, w, bias, ts, events)
        if truncate:
            bits = spec.quant.activation_bits
            sim.values = [wrap_to_width(v, bits) for v in sim.values]
        sims.append(sim)
        feed = sim

    last = sims[-1]
    f_out = spec.layers[-1].f_out
    outputs = [v.reshape((f_out, f_out, spec.layers[-1].d_out) + ts)
               for v in last.values]
    n_maps = len(x_maps)
    utilization: list[Fraction | None] = []
    for sim in sims:
        if n_maps >= 2:
            m = n_maps - 2
            span = sim.first_cycle[m + 1] - sim.first_cycle[m]
            utilization.append(Fraction(sim.busy[m], span) if span else None)
        else:
            utilization.append(None)
    stats = SimStats(
        cycles=int(max(int(a.max()) for a in last.arrivals)) + 1,
        first_output_latency=int(last.arrivals[0].min()),
        utilization=utilization,
        fifo_peaks=[sim.fifo_peak for sim in sims],
        stall_warnings=list(plan.warnings),
    )
    return SimResult(outputs, stats, sims, events)

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
function of the slot sequence, and each layer runs in two parts.  The
schedule is one exact integer array per layer: the start cycle of every
group (a stream position of `glen` slots, or an FCU batch of `h` slots).
Output stamps, first cycles, busy counts, FIFO occupancy and signal events
all follow from it in closed form.  The datapath only steps the units over
the slot sequence and stores their values.  Values may carry trailing trial
dimensions; the whole simulation is then batched across trials with
identical control flow.
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
from ..rate import map_stream, valid_output_positions
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


def _expand_ts(w, base_ndim: int, ts: tuple):
    """Let shared weights broadcast over the trial dims of the values."""
    if ts and w.ndim == base_ndim:
        return w.reshape(w.shape + (1,) * len(ts))
    return w


def _fifo_stats(arrivals: np.ndarray, departures: np.ndarray
                ) -> tuple[int, int]:
    """Peak and final occupancy of a FIFO given every entry's arrival and
    departure cycle; a departure frees its entry before an arrival in the
    same cycle, so the depth peaks right after some arrival."""
    arr = np.sort(arrivals, axis=None)
    gone = np.searchsorted(np.sort(departures, axis=None), arr, side="right")
    peak = int((np.arange(1, arr.size + 1) - gone).max())
    return peak, arr.size - departures.size


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


def _paced(readies: np.ndarray, pace: Fraction) -> np.ndarray:
    """Earliest start of each stream position under a virtual stream clock.

    Implicit-padding zero slots occupy stream time like any other position,
    so the clock advances `pace` cycles per position and waits for each
    position's data: clock_n = n*pace + max(pace - 1, max_{j<=n}(ready_j -
    j*pace)), and position n may start one cycle after it.  This models
    holding slow inputs stable instead of buffering ahead of the stream.  A
    padding zero (ready -1) never holds the clock back, as -1 - j*pace <=
    pace - 1.  The clock is exact in units of 1/denominator of the pace.
    """
    num, den = pace.numerator, pace.denominator
    lead = np.arange(len(readies), dtype=np.int64) * num
    clock = lead + np.maximum(num - den,
                              np.maximum.accumulate(readies * den - lead))
    return clock // den + 1


def _chain(ready_at: np.ndarray, glen: int) -> np.ndarray:
    """Start cycles of back-to-back groups of glen cycles: group n starts at
    ready_at[n] or when group n-1 ends, whichever is later."""
    lead = np.arange(len(ready_at), dtype=np.int64) * glen
    return lead + np.maximum.accumulate(ready_at - lead)


def _run_conv_like(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, bias, ts: tuple) -> LayerSim:
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
    slot_ch = np.arange(streams) * q + np.arange(glen)[:, None] // interleave
    slot_ch[slot_ch >= d_in] = -1
    # the last slot that reads each input channel, and the slot that emits
    # each output channel (the interleave tail for a standard conv, the
    # consuming slot otherwise)
    last_use = (np.arange(d_in) % q + 1) * interleave - 1
    emit_slot = glen - interleave + np.arange(d_out) % interleave \
        if standard else np.arange(d_out) % q

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

    # Schedule: one start cycle per stream position.  Pixel n of map m
    # streams in at position prefix + m*period + n; the window anchored at
    # n completes at position lat_pos + m*period + n.
    prefix, period, anchors = map_stream(f, p, n_maps)
    lat_pos = (k - 1) * (f + 1)
    pixel_at = [None] * prefix + anchors
    map_base = np.arange(n_maps)[:, None] * period
    pix_pos = prefix + map_base + np.arange(f * f)
    win_pos = lat_pos + map_base + valid_output_positions(f, k, s, p)
    n_out = win_pos.shape[1]
    out_at = [None] * len(pixel_at)
    for m, row in enumerate(win_pos.tolist()):
        for opix, pos in enumerate(row):
            out_at[pos] = (m, opix)

    arrivals = np.stack(feed.arrivals)           # (n_maps, f*f, d_in)
    readies = np.full(len(pixel_at), -1, dtype=np.int64)
    readies[pix_pos] = arrivals.max(axis=2)
    start = _chain(_paced(readies, Fraction(d_in) / entry.rate.r_in), glen)
    out_arr = start[win_pos][:, :, None] + emit_slot
    peak, leftover = _fifo_stats(arrivals,
                                 start[pix_pos][:, :, None] + last_use)
    # the trailing flush zeros belong to the last map
    busy = [period * glen] * (n_maps - 1) + [(period + prefix) * glen]
    first_cycle = [int(c) for c in start[map_base[:, 0]]]

    # Datapath: step the units over the slot sequence.
    out_vals = np.zeros((n_maps, n_out, d_out) + ts, dtype=np.int64)
    zero_x = np.zeros(x_shape, dtype=np.int64)
    gathered = [fv.transpose((1, 0) + tuple(range(2, fv.ndim)))
                for fv in feed.values]     # (d_in, n_pixels, *TS)
    # idle filler slots (ch == -1) carry weight zero or live in their own
    # interleave slice, so any value is inert
    slot_gather = np.maximum(slot_ch, 0)
    slot_keep = [(chs >= 0, chs[chs >= 0]) for chs in slot_ch]

    for pixel, window in zip(pixel_at, out_at):
        if pixel is None:
            pix_vals, col = None, None
        else:
            pix_vals, col = gathered[pixel[0]][:, pixel[1]], pixel[1] % f
        if standard and window is not None:
            acc = np.zeros((blocks, interleave) + ts, dtype=np.int64)
        for t in range(glen):
            x = zero_x if pix_vals is None else \
                pix_vals[slot_gather[t]].reshape(x_shape)
            if is_pool:
                y = unit.step(x)
            else:
                y = unit.step(x, col)[(k - 1, k - 1)]
            if window is None:
                continue
            if standard:
                acc[:, t % interleave] += y.sum(axis=0)
            else:
                keep, ocs = slot_keep[t]
                out_vals[window][ocs] = y[keep]
        if standard and window is not None:
            # output oc = b*interleave + rho sits at acc[b, rho]
            out_vals[window] = acc.reshape((-1,) + ts)[:d_out]

    if ly.post_divisor > 1:
        out_vals //= ly.post_divisor
    if bias is not None and not is_pool:
        out_vals += _expand_ts(bias, 1, ts)
    if standard:
        order = [b * interleave + rho
                 for rho in range(interleave) for b in range(blocks)]
        order = [oc for oc in order if oc < d_out]
    else:
        order = [int(ch) for ch in slot_ch.ravel() if ch >= 0]
    return LayerSim(list(out_vals), list(out_arr), order, n_out, busy,
                    first_cycle, fifo_peak=peak, fifo_final=leftover)


def _run_fcu_layer(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, bias, ts: tuple) -> LayerSim:
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
    batches = np.array(feat_order).reshape(n_batches, j)

    # One weight configuration per (batch, neuron slot).
    w = _expand_ts(w, 2, ts)
    bank = np.zeros((configs, j, n_fcu) + w.shape[2:], dtype=np.int64)
    for b, feats in enumerate(batches):
        for sl in range(h):
            for u in range(n_fcu):
                bank[b * h + sl, :, u] = w[u * h + sl, feats]
    unit = FcuUnit(j, h, configs, bank, entry.acc_width)
    slot_ocs = [np.array([u * h + sl for u in range(n_fcu)]) for sl in range(h)]

    # Schedule: one group of h cycles per (map, pixel, batch), ready one
    # cycle after its last feature arrives; neuron oc leaves in slot oc % h
    # of the pixel's last batch.
    arrivals = np.stack(feed.arrivals).reshape(n_maps, n_pixels, flat_width)
    batch_ready = arrivals[:, :, batches].max(axis=3)
    start = _chain(batch_ready.ravel() + 1, h).reshape(batch_ready.shape)
    out_arr = start[:, :, -1, None] + np.arange(ly.d_out) % h
    peak, leftover = _fifo_stats(arrivals, np.repeat(start, j))
    busy = [n_pixels * n_batches * h] * n_maps
    first_cycle = [int(c) for c in start[:, 0, 0]]

    # Datapath: step the unit through every batch.
    out_vals = np.zeros((n_maps, n_pixels, ly.d_out) + ts, dtype=np.int64)
    for m in range(n_maps):
        map_vals = feed.values[m].reshape((n_pixels, flat_width) + ts)
        for pix in range(n_pixels):
            for b, feats in enumerate(batches):
                xb = map_vals[pix][feats].reshape((j, 1) + ts)
                for sl in range(h):
                    _, y = unit.step(xb, first_round=(b == 0))
                    if b == n_batches - 1:
                        out_vals[m, pix, slot_ocs[sl]] = y

    if bias is not None:
        out_vals += _expand_ts(bias, 1, ts)
    order = [u * h + sl for sl in range(h) for u in range(n_fcu)]
    return LayerSim(list(out_vals), list(out_arr), order, n_pixels, busy,
                    first_cycle, fifo_peak=peak, fifo_final=leftover)


def _signal_events(name: str, sim: LayerSim) -> list[tuple]:
    """(cycle, signal, value, valid) for every output of a layer (the value
    of the first trial), in emission order: by cycle, then channel."""
    n_out, d_out = sim.arrivals[0].shape
    cycles = np.concatenate([a.ravel() for a in sim.arrivals])
    values = np.concatenate([v.reshape(n_out * d_out, -1)[:, 0]
                             for v in sim.values])
    pixels, chans = np.divmod(np.arange(cycles.size) % (n_out * d_out), d_out)
    return [(int(cycles[i]), f"{name}.y[{pixels[i]},{chans[i]}]",
             int(values[i]), True)
            for i in np.lexsort((chans, cycles))]


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
            sim = _run_fcu_layer(entry, name, feed, w, bias, ts)
        else:
            sim = _run_conv_like(entry, name, feed, w, bias, ts)
        if events is not None:
            events += _signal_events(name, sim)
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

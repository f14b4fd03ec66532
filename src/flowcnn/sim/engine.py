"""Execute an architecture plan cycle-accurately over input feature maps.

Each layer streams its input as a sequence of *positions*: one sliding-window
step of the input stream (a map pixel or an implicit-padding zero row
element), spanning `glen` cycles, one per interleaved channel slot.  A
position starts no earlier than one cycle after its last input feature
reaches the layer (inter-layer FIFOs decouple producers from consumers) and
no earlier than the previous position's end.  Padding positions take stream
time too, so a layer behind a padded one idles while that layer streams its
padding and measures utilization below 1.

Units only advance on enabled cycles (clock gating), so unit state is a pure
function of the slot sequence, and each layer is computed in two parts.  The
schedule is one exact integer array per layer: the start cycle of every
group (a stream position of `glen` slots, or an FCU batch of `h` slots).
Output stamps, first cycles, busy counts, FIFO occupancy and signal events
all follow from it in closed form.  The values follow from the delay-line
formula in array form: a KPU or PPU window is a fixed sum or max of taps
that streamed in a fixed number of positions earlier, and an FCU neuron is
a running sum over its batches.  Every KPU and PPU layer -- standard conv,
depthwise conv (lowered average pooling included) and max pooling -- runs
through one window function (`_window_values`): per input channel a tap
matrix, reduced by a kernel matrix (every output channel), by the
channel's own kernel or by a max.  It runs in float64 when the exact bound
max|x| * max sum|w| (max|x| for a max) is below 2**53 and in int64
otherwise.  The cycle-stepped units in `units` are the reference model this
formula is tested against.  Values may carry trailing trial dimensions; the
whole simulation is then batched across trials with identical control flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..alloc import ArchitecturePlan, FcuAllocation, LayerAllocation
from ..netspec import LayerKind
from ..oracle import wrap_to_width
from ..rate import map_stream, pad_gates, valid_output_positions
from .units import _check_width, _peak

CHUNK_ELEMENTS = 1 << 18   # bound on a tap or product chunk of a window
EXACT_FLOAT = 1 << 53      # float64 adds integers below this exactly


class SimConfigError(Exception):
    """Plan, weights and input do not describe a runnable simulation."""


@dataclass
class LayerSim:
    """Everything a layer hands to its consumer."""

    values: np.ndarray            # (n_maps, n_pixels, d_out, *TS)
    arrivals: np.ndarray          # (n_maps, n_pixels, d_out) cycle stamps
    chan_order: list[int]         # channel emission order within one pixel
    busy: list[int]               # enabled cycles attributed to each map
    first_cycle: list[int]        # schedule start of each map
    fifo_peak: int = 0            # peak occupancy of the input-side FIFO


@dataclass
class SimStats:
    cycles: int
    first_output_latency: int
    utilization: list[Fraction | None]
    fifo_peaks: list[int]


@dataclass
class SimResult:
    outputs: np.ndarray           # (n_maps, f_out, f_out, d_out, *TS)
    stats: SimStats
    layers: list[LayerSim]
    events: list[tuple] | None = None   # (cycle, signal, value, valid)


def _fifo_stats(arrivals: np.ndarray, departures: np.ndarray) -> int:
    """Peak occupancy of a FIFO given every entry's arrival and departure
    cycle; a departure frees its entry before an arrival in the same cycle,
    so the depth peaks right after some arrival."""
    arr = np.sort(arrivals, axis=None)
    gone = np.searchsorted(np.sort(departures, axis=None), arr, side="right")
    return int((np.arange(1, arr.size + 1) - gone).max())


def _input_layer(x: np.ndarray, rate: Fraction) -> LayerSim:
    """Present the network input, (n_maps, h, w, d, *TS), as a producing
    pseudo-layer whose features arrive one by one at the input rate."""
    n_maps, h, w, d = x.shape[:4]
    idx = np.arange(n_maps * h * w * d, dtype=np.int64)
    arrivals = (idx * rate.denominator) // rate.numerator
    return LayerSim(x.reshape((n_maps, h * w, d) + x.shape[4:]),
                    arrivals.reshape(n_maps, h * w, d), list(range(d)),
                    busy=[0] * n_maps, first_cycle=[0] * n_maps)


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


def _product_dtype(values: np.ndarray, w):
    """The dtype a layer's tap matrices and their reductions run in.

    max|values| * max over (oc, ch) of sum |w[oc, ch]| bounds every partial
    sum of every window, in any order of addition; a max of taps (w None)
    is bounded by max|values|.  Below 2**53 float64 (BLAS) holds those
    integers exactly; otherwise int64 wraps them mod 2**64 as the delay line
    does.  The bound is computed in Python ints.
    """
    if w is None:
        w_sum = 1
    elif _peak(w) * w.shape[2] * w.shape[3] < 1 << 63:   # |w| sums fit int64
        w_sum = int(np.abs(w).sum(axis=(2, 3)).max())
    else:
        w_sum = int(np.abs(w.astype(object)).sum(axis=(2, 3)).max())
    return np.float64 if _peak(values) * w_sum < EXACT_FLOAT else np.int64


def _window_values(values: np.ndarray, w, gate: np.ndarray, f: int,
                   x_pos: np.ndarray, win_pos: np.ndarray,
                   bits: int | None) -> np.ndarray:
    """A KPU or PPU layer's window results at the valid output positions:
    (n_maps, n_out, d_out, *TS).

    Tap (i, m) of the window completing at stream position t reads the
    input x[t + i*f + m], times its column-m gate (pad_gates): the input D =
    (k-1-i)*f + (k-1-m) positions earlier, on a stream led by (k-1)*(f+1)
    zeros (the registers start at zero) with the pixels at x_pos and zeros
    at padding positions.  Per input channel the taps form a (k*k,
    positions, *TS) matrix, built in chunks of positions so that memory
    stays bounded.  w is a grouped kernel (d_out, d_in / groups, k, k),
    plus the values' trial axes when stacked.  A standard conv (one
    group) multiplies the taps by the (d_out, k*k) kernel matrix into every
    output channel; a depthwise conv ((d, 1, k, k): a group per channel) by
    channel ch's own (1, k*k) kernel into output channel ch; a PPU (w None)
    takes their max into output channel ch.  Row oc of a channel's result
    is the window array of pair (ch, oc), invalid windows included; its
    peak passes the width check in (ch, oc) order.
    """
    d_in = values.shape[2]
    ts = values.shape[3:]
    n_trials = math.prod(ts)
    k = gate.shape[1]
    kk = k * k
    group_in, d_out = (1, d_in) if w is None else (w.shape[1], w.shape[0])
    group_out = d_out * group_in // d_in      # output channels per group
    where = "PPU window max" if w is None else "KPU window sum"
    sets = n_trials if w is not None and w.ndim > 4 else 1
    dtype = _product_dtype(values, w)
    if w is not None:
        # kernels[j, set]: the (d_out, k*k) kernel matrix of input j of
        # every group, one per set of n_trials // sets trials
        kernels = w.reshape(d_out, group_in, kk, sets) \
            .transpose(1, 3, 0, 2).astype(dtype)
    length = len(gate)
    n_pos = length - (k - 1) * (f + 1)
    # gated[m, t]: the column-m gate of the input at t + m; None unpadded
    gated = None if gate.all() else np.stack(
        [gate[m:length - k + 1 + m, m] for m in range(k)]) \
        .astype(dtype)[:, :, None]
    x = np.zeros((length, n_trials), dtype=dtype)
    rows = sliding_window_view(x, k, axis=0)      # rows[t, :, m] = x[t + m]
    wins = win_pos.ravel()
    acc = np.zeros((wins.size, d_out, sets, n_trials // sets), dtype=np.int64)
    step = max(1, CHUNK_ELEMENTS // (n_trials * max(kk, group_out)))
    # chunk [a, b) of positions holds the valid windows wins[j0:j1]
    edges = np.append(np.arange(0, n_pos, step), n_pos)
    cuts = np.searchsorted(wins, edges)
    chunks = list(zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]))
    for ch in range(d_in):
        g = ch // group_in
        outs = slice(g * group_out, (g + 1) * group_out)
        x[x_pos.ravel()] = values[:, :, ch].reshape(-1, n_trials)
        lows, highs = [], []
        for a, b, j0, j1 in chunks:
            c = b - a
            taps = np.empty((k, k, c, n_trials), dtype=dtype)
            for i in range(k):
                t = slice(a + i * f, a + i * f + c)
                if gated is None:
                    taps[i] = rows[t].transpose(2, 0, 1)
                else:
                    np.multiply(rows[t].transpose(2, 0, 1), gated[:, t],
                                out=taps[i])
            if w is None:
                prod = taps.reshape(kk, 1, -1).max(axis=0)[None]
            else:
                prod = kernels[ch % group_in, :, outs] @ taps \
                    .reshape(kk, c, sets, -1).transpose(2, 0, 1, 3) \
                    .reshape(sets, kk, -1)
            lows.append(prod.min(axis=(0, 2)))
            highs.append(prod.max(axis=(0, 2)))
            sel = prod.reshape(sets, group_out, c, -1)[:, :, wins[j0:j1] - a]
            acc[j0:j1, outs] += \
                sel.astype(np.int64, copy=False).transpose(2, 1, 0, 3)
        extremes = np.stack((np.min(lows, axis=0), np.max(highs, axis=0)))
        for oc in range(group_out):
            _check_width(extremes[:, oc], bits, where)
    return acc.reshape(win_pos.shape + (d_out,) + ts)


def _run_conv_like(entry: LayerAllocation, feed: LayerSim, w) -> LayerSim:
    ly = entry.layer
    f, k, s, p, d_in, d_out = ly.f, ly.k, ly.s, ly.p, ly.d_in, ly.d_out
    n_maps = len(feed.arrivals)

    # the plan's C slots per position: q input channels per stream, each
    # meeting `interleave` output channels in turn
    glen, interleave = entry.configs, entry.interleave
    q = glen // interleave
    # the last slot that reads each input channel; output channel c leaves
    # in slot c % m of the group's last m slots (the interleave tail of a
    # standard conv, m = I, or the slot that read channel c, m = q), so the
    # channels leave a pixel ordered by slot, then by channel
    last_use = (np.arange(d_in) % q + 1) * interleave - 1
    m = interleave if ly.kind == LayerKind.CONV else q
    emit_slot = glen - m + np.arange(d_out) % m
    order = sorted(range(d_out), key=lambda c: (c % m, c))

    # Schedule: one start cycle per stream position.  Pixel n of map i
    # streams in at position prefix + i*period + n; the window anchored at
    # n completes at position lat_pos + i*period + n.
    prefix, period = map_stream(f, p)
    n_pos = prefix + n_maps * period
    lat_pos = (k - 1) * (f + 1)
    map_base = np.arange(n_maps)[:, None] * period
    pix_pos = prefix + map_base + np.arange(f * f)
    win_pos = lat_pos + map_base + valid_output_positions(f, k, s, p)

    readies = np.full(n_pos, -1, dtype=np.int64)
    readies[pix_pos] = feed.arrivals.max(axis=2)
    start = _chain(_paced(readies, Fraction(d_in) / entry.rate.r_in), glen)
    out_arr = start[win_pos][:, :, None] + emit_slot
    peak = _fifo_stats(feed.arrivals, start[pix_pos][:, :, None] + last_use)
    # the trailing flush zeros belong to the last map
    busy = [period * glen] * (n_maps - 1) + [(period + prefix) * glen]
    first_cycle = [int(c) for c in start[map_base[:, 0]]]

    # Datapath: every (input channel, output channel) pair is one delay line
    # over the position stream; a unit's C configurations and its streams
    # are independent lanes, so the slot a pair occupies does not matter.
    gate = np.ones((lat_pos + n_pos, k), dtype=np.int64)
    gate[lat_pos + pix_pos] = np.tile(pad_gates(f, k, p), (f, 1))
    if ly.constant_weights:
        # a lowered average pool: a unit kernel, then floor division by k*k
        w = np.ones((d_in, k, k), dtype=np.int64)
    # a depthwise kernel is a grouped one with one input channel per group
    kernels = w[:, None] if ly.kind == LayerKind.DW_CONV else w
    out_vals = _window_values(feed.values, kernels, gate, f,
                              lat_pos + pix_pos, win_pos, entry.acc_width)
    if ly.constant_weights:
        out_vals //= k * k
    return LayerSim(out_vals, out_arr, order, busy, first_cycle,
                    fifo_peak=peak)


def _run_fcu_layer(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, ts: tuple) -> LayerSim:
    ly = entry.layer
    unit_alloc = entry.unit
    j, h, n_fcu = unit_alloc.j, unit_alloc.h, unit_alloc.n_fcu
    n_maps, feed_pixels = feed.arrivals.shape[:2]
    if n_fcu * h != ly.d_out:
        raise SimConfigError(
            f"{name}: {n_fcu} FCUs of h={h} neurons emit {n_fcu * h} of "
            f"{ly.d_out} channels; shared pointwise FCUs are priced but "
            f"not simulated")
    # a pointwise layer runs per pixel; a fully connected layer is one pixel
    # of all the feed's features
    n_pixels = feed_pixels if ly.kind == LayerKind.PW_CONV else 1
    flat_width = feed_pixels // n_pixels * ly.d_in
    n_batches = unit_alloc.c // h

    # Structural feature order: the producer's emission order per pixel.
    feat_order = [pn * ly.d_in + ch
                  for pn in range(feed_pixels // n_pixels)
                  for ch in feed.chan_order]
    batches = np.array(feat_order).reshape(n_batches, j)

    # Schedule: one group of h cycles per (map, pixel, batch), ready one
    # cycle after its last feature arrives; neuron oc leaves in slot oc % h
    # of the pixel's last batch.
    arrivals = feed.arrivals.reshape(n_maps, n_pixels, flat_width)
    batch_ready = arrivals[:, :, batches].max(axis=3)
    start = _chain(batch_ready.ravel() + 1, h).reshape(batch_ready.shape)
    out_arr = start[:, :, -1, None] + np.arange(ly.d_out) % h
    peak = _fifo_stats(arrivals, np.repeat(start, j))
    busy = [n_pixels * n_batches * h] * n_maps
    first_cycle = [int(c) for c in start[:, 0, 0]]

    # Datapath: each batch adds its j products to every neuron's running
    # sum, which the unit's width check sees after every batch.
    x = feed.values.reshape((n_maps, n_pixels, flat_width) + ts)
    out_vals = np.zeros((n_maps, n_pixels, ly.d_out) + ts, dtype=np.int64)
    for feats in batches:
        out_vals += np.einsum("mpj...,oj...->mpo...", x[:, :, feats],
                              w[:, feats])
        _check_width(out_vals, entry.acc_width, "FCU accumulation")

    order = [u * h + sl for sl in range(h) for u in range(n_fcu)]
    return LayerSim(out_vals, out_arr, order, busy, first_cycle,
                    fifo_peak=peak)


def _signal_events(name: str, sim: LayerSim) -> list[tuple]:
    """(cycle, signal, value, valid) for every output of a layer (the value
    of the first trial), in emission order: by cycle, then channel."""
    n_out, d_out = sim.arrivals.shape[1:]
    cycles = sim.arrivals.ravel()
    values = sim.values.reshape(cycles.size, -1)[:, 0]
    pixels, chans = np.divmod(np.arange(cycles.size) % (n_out * d_out), d_out)
    return [(int(cycles[i]), f"{name}.y[{pixels[i]},{chans[i]}]",
             int(values[i]), True)
            for i in np.lexsort((chans, cycles))]


def simulate_network(plan: ArchitecturePlan, weights: dict,
                     x_maps: np.ndarray | list[np.ndarray],
                     truncate: bool = False,
                     collect_events: bool = False) -> SimResult:
    """Run every planned layer over one or more input maps.

    x_maps: one (h, w, c, *trials) array or a list of them, with the same
    trial axes, for back-to-back maps.  weights maps each layer with weights
    to its "w" (LayerSpec.weight_shape) and "b" ((d_out,)), each shared or
    stacked over the trial axes; the bias is added to the layer's
    results before any truncation.  Outputs are bit-exact against the
    reference inference under the same truncate setting.
    """
    spec = plan.spec
    if isinstance(x_maps, np.ndarray):
        x_maps = [x_maps]
    if not x_maps:
        raise SimConfigError("no input maps")
    h, w_, c = spec.input_shape
    ts = tuple(x_maps[0].shape[3:])
    for xm in x_maps:
        if xm.shape[:3] != (h, w_, c):
            raise SimConfigError(
                f"input map {xm.shape} does not match spec {(h, w_, c)}")
        if xm.shape[3:] != ts:
            raise SimConfigError(
                f"input map {xm.shape} has trial axes {xm.shape[3:]}, "
                f"the first map {ts}")
    events: list[tuple] | None = [] if collect_events else None

    feed = _input_layer(np.stack(x_maps).astype(np.int64, copy=False),
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
        if feed.arrivals.shape[1] != ly.f * ly.f:
            raise SimConfigError(f"{name}: feed has {feed.arrivals.shape[1]} "
                                 f"pixels, expected {ly.f * ly.f}")
        if ly.has_weights and w is None:
            raise SimConfigError(f"{name}: no weights provided")
        w, bias = (None if v is None else np.asarray(v, dtype=np.int64)
                   for v in (w, bias))
        for what, value, shape in (
                ("weights", w, ly.weight_shape),
                ("bias", bias, (ly.d_out,) if ly.has_weights else None)):
            if value is None:
                continue
            if shape is None:
                raise SimConfigError(f"{name}: the layer takes no {what}")
            if value.shape not in (shape, shape + ts):
                raise SimConfigError(
                    f"{name}: {what} of shape {value.shape}, expected "
                    f"{shape}" + (f" or {shape + ts}" if ts else ""))
        if isinstance(entry.unit, FcuAllocation):
            sim = _run_fcu_layer(entry, name, feed, w, ts)
        else:
            sim = _run_conv_like(entry, feed, w)
        if bias is not None:
            # (d_out,) or (d_out, *TS) against (maps, pixels, d_out, *TS)
            sim.values += bias.reshape(
                bias.shape + (1,) * (1 + len(ts) - bias.ndim))
        if events is not None:
            events += _signal_events(name, sim)
        if truncate:
            sim.values = wrap_to_width(sim.values, spec.quant.activation_bits)
        sims.append(sim)
        feed = sim

    last = sims[-1]
    n_maps = len(x_maps)
    f_out = spec.layers[-1].f_out
    outputs = last.values.reshape(
        (n_maps, f_out, f_out, spec.layers[-1].d_out) + ts)
    utilization: list[Fraction | None] = []
    for sim in sims:
        if n_maps >= 2:
            m = n_maps - 2
            span = sim.first_cycle[m + 1] - sim.first_cycle[m]
            utilization.append(Fraction(sim.busy[m], span) if span else None)
        else:
            utilization.append(None)
    stats = SimStats(
        cycles=int(last.arrivals.max()) + 1,
        first_output_latency=int(last.arrivals[0].min()),
        utilization=utilization,
        fifo_peaks=[sim.fifo_peak for sim in sims],
    )
    return SimResult(outputs, stats, sims, events)

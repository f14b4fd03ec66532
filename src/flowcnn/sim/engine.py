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
that streamed in a fixed number of positions earlier (`_windows`), and an
FCU neuron is a running sum over its batches.  A standard conv's windows
are, per input channel, a tap matrix times a kernel matrix
(`_kernel_products`), in float64 when the exact bound max|x| * max sum|w|
is below 2**53 and in int64 otherwise.  The cycle-stepped units in
`units` are the reference model this formula is tested against.  Values may
carry trailing trial dimensions; the whole simulation is then batched across
trials with identical control flow.
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

CHUNK_ELEMENTS = 1 << 18   # bound on a tap or product chunk of a standard conv
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


def _expand_ts(w, base_ndim: int, ts: tuple):
    """Let a shared bias broadcast over the trial dims of the values."""
    if ts and w.ndim == base_ndim:
        return w.reshape(w.shape + (1,) * len(ts))
    return w


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


def _windows(x: np.ndarray, gate: np.ndarray, f: int, kernel) -> np.ndarray:
    """Window results of a k x k transposed-form delay line fed one value
    per stream position.

    x: (lat + n_pos, *TS) inputs, led by lat = (k-1)*(f+1) zeros because the
    registers start at zero, and 0 at padding positions; gate: (lat + n_pos,
    k) 0/1 column gates of the pixel at each position (pad_gates).  Tap (i,
    m) of the window completing at position t reads the input D = (k-1-i)*f
    + (k-1-m) positions earlier, x[lat + t - D] = x[t + i*f + m], with
    column gate m.  A kernel (k, k, ...) sums kernel[i, m] * tap; None takes
    the max of the taps (a PPU).  The window array has n_pos entries.
    """
    k = gate.shape[1]
    n = len(x) - (k - 1) * (f + 1)
    win = None
    for m, g in enumerate(gate.T):
        col = x if g.all() else x * g.reshape(g.shape + (1,) * (x.ndim - 1))
        for i in range(k):
            tap = col[i * f + m:i * f + m + n]
            if kernel is None:
                win = tap if win is None else np.maximum(win, tap)
            elif win is None:
                win = kernel[i, m] * tap
            else:
                win += kernel[i, m] * tap
    return win


def _product_dtype(values: np.ndarray, w: np.ndarray):
    """The dtype a standard conv's tap x kernel products run in.

    max|values| * max over (oc, ch) of sum |w[oc, ch]| bounds every partial
    sum of every window, in any order of addition.  Below 2**53 float64
    (BLAS) adds those integers exactly; otherwise int64 wraps them mod 2**64
    as the delay line does.  The bound is computed in Python ints.
    """
    kk = w.shape[2] * w.shape[3]
    if _peak(w) * kk < 1 << 63:              # |w| and its sums fit int64
        w_sum = int(np.abs(w).sum(axis=(2, 3)).max())
    else:
        w_sum = int(np.abs(w.astype(object)).sum(axis=(2, 3)).max())
    return np.float64 if _peak(values) * w_sum < EXACT_FLOAT else np.int64


def _kernel_products(values: np.ndarray, w: np.ndarray, gate: np.ndarray,
                     f: int, x_pos: np.ndarray, win_pos: np.ndarray,
                     bits: int | None) -> np.ndarray:
    """A standard conv's window sums at the valid output positions, summed
    over input channels: (n_maps, n_out, d_out, *TS).

    The window of pair (ch, oc) completing at stream position t sums
    w[oc, ch, i, m] times tap (i, m), the gated input x[t + i*f + m] that
    `_windows` reads.  Per input channel that is one product of the
    (positions, *TS, k*k) tap matrix with the (k*k, d_out) kernel matrix
    (one per trial for stacked weights), built in chunks of positions so
    that memory stays bounded.  Column oc of the product is the window
    array of pair (ch, oc), invalid windows included; its peak passes the
    width check in (ch, oc) order.
    """
    d_out, d_in, k = w.shape[:3]
    kk = k * k
    ts = values.shape[3:]
    n_trials = math.prod(ts)
    sets = n_trials if w.ndim > 4 else 1      # kernel matrices per channel
    if w.ndim > 4:
        w = np.broadcast_to(w, w.shape[:4] + ts)
    dtype = _product_dtype(values, w)
    length = len(gate)
    n_pos = length - (k - 1) * (f + 1)
    # gated[m, t]: the column-m gate of the input at t + m
    gated = np.stack([gate[m:length - k + 1 + m, m] for m in range(k)]) \
        .astype(dtype)[:, :, None]
    x = np.zeros((length, n_trials), dtype=dtype)
    rows = sliding_window_view(x, k, axis=0)      # rows[t, :, m] = x[t + m]
    wins = win_pos.ravel()
    # one (d_out, k*k) kernel matrix per set of n_trials // sets trials
    acc = np.zeros((wins.size, d_out, sets, n_trials // sets), dtype=np.int64)
    step = max(1, CHUNK_ELEMENTS // (n_trials * max(kk, d_out)))
    for ch in range(d_in):
        x[x_pos.ravel()] = values[:, :, ch].reshape(-1, n_trials)
        kernels = w[:, ch].reshape(d_out, kk, sets).transpose(2, 0, 1) \
            .astype(dtype)
        lows, highs = [], []
        for a in range(0, n_pos, step):
            c = min(step, n_pos - a)
            taps = np.empty((k, k, c, n_trials), dtype=dtype)
            for i in range(k):
                t = slice(a + i * f, a + i * f + c)
                np.multiply(rows[t].transpose(2, 0, 1), gated[:, t],
                            out=taps[i])
            prod = kernels @ taps.reshape(kk, c, sets, -1) \
                .transpose(2, 0, 1, 3).reshape(sets, kk, -1)
            lows.append(prod.min(axis=(0, 2)))
            highs.append(prod.max(axis=(0, 2)))
            j0, j1 = np.searchsorted(wins, (a, a + c))
            sel = prod.reshape(sets, d_out, c, -1)[:, :, wins[j0:j1] - a]
            acc[j0:j1] += sel.astype(np.int64, copy=False).transpose(2, 1, 0, 3)
        extremes = np.stack((np.min(lows, axis=0), np.max(highs, axis=0)))
        for oc in range(d_out):
            _check_width(extremes[:, oc], bits, "KPU window sum")
    return acc.reshape(win_pos.shape + (d_out,) + ts)


def _run_conv_like(entry: LayerAllocation, feed: LayerSim, w, bias,
                   ts: tuple) -> LayerSim:
    ly = entry.layer
    f, k, s, p, d_in, d_out = ly.f, ly.k, ly.s, ly.p, ly.d_in, ly.d_out
    unit_alloc = entry.unit
    is_pool = ly.kind == LayerKind.MAXPOOL
    standard = ly.kind == LayerKind.CONV
    n_maps = len(feed.arrivals)

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

    # Schedule: one start cycle per stream position.  Pixel n of map m
    # streams in at position prefix + m*period + n; the window anchored at
    # n completes at position lat_pos + m*period + n.
    prefix, period = map_stream(f, p)
    n_pos = prefix + n_maps * period
    lat_pos = (k - 1) * (f + 1)
    map_base = np.arange(n_maps)[:, None] * period
    pix_pos = prefix + map_base + np.arange(f * f)
    win_pos = lat_pos + map_base + valid_output_positions(f, k, s, p)
    n_out = win_pos.shape[1]

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
    if standard:
        out_vals = _kernel_products(feed.values, w, gate, f, lat_pos + pix_pos,
                                    win_pos, entry.acc_width)
    else:
        where = "PPU window max" if is_pool else "KPU window sum"
        out_vals = np.zeros((n_maps, n_out, d_out) + ts, dtype=np.int64)
        x = np.zeros((lat_pos + n_pos,) + ts, dtype=np.int64)
        for ch in range(d_in):
            x[lat_pos + pix_pos] = feed.values[:, :, ch]
            win = _windows(x, gate, f, None if is_pool else w[ch])
            _check_width(win, entry.acc_width, where)
            out_vals[:, :, ch] = win[win_pos]

    if ly.post_divisor > 1:
        out_vals //= ly.post_divisor
    if bias is not None and not is_pool:
        out_vals += _expand_ts(bias, 1, ts)
    if standard:
        order = [b * interleave + rho for rho in range(interleave)
                 for b in range(unit_alloc.n_streams_out)]
        order = [oc for oc in order if oc < d_out]
    else:
        order = [int(ch) for ch in slot_ch.ravel() if ch >= 0]
    return LayerSim(out_vals, out_arr, order, busy, first_cycle,
                    fifo_peak=peak)


def _run_fcu_layer(entry: LayerAllocation, name: str, feed: LayerSim,
                   w, bias, ts: tuple) -> LayerSim:
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
    if flat_width % j:
        raise SimConfigError(f"{name}: {flat_width} features not divisible "
                             f"by j={j}")
    n_batches = flat_width // j

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

    if bias is not None:
        out_vals += _expand_ts(bias, 1, ts)
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
    trial axes, for back-to-back maps.  Outputs are bit-exact against the
    reference inference under the same truncate setting.
    """
    spec = plan.spec
    if isinstance(x_maps, np.ndarray):
        x_maps = [x_maps]
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
        if w is not None:
            w = np.asarray(w, dtype=np.int64)
        if bias is not None:
            bias = np.asarray(bias, dtype=np.int64)
        if isinstance(entry.unit, FcuAllocation):
            sim = _run_fcu_layer(entry, name, feed, w, bias, ts)
        else:
            sim = _run_conv_like(entry, feed, w, bias, ts)
        if events is not None:
            events += _signal_events(name, sim)
        if truncate:
            bits = spec.quant.activation_bits
            sim.values = wrap_to_width(sim.values, bits)
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

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
group (a stream position of `glen` slots, or an FCU batch of `h` slots).  A
pixel's features arrive in its producer's `chan_order` with nondecreasing
stamps, and no earlier than the previous pixel's last, so a position is
ready one cycle after its pixel's last channel arrives and an FCU batch one
cycle after its last feature.  Output stamps, first cycles, busy counts,
signal events and FIFO peaks (each FIFO's largest end-of-cycle occupancy,
counted on the cycle axis, or from sorted stamps past a span of COUNT_SPAN
cycles per entry) all follow from it in closed form.  The values follow
from the delay-line formula in array form: a KPU or PPU window is a fixed
sum or max of taps that streamed in a fixed number of positions earlier,
and an FCU neuron is a running sum over its batches.  Each layer's values
are computed once, at its valid outputs only, over all input channels at
once.  The padding rule is one border: each map of the feed, bordered with
p zeros on every side, holds tap (i, m) of the window at output (r, c) at
pixel (r*s + i, c*s + m), so every tap is one full strided slice of the
bordered map, and a tap outside the map reads a border zero as the stream
reads a padding position or a column that `pad_gates` masks.  A standard
conv copies the slices into a buffer and multiplies it by the (k*k*d_in,
d_out) kernel matrix, a depthwise conv (lowered average pooling included)
adds each slice times its kernel entry and a max pool takes their maximum;
an FCU layer is one product over all features per (map, pixel), as the
batch order cannot change the sum.  A matrix product runs in float64 (BLAS)
when the exact bound max|x| * max sum|w| over one output channel's taps is
below 2**53 and in int64 otherwise.  The width checks see every (input,
output) channel pair's window at every stream position and every FCU
running sum after every batch, but that scan runs only when the bound over
one pair (`_product_gates`) cannot prove that they fit; a standard conv's
sums over its input channels are checked at its valid outputs.  The
cycle-stepped units in `units` are the reference model this formula is
tested against.  Values may carry trailing trial dimensions; the whole
simulation is then batched across trials with identical control flow.

Each layer's record (`LayerSim`) is built once and holds the layer's own
output, bias added and never truncated: with truncation the next layer reads
a copy wrapped to the activation width, and `signal_events` reads the
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ..alloc import ArchitecturePlan, FcuAllocation, LayerAllocation
from ..netspec import LayerKind, NetworkSpec
from ..oracle import wrap_to_width
from ..rate import map_stream, pad_gates, valid_output_positions
from .units import _check_width, _extremes, _peak

CHUNK_ELEMENTS = 1 << 18   # bound on a tap or product chunk of a window
EXACT_FLOAT = 1 << 53      # float64 adds integers below this exactly
COUNT_SPAN = 16            # most cycles per FIFO entry counted, not sorted


class SimConfigError(Exception):
    """Plan, weights and input do not describe a runnable simulation."""


@dataclass(frozen=True)
class LayerSim:
    """One simulated layer: its own output, stamps and schedule counts."""

    values: np.ndarray            # (n_maps, n_pixels, d_out, *TS), biased
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
    layers: list[LayerSim]        # each layer's own output, not truncated


def _fifo_stats(arrivals: np.ndarray, departures: np.ndarray,
                per_departure: int = 1) -> int:
    """Peak occupancy of a FIFO whose entries arrive at the arrival stamps
    and leave per_departure at each departure stamp.  A departure frees its
    entry before an arrival in the same cycle, so the peak is the largest
    end-of-cycle occupancy: the arrivals' bincount less the departures', on
    the cycle axis from the first arrival lo to the last departure, summed
    in place.  That holds max(N + span, M + 2 span) int64s for N entries and
    M <= N departure stamps, at most 33 N while span <= COUNT_SPAN * N.  On
    MobileNetV1-0.25 every FIFO but the fc input's (124 cycles per entry)
    spans at most 8 cycles per entry and counts; wider spans (a slow input
    rate, stamps up to 2**63) sort the stamps instead, in 4 N int64s.
    """
    n, lo = arrivals.size, int(arrivals.min())
    span = int(departures.max()) - lo + 1
    if span > COUNT_SPAN * n:
        arr = np.sort(arrivals, axis=None, kind="stable")
        gone = np.searchsorted(np.sort(departures, axis=None, kind="stable"),
                               arr, side="right") * per_departure
        return int((np.arange(1, n + 1) - gone).max())
    depth = np.bincount(np.subtract(arrivals.ravel(), lo), minlength=span)
    gone = np.bincount(np.subtract(departures.ravel(), lo), minlength=span)
    depth -= np.multiply(gone, per_departure, out=gone)
    return int(np.cumsum(depth, out=depth).max())


def _check_stamps(top: int, what: str) -> None:
    """Cycle stamps are int64: refuse a schedule whose stamps, bounded in
    Python ints by top, would wrap."""
    if top >= 1 << 63:
        raise SimConfigError(f"the cycle stamps of {what} overflow int64")


def _input_layer(x: np.ndarray, rate: Fraction) -> LayerSim:
    """Present the network input, (n_maps, h, w, d, *TS), as a producing
    pseudo-layer whose features arrive one by one at the input rate."""
    n_maps, h, w, d = x.shape[:4]
    n = n_maps * h * w * d
    _check_stamps((n - 1) * rate.denominator,
                  f"{n} input features at input rate {rate}")
    idx = np.arange(n, dtype=np.int64)
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
    what = f"{len(readies)} stream positions at pace {pace}"
    last_lead = (len(readies) - 1) * num
    _check_stamps(max(int(readies.max()) * den, last_lead + den), what)
    lead = np.arange(len(readies), dtype=np.int64) * num
    late = np.maximum(num - den, np.maximum.accumulate(readies * den - lead))
    _check_stamps(last_lead + int(late[-1]) + 1, what)   # the last clock
    return (lead + late) // den + 1


def _chain(ready_at: np.ndarray, glen: int) -> np.ndarray:
    """Start cycles of back-to-back groups of glen cycles: group n starts at
    ready_at[n] or when group n-1 ends, whichever is later."""
    lead = np.arange(len(ready_at), dtype=np.int64) * glen
    late = np.maximum.accumulate(ready_at - lead)
    # the last group's start, plus the slots of that group
    _check_stamps((len(ready_at) - 1) * glen + int(late[-1]) + glen,
                  f"{len(ready_at)} groups of {glen} cycles")
    return lead + late


def _product_gates(values: np.ndarray, w, bits: int | None):
    """(dtype, scan) of a layer's values, from exact bounds in Python ints.

    w is a standard (d_out, d_in, k, k) or depthwise (d, 1, k, k) kernel,
    plus the values' trial axes when stacked, or None for a max of taps; an
    FCU passes its weights as (d_out, 1, flat, 1), one pair per neuron.
    max|values| times the largest sum |w| over the taps of one (oc, ch) pair
    bounds every partial sum of the pair in any order of addition, an FCU's
    running sums included; a max of taps lies between the least and the
    greatest of the values, or is a zero tap, which fits.  No width check
    can fire when that range fits a signed register of bits, so scan is
    False there and at bits None or 64 and more.  The bound summed over an
    output channel's input channels bounds the product over all channels:
    below 2**53 float64 (BLAS) holds its integers exactly; otherwise int64
    wraps them mod 2**64 as the delay line does.
    """
    lo, hi = _extremes(values)
    total = max(-lo, hi)
    if w is not None:
        big = _peak(w) * math.prod(w.shape[1:4]) >= 1 << 63
        sums = np.abs(w.astype(object) if big else w).sum(axis=(2, 3))
        pair = total * int(sums.max())
        lo, hi, total = -pair, pair, total * int(sums.sum(1).max())
    scan = bits is not None and bits < 64 and (
        lo < -(1 << (bits - 1)) or hi >= 1 << (bits - 1))
    return (np.float64 if total < EXACT_FLOAT else np.int64), scan


def _matmul(rows: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """rows (n, K, sets, u) times kern (sets, K, d_out) in kern's dtype: (n,
    d_out, sets * u).  One weight set multiplies every row's u trials at
    once; sets of one trial each are one matrix product per set."""
    rows = rows.astype(kern.dtype, copy=False)
    if rows.shape[3] > 1:
        return kern[0].T @ rows[:, :, 0]
    return (rows[:, :, :, 0].transpose(2, 0, 1) @ kern).transpose(1, 2, 0)


def _stream_windows(values: np.ndarray, w, f: int, k: int, p: int,
                    ch: int) -> np.ndarray:
    """Input channel ch's window through each of its (ch, oc) pairs at every
    stream position, invalid windows and map seams included: (n_pos, pairs,
    *TS).  A pair is channel ch alone through w[oc, ch] (a standard conv),
    through its own kernel (depthwise) or a max (w None, one pair).

    Tap (i, m) of the window completing at stream position t reads the input
    D = (k-1-i)*f + (k-1-m) positions earlier, times its column-m gate
    (pad_gates): one 1-D slice of the channel's stream, which is led by
    (k-1)*(f+1) zeros (the registers start at zero) and holds zeros at its
    padding positions.  int64 wraps mod 2**64 as the delay line does.
    """
    n_maps, ts = len(values), values.shape[3:]
    prefix, period = map_stream(f, p)
    lead = (k - 1) * (f + 1) + prefix
    n_pos = prefix + n_maps * period
    line = np.zeros((lead + n_maps * period,) + ts, dtype=np.int64)
    line[lead:].reshape((n_maps, period) + ts)[:, :f * f] = values[:, :, ch]
    gate = np.ones((len(line), k), dtype=np.int64)
    gate[lead:].reshape(n_maps, period, k)[:, :f * f] = \
        np.tile(pad_gates(f, k, p), (f, 1))
    if w is not None:
        pairs = w[:, ch] if w.shape[1] == values.shape[2] else w[ch]
        pairs = pairs.reshape(pairs.shape[:3]
                              + (w.shape[4:] or (1,) * len(ts)))
    res = None
    for t in range(k * k):
        i, m = divmod(t, k)
        o = i * f + m
        tap = line[o:o + n_pos, None] \
            * gate[o:o + n_pos, m].reshape((-1, 1) + (1,) * len(ts))
        if w is not None:
            tap = tap * pairs[:, i, m]
            res = tap if res is None else res + tap
        else:
            res = tap if res is None else np.maximum(res, tap)
    return res


def _window_values(values: np.ndarray, w, f: int, k: int, s: int, p: int,
                   bits: int | None) -> np.ndarray:
    """A KPU or PPU layer's window results at its valid outputs: (n_maps,
    n*n, d_out, *TS) for the n x n output grid, with w as in
    `_product_gates` (None for a max pool).

    Each map in turn is copied into one (f+2p, f+2p, d_in, trials) buffer
    with a zero border of width p (at p = 0 the map is read as it is), so
    tap (i, m) of the window at output (r, c) is bordered pixel (r*s + i,
    c*s + m), and over output rows r0..r1-1 every tap is one full strided
    slice of it.  A standard conv copies the k*k slices of a few output
    rows, at most CHUNK_ELEMENTS, into a buffer in the product's dtype and
    multiplies it by the (k*k*d_in, d_out) kernel matrix; a depthwise conv
    adds each slice times its kernel entry in int64, which wraps mod 2**64
    as the delay line does; a max pool takes their maximum, the border's
    zeros among them.

    When the bound of `_product_gates` cannot prove that every (input,
    output) channel pair fits bits, the pairs are width-checked first, in
    (ch, oc) order, at every stream position (`_stream_windows`).
    """
    n_maps, _, d_in = values.shape[:3]
    ts = values.shape[3:]
    dtype, scan = _product_gates(values, w, bits)
    for ch in range(d_in if scan else 0):
        res = _stream_windows(values, w, f, k, p, ch)
        for oc in range(res.shape[1]):
            _check_width(res[:, oc], bits, "PPU window max"
                         if w is None else "KPU window sum")
    n, kk, n_trials = (f - k + 2 * p) // s + 1, k * k, math.prod(ts)
    sets = n_trials if w is not None and w.ndim > 4 else 1
    d_out = d_in if w is None else w.shape[0]
    standard = w is not None and w.shape[1] == d_in
    step = n   # output rows per chunk: a whole map but in a standard conv
    if standard:   # the kernel as kern[set, tap*d_in + ch, oc]
        kern = w.reshape(d_out, d_in, kk, sets).transpose(3, 2, 1, 0) \
            .reshape(sets, kk * d_in, d_out).astype(dtype)
        step = max(1, CHUNK_ELEMENTS // (n_trials * n * max(kk * d_in, d_out)))
        buf = np.empty((min(step, n), n, kk, d_in, n_trials), dtype=dtype)
    elif w is not None:   # kern[ch, tap, set] against (..., d_in, trials)
        kern = w.reshape(d_in, kk, sets)
    x = values.reshape(n_maps, f, f, d_in, n_trials)
    if p:   # the one bordered map; only its interior is ever written
        src = np.zeros((f + 2 * p, f + 2 * p, d_in, n_trials), dtype=np.int64)
    out = np.empty((n_maps, n, n, d_out, n_trials), dtype=np.int64)
    for mp in range(n_maps):
        if p:
            src[p:p + f, p:p + f] = x[mp]
        else:
            src = x[mp]
        for r0 in range(0, n, step):
            r1 = min(n, r0 + step)
            taps = [src[r0 * s + i:(r1 - 1) * s + i + 1:s,
                        m:m + (n - 1) * s + 1:s]
                    for i in range(k) for m in range(k)]
            dst = out[mp, r0:r1]
            if standard:
                rows = buf[:r1 - r0]
                for t, tap in enumerate(taps):
                    rows[:, :, t] = tap
                dst[...] = _matmul(
                    rows.reshape(-1, kk * d_in, sets, n_trials // sets), kern
                ).reshape(rows.shape[:2] + (d_out, n_trials))
            elif w is None:
                dst[...] = taps[0]
                for tap in taps[1:]:
                    np.maximum(dst, tap, out=dst)
            else:
                dst[...] = 0
                for t, tap in enumerate(taps):
                    dst += tap * kern[:, t]
    return out.reshape((n_maps, n * n, d_out) + ts)


def _run_conv_like(entry: LayerAllocation, feed: LayerSim, w,
                   bias) -> LayerSim:
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
    readies[pix_pos] = feed.arrivals[:, :, feed.chan_order[-1]]
    start = _chain(_paced(readies, Fraction(d_in) / entry.rate.r_in), glen)
    out_arr = start[win_pos][:, :, None] + emit_slot
    peak = _fifo_stats(feed.arrivals, start[pix_pos][:, :, None] + last_use)
    # the trailing flush zeros belong to the last map
    busy = [period * glen] * (n_maps - 1) + [(period + prefix) * glen]
    first_cycle = [int(c) for c in start[map_base[:, 0]]]

    # Datapath: every (input channel, output channel) pair is one delay line
    # over the position stream; a unit's C configurations and its streams
    # are independent lanes, so the slot a pair occupies does not matter.
    if ly.constant_weights:
        # a lowered average pool: a unit kernel, then floor division by k*k
        w = np.ones((d_in, k, k), dtype=np.int64)
    # a depthwise kernel is a grouped one with one input channel per group
    kernels = w[:, None] if ly.kind == LayerKind.DW_CONV else w
    out_vals = _window_values(feed.values, kernels, f, k, s, p,
                              entry.acc_width)
    if ly.kind == LayerKind.CONV:   # the sums over input channels
        _check_width(out_vals, entry.acc_width, "KPU channel accumulation")
    if ly.constant_weights:
        out_vals //= k * k
    if bias is not None:
        out_vals += bias
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
    batch_ready = arrivals[:, :, batches[:, -1]]
    start = _chain(batch_ready.ravel() + 1, h).reshape(batch_ready.shape)
    out_arr = start[:, :, -1, None] + np.arange(ly.d_out) % h
    peak = _fifo_stats(arrivals, start, j)
    busy = [n_pixels * n_batches * h] * n_maps
    first_cycle = [int(c) for c in start[:, 0, 0]]

    # Datapath: each batch adds its j products to every neuron's running
    # sum, which the unit's width check sees after every batch; the feature
    # order cannot change an exact or a mod 2**64 sum, so the values are one
    # product over all features per (map, pixel).
    x = feed.values.reshape((n_maps * n_pixels, flat_width) + ts)
    dtype, scan = _product_gates(x, w[:, None, :, None], entry.acc_width)
    if scan:
        run = 0
        for feats in batches:
            run = run + np.einsum("rj...,oj...->ro...", x[:, feats],
                                  w[:, feats])
            _check_width(run, entry.acc_width, "FCU accumulation")
    n_trials = math.prod(ts)
    sets = n_trials if w.ndim > 2 else 1
    kern = w.reshape(ly.d_out, flat_width, sets).transpose(2, 1, 0) \
        .astype(dtype)
    rows = x.reshape(len(x), flat_width, sets, -1)
    out_vals = np.empty((len(x), ly.d_out, n_trials), dtype=np.int64)
    step = max(1, CHUNK_ELEMENTS // (n_trials * max(flat_width, ly.d_out)))
    for a in range(0, len(x), step):
        out_vals[a:a + step] = _matmul(rows[a:a + step], kern)
    out_vals = out_vals.reshape((n_maps, n_pixels, ly.d_out) + ts)

    if bias is not None:
        out_vals += bias
    order = [u * h + sl for sl in range(h) for u in range(n_fcu)]
    return LayerSim(out_vals, out_arr, order, busy, first_cycle,
                    fifo_peak=peak)


def signal_events(spec: NetworkSpec, result: SimResult,
                  wanted: tuple[str, ...] = ("",)) -> list[tuple]:
    """(cycle, signal, value, valid) for the outputs of a run whose signal
    `name.y[p,c]` contains one of the wanted strings (by default every
    output): each layer's own value before any truncation, of the first
    trial, layer by layer in emission order (by cycle, then channel).  A
    layer is skipped unbuilt when no string can match it: none is in its
    name, holds a "." or is made only of ".y[]," and digits."""
    events = []
    for idx, sim in enumerate(result.layers):
        name = spec.layer_name(idx)
        if not any(w in name or "." in w or set(w) <= set(".y[],0123456789")
                   for w in wanted):
            continue
        n_out, d_out = sim.arrivals.shape[1:]
        cycles = sim.arrivals.ravel()
        values = sim.values.reshape(cycles.size, -1)[:, 0]
        pixels, chans = np.divmod(np.arange(cycles.size) % (n_out * d_out),
                                  d_out)
        events += [(int(cycles[i]), f"{name}.y[{pixels[i]},{chans[i]}]",
                    int(values[i]), True)
                   for i in np.lexsort((chans, cycles))]
    return [e for e in events if any(w in e[1] for w in wanted)]


def simulate_network(plan: ArchitecturePlan, weights: dict,
                     x_maps: np.ndarray | list[np.ndarray],
                     truncate: bool = False) -> SimResult:
    """Run every planned layer over one or more input maps.

    x_maps: one (h, w, c, *trials) array or a list of them, with the same
    trial axes, for back-to-back maps.  weights maps each layer with weights
    to its "w" (LayerSpec.weight_shape) and "b" ((d_out,)), each shared or
    stacked over the trial axes; the bias is added to the layer's
    results.  Each layer's record keeps its own output; with truncate, the
    next layer reads it wrapped to the activation width, and so do the
    outputs.  Outputs are bit-exact against the reference inference under
    the same truncate setting.
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
        if bias is not None:   # against (maps, pixels, d_out, *TS)
            bias = bias.reshape(bias.shape + (1,) * (1 + len(ts) - bias.ndim))
        if isinstance(entry.unit, FcuAllocation):
            sim = _run_fcu_layer(entry, name, feed, w, bias, ts)
        else:
            sim = _run_conv_like(entry, feed, w, bias)
        sims.append(sim)
        # the consumer reads the record, or a copy wrapped to the
        # activation width that the next layer's own view replaces
        feed = replace(sim, values=wrap_to_width(
            sim.values, spec.quant.activation_bits)) if truncate else sim

    last = sims[-1]
    n_maps = len(x_maps)
    f_out = spec.layers[-1].f_out
    outputs = feed.values.reshape(
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
    return SimResult(outputs, stats, sims)

"""Cycle-stepped unit state machines.

Every unit is a pure function of (state, one clock edge of inputs).  Values
may be plain ints or numpy arrays with arbitrary trailing dimensions, so one
instance can model a whole stacked bank of identical units across
batched trials; the schedule is shared, only the data differs.

KPU (k x k kernel, transposed form): per kernel row a chain of k multipliers
whose partial sums pass through k-1 registers, rows joined by line buffers of
depth f-k+1; with C interleaved configurations every register deepens to a
C-stage shift register.  The partial sum tapped after node (i, m) at time t
belongs to the sliding window that started (i*f + m) * C cycles earlier.
Implicit zero padding gates multiplier column m to zero while an edge pixel
streams in, so the input order never changes.

PPU: the KPU pipeline with max() in place of multiply-accumulate (a
KpuUnit without weights).

FCU: holds j inputs while cycling through weight configurations; a depth-h
buffer keeps h running neuron sums; the h outputs become valid during the
last input round.
"""

from __future__ import annotations

import operator
from collections import deque

import numpy as np

from ..rate import pad_gates


class WidthOverflow(AssertionError):
    """A datapath value exceeded its worst-case width analysis."""


def _extremes(value) -> tuple[int, int]:
    """(min, max) of an int or an array, as Python ints."""
    if isinstance(value, np.ndarray):
        return int(value.min()), int(value.max())
    return int(value), int(value)


def _peak(value) -> int:
    """max |v| over an int or an array, exact for every int64 (np.abs leaves
    -2**63 negative)."""
    lo, hi = _extremes(value)
    return max(-lo, hi)


def _check_width(value, bits: int | None, where: str) -> None:
    """Refuse a value outside a signed two's-complement register of bits,
    [-2**(bits-1), 2**(bits-1)); at 64 bits or more every int64 fits."""
    if bits is None or bits >= 64:
        return
    lo, hi = _extremes(value)
    if lo < -(1 << (bits - 1)) or hi >= 1 << (bits - 1):
        raise WidthOverflow(
            f"{where}: |{max(-lo, hi)}| does not fit signed {bits}-bit")


class KpuUnit:
    """Sliding-window multiply-accumulate engine.

    weights has shape (C, k, k, ...); None makes the unit a PPU, the same
    pipeline with max() in place of multiply-accumulate.  step() consumes
    one input sample (the same broadcastable trailing shape) and the map
    column it sits in, and returns the partial-sum taps {(row, node):
    value}; the window result is tap (k-1, k-1).
    """

    def __init__(self, k: int, f: int, c: int, weights, p: int = 0,
                 width: int | None = None):
        self.k, self.f, self.c = k, f, c
        self.width = width
        self.weights = None if weights is None else np.asarray(weights)
        if self.weights is not None and self.weights.shape[:3] != (c, k, k):
            raise ValueError(
                f"weights {self.weights.shape} != (C={c}, k={k}, k={k}, ...)")
        depth_line = (f - k + 1) * c
        self.chain = [[deque([0] * c) for _ in range(k - 1)] for _ in range(k)]
        self.lines = [deque([0] * depth_line) for _ in range(k - 1)]
        self.phase = 0
        self.gates = pad_gates(f, k, p)

    @property
    def latency(self) -> int:
        """Cycles from an input to the window result it completes."""
        return (self.k - 1) * (self.f + 1) * self.c

    def tap_delay(self, row: int, node: int) -> int:
        return (row * self.f + node) * self.c

    def step(self, x, col: int | None = None) -> dict[tuple[int, int], object]:
        k = self.k
        if self.weights is None:
            prods = np.broadcast_to(x, (k, k) + np.shape(x))
            join, where = np.maximum, "PPU window max"
        else:
            prods = self.weights[self.phase] * x
            join, where = operator.add, "KPU window sum"
        if col is not None:
            prods = prods * self.gates[col].reshape(
                (1, k) + (1,) * (prods.ndim - 2))
        taps: dict[tuple[int, int], object] = {}
        for i in range(k):
            for m in range(k):
                if i == 0 and m == 0:
                    node = prods[0, 0]
                elif m == 0:
                    node = join(self.lines[i - 1].popleft(), prods[i, 0])
                else:
                    node = join(self.chain[i][m - 1].popleft(), prods[i, m])
                if m < k - 1:
                    self.chain[i][m].append(node)
                elif i < k - 1:
                    self.lines[i].append(node)
                taps[(i, m)] = node
        _check_width(taps[(k - 1, k - 1)], self.width, where)
        self.phase = (self.phase + 1) % self.c
        return taps


class FcuUnit:
    """j-input neuron engine computing h running sums.

    weights has shape (C, j, ...).  step() consumes the currently held batch
    of j inputs; first_round discards the stale buffer tail when a new
    feature vector starts.  Returns (q, y): the recalled partial sum and the
    updated sum, which is the neuron output during the last round.
    """

    def __init__(self, j: int, h: int, c: int, weights,
                 width: int | None = None):
        self.j, self.h, self.c = j, h, c
        self.width = width
        self.weights = np.asarray(weights)
        if self.weights.shape[:2] != (c, j):
            raise ValueError(
                f"weights {self.weights.shape} != (C={c}, j={j}, ...)")
        self.buffer = deque([0] * h)
        self.phase = 0

    def step(self, x_batch, first_round: bool = False):
        w = self.weights[self.phase]
        dot = (w * x_batch).sum(axis=0)
        q = self.buffer.popleft()
        if first_round:
            q = 0
        y = q + dot
        self.buffer.append(y)
        _check_width(y, self.width, "FCU accumulation")
        self.phase = (self.phase + 1) % self.c
        return q, y

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

PPU: the same pipeline with max() in place of multiply-accumulate.

FCU: holds j inputs while cycling through weight configurations; a depth-h
buffer keeps h running neuron sums; the h outputs become valid during the
last input round.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..rate import pad_tuple


class WidthOverflow(AssertionError):
    """A datapath value exceeded its worst-case width analysis."""


def _check_width(value, bits: int | None, where: str) -> None:
    if bits is None:
        return
    limit = 1 << (bits - 1)
    peak = int(np.max(np.abs(value))) if isinstance(value, np.ndarray) else abs(value)
    if peak >= limit:
        raise WidthOverflow(
            f"{where}: |{peak}| does not fit signed {bits}-bit")


class KpuUnit:
    """Sliding-window multiply-accumulate engine.

    weights has shape (C, k, k, ...).  step() consumes one input sample (the
    same broadcastable trailing shape) and the map column it sits in, and
    returns the partial-sum taps {(row, node): value}; the window result is
    tap (k-1, k-1).
    """

    def __init__(self, k: int, f: int, c: int, weights, p: int = 0,
                 width: int | None = None):
        self.k, self.f, self.c, self.p = k, f, c, p
        self.width = width
        self.weights = np.asarray(weights)
        if self.weights.shape[:3] != (c, k, k):
            raise ValueError(
                f"weights {self.weights.shape} != (C={c}, k={k}, k={k}, ...)")
        depth_line = (f - k + 1) * c
        self.chain = [[deque([0] * c) for _ in range(k - 1)] for _ in range(k)]
        self.lines = [deque([0] * depth_line) for _ in range(k - 1)]
        self.phase = 0
        self._pad_cache: dict[int | None, tuple[int, ...]] = {}

    @property
    def latency(self) -> int:
        """Cycles from an input to the window result it completes."""
        return (self.k - 1) * (self.f + 1) * self.c

    def tap_delay(self, row: int, node: int) -> int:
        return (row * self.f + node) * self.c

    def _pads(self, col: int | None) -> tuple[int, ...]:
        if self.p == 0 or col is None:
            return (1,) * self.k
        if col not in self._pad_cache:
            self._pad_cache[col] = pad_tuple(col, self.f, self.k, self.p)
        return self._pad_cache[col]

    def step(self, x, col: int | None = None) -> dict[tuple[int, int], object]:
        k = self.k
        w = self.weights[self.phase]
        prods = w * x
        pads = self._pads(col)
        if 0 in pads:
            mask = np.array(pads).reshape((1, k) + (1,) * (prods.ndim - 2))
            prods = prods * mask
        taps: dict[tuple[int, int], object] = {}
        for i in range(k):
            for m in range(k):
                if i == 0 and m == 0:
                    node = prods[0, 0]
                elif m == 0:
                    node = self.lines[i - 1].popleft() + prods[i, 0]
                else:
                    node = self.chain[i][m - 1].popleft() + prods[i, m]
                if m < k - 1:
                    self.chain[i][m].append(node)
                elif i < k - 1:
                    self.lines[i].append(node)
                taps[(i, m)] = node
        _check_width(taps[(k - 1, k - 1)], self.width, "KPU window sum")
        self.phase = (self.phase + 1) % self.c
        return taps


class PpuUnit:
    """Sliding-window pooling engine: the KPU pipeline with max()."""

    def __init__(self, k: int, f: int, c: int, width: int | None = None):
        self.k, self.f, self.c = k, f, c
        self.width = width
        depth_line = (f - k + 1) * c
        self.chain = [[deque([0] * c) for _ in range(k - 1)] for _ in range(k)]
        self.lines = [deque([0] * depth_line) for _ in range(k - 1)]

    @property
    def latency(self) -> int:
        return (self.k - 1) * (self.f + 1) * self.c

    def step(self, x) -> object:
        k = self.k
        node = x   # k = 1 degenerates to a wire
        for i in range(k):
            for m in range(k):
                if i == 0 and m == 0:
                    node = x
                elif m == 0:
                    node = np.maximum(self.lines[i - 1].popleft(), x)
                else:
                    node = np.maximum(self.chain[i][m - 1].popleft(), x)
                if m < k - 1:
                    self.chain[i][m].append(node)
                elif i < k - 1:
                    self.lines[i].append(node)
        _check_width(node, self.width, "PPU window max")
        return node


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

"""Brute-force references that the tests check closed forms against."""

from collections import Counter


def output_valid(n: int, f: int, k: int, s: int, p: int) -> bool:
    """Whether the sliding window anchored at position n yields an output.

    n = r*f + c indexes the (implicitly padded) stream; the window is valid
    when both r and c lie in {0, s, 2s, ..., f - k + 2p}.
    """
    if not 0 <= n < f * f:
        raise ValueError(f"position {n} outside feature map of side {f}")
    r, c = divmod(n, f)
    hi = f - k + 2 * p
    return r <= hi and c <= hi and r % s == 0 and c % s == 0


def fifo_peak(arrivals, departures) -> int:
    """Peak occupancy of a FIFO, one stamp per entry in each list, found by
    walking its events cycle by cycle: in each cycle the departures leave
    first, then the arrivals enter one at a time, and the depth is read
    after every arrival."""
    came, left = Counter(arrivals), Counter(departures)
    depth = peak = 0
    for cycle in sorted(came.keys() | left.keys()):
        depth -= left[cycle]
        for _ in range(came[cycle]):
            depth += 1
            peak = max(peak, depth)
    return peak

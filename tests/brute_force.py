"""Brute-force references that the tests check closed forms against."""


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

"""Exact counting primitives: factorials, binomials, derangements, ball volumes.

Everything in this module is arbitrary-precision integer arithmetic; no value
is ever computed through floats. Derangement counts come from one recurrence,
run afresh for each call; it holds its last two values and caches nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count, islice


def _derangements() -> Iterator[int]:
    """Yield D_0, D_1, D_2, ... by D_k = (k - 1) * (D_{k-1} + D_{k-2}), with
    D_0 = 1 (the k = 1 step multiplies by zero, so D_{-1} never matters)."""
    prev, value = 0, 1
    for k in count(1):
        yield value
        prev, value = value, (k - 1) * (value + prev)


def factorial(n: int) -> int:
    """Return n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial undefined for negative n: {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Return C(n, k) for n >= 0, with C(n, k) = 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial undefined for negative n: {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def derangement_count(k: int) -> int:
    """Return D_k, the number of fixed-point-free permutations of k points.

    Computed by the recurrence D_k = (k - 1) * (D_{k-1} + D_{k-2}) with
    D_0 = 1 and D_1 = 0; the recurrence keeps every intermediate value an
    integer, unlike the rounded k!/e form.
    """
    if k < 0:
        raise ValueError(f"derangement count undefined for negative k: {k}")
    return next(islice(_derangements(), k, None))


def ball_volume(n: int, r: int) -> int:
    """Return the number of permutations of n points within Hamming distance r
    of a fixed permutation: sum over i <= r of C(n, i) * D_i.

    The radius must satisfy 0 <= r <= n. Each binomial is stepped from the
    last, C(n, i + 1) = C(n, i) * (n - i) / (i + 1), which divides exactly.
    """
    if n < 0:
        raise ValueError(f"ball volume undefined for negative n: {n}")
    if r < 0 or r > n:
        raise ValueError(f"radius {r} outside valid range 0..{n}")
    total, choose = 0, 1
    for i, d_i in zip(range(r + 1), _derangements()):
        total += choose * d_i
        choose = choose * (n - i) // (i + 1)
    return total

"""Exact counting primitives: factorials, binomials, derangements, ball volumes.

Everything in this module is arbitrary-precision integer arithmetic; no value
is ever computed through floats. Derangement counts come from one recurrence,
run afresh for each call; it holds its last two values and caches nothing.

The two range checks that the bounds, the enumeration streams and the
families share, ``_check_points`` on n and ``_check_weight`` on w, live here,
and so does ``_least_factor``, which the families' prime checks and the
bounds' prime-power test share, so that ``bounds`` reads them with this
module alone and loads no numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count, islice


def _check_points(n: int) -> None:
    """The rule on n, the number of points, that every bound, oracle and
    family on n points shares: n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")


def _check_weight(n: int, w: int, moved: bool = True) -> None:
    """The weight rule on n points: w lies in 0..n, and when it counts the
    points a permutation moves (``moved``) it is never 1."""
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    if moved and w == 1:
        raise ValueError("weight 1 is impossible: a single moved point has nowhere to go")


def _least_factor(q: int) -> int | None:
    """The least factor above 1 of q, which is prime, or None when q < 2;
    so q is prime when it is its own least factor."""
    if q < 2:
        return None
    return next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)


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

"""Exact counting primitives: factorials, binomials, derangements, ball volumes.

Everything in this module is arbitrary-precision integer arithmetic; no value
is ever computed through floats. Small derangement counts are served from a
table built once at import time.
"""

from __future__ import annotations

import math

# Derangement counts up to this size are answered from a precomputed table;
# larger ones are computed on the fly without being cached.
MEMO_CAP = 64


def _derangement_table(cap: int) -> tuple[int, ...]:
    values = [1, 0]
    for k in range(2, cap + 1):
        values.append((k - 1) * (values[k - 1] + values[k - 2]))
    return tuple(values)


_DERANGEMENTS = _derangement_table(MEMO_CAP)


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
    if k <= MEMO_CAP:
        return _DERANGEMENTS[k]
    prev2, prev1 = _DERANGEMENTS[MEMO_CAP - 1], _DERANGEMENTS[MEMO_CAP]
    for i in range(MEMO_CAP + 1, k + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


def ball_volume(n: int, r: int) -> int:
    """Return the number of permutations of n points within Hamming distance r
    of a fixed permutation: sum over i <= r of C(n, i) * D_i.

    The radius must satisfy 0 <= r <= n.
    """
    if n < 0:
        raise ValueError(f"ball volume undefined for negative n: {n}")
    if r < 0 or r > n:
        raise ValueError(f"radius {r} outside valid range 0..{n}")
    return sum(binomial(n, i) * derangement_count(i) for i in range(r + 1))

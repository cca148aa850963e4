"""Counting primitives checked against brute-force enumeration oracles and
frozen values computed independently of the implementation."""

import itertools
import math
from fractions import Fraction

import pytest

from permarray.exactmath import ball_volume, binomial, derangement_count, factorial


def count_fixed_point_free(k: int) -> int:
    """Oracle: enumerate all k! permutations and count the derangements."""
    return sum(
        all(img != pos for pos, img in enumerate(p))
        for p in itertools.permutations(range(k))
    )


def count_within_distance(n: int, r: int) -> int:
    """Oracle: enumerate all permutations and count those within distance r
    of the identity."""
    return sum(
        sum(img != pos for pos, img in enumerate(p)) <= r
        for p in itertools.permutations(range(n))
    )


def test_factorial_frozen_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(10) == 3628800
    assert factorial(20) == 2432902008176640000
    # past the memo cap the values keep agreeing with the stdlib
    assert factorial(70) == math.factorial(70)


def test_factorial_rejects_negatives():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values_and_edges():
    assert binomial(20, 3) == 1140
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1
    assert binomial(7, 8) == 0
    assert binomial(7, -1) == 0
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_derangement_frozen_values():
    expected = {0: 1, 1: 0, 2: 1, 3: 2, 4: 9, 5: 44, 6: 265, 7: 1854}
    for k, value in expected.items():
        assert derangement_count(k) == value
    with pytest.raises(ValueError):
        derangement_count(-3)


@pytest.mark.parametrize("k", range(9))
def test_derangement_matches_enumeration(k):
    assert derangement_count(k) == count_fixed_point_free(k)


def test_derangement_past_memo_cap():
    # recompute D_66 from scratch with the recurrence
    prev2, prev1 = 1, 0
    for i in range(2, 67):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    assert derangement_count(66) == prev1


@pytest.mark.parametrize("k", range(1, 16))
def test_derangement_is_rounded_factorial_over_e(k):
    # 1/e as an exact alternating partial sum; 60 terms leave an error far
    # below the 1/2 needed for rounding to be unambiguous at k <= 15
    inv_e = sum(Fraction((-1) ** i, factorial(i)) for i in range(61))
    approx = factorial(k) * inv_e
    assert math.floor(approx + Fraction(1, 2)) == derangement_count(k)


def test_ball_volume_frozen_values():
    assert ball_volume(4, 2) == 7
    assert ball_volume(20, 3) == 2471
    assert ball_volume(20, 4) == 46076
    assert ball_volume(6, 0) == 1
    # distance 1 is impossible, so radius 1 adds nothing
    assert ball_volume(6, 1) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_ball_volume_matches_enumeration(n):
    for r in range(n + 1):
        assert ball_volume(n, r) == count_within_distance(n, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_ball_of_full_radius_is_everything(n):
    # sum over k of C(n, k) * D_k counts each permutation once by its
    # displaced set
    assert ball_volume(n, n) == factorial(n)


def test_ball_volume_monotone_in_radius():
    for n in (5, 9, 14):
        volumes = [ball_volume(n, r) for r in range(n + 1)]
        assert volumes == sorted(volumes)
        # strictly increasing once distances of that size exist (r >= 2)
        for r in range(2, n):
            assert volumes[r] > volumes[r - 1]


def test_ball_volume_matches_binomial_sums():
    derangements = [derangement_count(k) for k in range(201)]
    for n in range(201):
        volume = 0
        for r in range(n + 1):
            volume += math.comb(n, r) * derangements[r]
            assert ball_volume(n, r) == volume


def test_ball_volume_rejects_bad_radius():
    with pytest.raises(ValueError):
        ball_volume(5, 6)
    with pytest.raises(ValueError):
        ball_volume(5, -1)
    # n is checked before the radius
    with pytest.raises(ValueError, match="^ball volume undefined for negative n: -1$"):
        ball_volume(-1, 0)

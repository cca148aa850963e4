"""Acceptance checks. Each test prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines alongside the pytest verdicts. The heaviest
check is the exhaustive P(6,4) certification in criterion 7, which takes
about a minute on commodity hardware.
"""

import functools
import time
from fractions import Fraction
from itertools import permutations

from permarray.bounds import (
    best_upper_bound,
    dv_bound,
    known_perfect,
    me_bound,
    mo_bound,
    perfect_size,
    recursive_bound,
    sp_bound,
)
from permarray.constructions import perfect_pa
from permarray.exactmath import (
    ball_volume,
    binomial,
    derangement_count,
    factorial,
)
from permarray.search import (
    STATUS_EXACT,
    SearchLimits,
    exact_a_cw,
    exact_p,
    exact_p_cw,
    verify_pa,
)


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\ncriterion {num}: FAIL ({label})")
                raise
            elapsed = time.perf_counter() - started
            print(f"\ncriterion {num}: PASS ({label}, {elapsed:.3f}s)")

        return run

    return wrap


@criterion(1, "even-distance worked example")
def test_criterion_1_even_distance_example():
    started = time.perf_counter()
    dv = dv_bound(20, 8)
    sp = sp_bound(20, 8)
    me = me_bound(20, 4)
    best = best_upper_bound(20, 8)
    elapsed = time.perf_counter() - started

    assert dv.value == 482718652416000
    assert dv.value > 482 * 10**12

    assert sp.value == factorial(20) // 2471
    assert ball_volume(20, 3) == 2471
    assert sp.value > 984 * 10**12

    assert me.value == factorial(20) // 11192
    assert me.value < 218 * 10**12

    assert best.value == me.value
    assert best.derivation == ("ME",)
    assert elapsed < 1.0


@criterion(2, "odd-distance worked example")
def test_criterion_2_odd_distance_example():
    started = time.perf_counter()
    sp = sp_bound(20, 9)
    dv = dv_bound(20, 9)
    mo = mo_bound(20, 4)
    best = best_upper_bound(20, 9)
    elapsed = time.perf_counter() - started

    assert sp.value == factorial(20) // 46076
    assert ball_volume(20, 4) == 46076
    assert sp.value > 528 * 10**11

    assert dv.value == factorial(20) // factorial(8)
    assert dv.value > 603 * 10**11

    assert mo.value < 380 * 10**11
    assert mo.derivation == ("MO-corollary",)

    assert best.value == mo.value
    assert best.derivation == ("MO-corollary",)
    assert elapsed < 1.0


@criterion(3, "named families meet the quotient bound")
def test_criterion_3_perfect_family_tightness():
    cases = (
        [("cyclic", n) for n in range(2, 9)]
        + [("symmetric", n) for n in range(2, 7)]
        + [("alternating", n) for n in range(3, 7)]
        + [("agl", p) for p in (3, 5, 7)]
        + [("pgl2", p) for p in (3, 5)]
    )
    for family, param in cases:
        array = perfect_pa(family, param)
        d = {
            "cyclic": param,
            "symmetric": 2,
            "alternating": 3,
            "agl": param - 1,
            "pgl2": param - 1,
        }[family]
        assert verify_pa(array, d) == [], (family, param)
        if len(array) >= 2:
            assert array.min_distance() == d, (family, param)
        assert len(array) == dv_bound(array.n, d).value, (family, param)


@criterion(4, "search oracles agree with known values")
def test_criterion_4_oracle_agreement():
    started = time.perf_counter()
    quick = {(4, 3): 12, (4, 4): 4, (5, 5): 5}
    for (n, d), expected in quick.items():
        outcome = exact_p(n, d)
        assert outcome.status == STATUS_EXACT, (n, d)
        assert outcome.value == expected, (n, d)
    assert time.perf_counter() - started < 60.0

    certified = exact_p(5, 4)
    assert certified.status == STATUS_EXACT
    assert certified.value == 20

    for k in range(2, 5):
        for n in range(k, 9):
            outcome = exact_p_cw(n, 2 * k, k)
            assert outcome.status == STATUS_EXACT, (n, k)
            assert outcome.value == n // k, (n, k)

    for n, k in [(5, 2), (6, 2), (7, 2), (7, 3)]:
        pa = exact_p_cw(n, 2 * k + 1, k + 1)
        code = exact_a_cw(n, 2 * k, k + 1)
        assert pa.status == code.status == STATUS_EXACT, (n, k)
        assert pa.value == code.value, (n, k)


@criterion(5, "exact-rational ordering and gap properties")
def test_criterion_5_rational_property_sweeps():
    started = time.perf_counter()

    # refinement never loosens sphere packing, same target distance
    for n in range(4, 41):
        for k in range(2, n // 2 + 1):
            assert me_bound(n, k).ratio <= sp_bound(n, 2 * k).ratio, (n, k)
    for n in range(7, 41):
        for k in range(2, (n - 1) // 3 + 1):
            assert mo_bound(n, k).ratio <= sp_bound(n, 2 * k + 1).ratio, (n, k)

    # even-distance gap: SP - ME > 2 (n-k+1)! / (n (k-1))
    for k in range(5, 8):
        for n in range(2 * k, 41):
            gap = sp_bound(n, 2 * k).ratio - me_bound(n, k).ratio
            assert gap > Fraction(2 * factorial(n - k + 1), n * (k - 1)), (n, k)

    # odd-distance gap, wherever the right side is positive
    odd_checked = 0
    for k in range(4, 14):
        for n in range(3 * k + 1, 41):
            rhs = Fraction(2 * factorial(n - k), (k + 1) * n * (n - 1)) * (
                1 + k - Fraction(n - 1, k)
            )
            if rhs <= 0:
                continue
            assert sp_bound(n, 2 * k + 1).ratio - mo_bound(n, k).ratio > rhs, (n, k)
            odd_checked += 1
    assert odd_checked > 0

    # lifting a sphere-packing bound from any m never beats the direct bounds
    for n in range(3, 26):
        for m in range(2, n):
            for d in range(2, m + 1):
                lifted = recursive_bound(n, d, m, sp_bound(m, d))
                direct = min(dv_bound(n, d).value, sp_bound(n, d).value)
                assert lifted.value >= direct, (n, m, d)

    assert time.perf_counter() - started < 60.0


@criterion(6, "counting identities")
def test_criterion_6_counting_identities():
    for n in range(13):
        total = sum(binomial(n, k) * derangement_count(k) for k in range(n + 1))
        assert total == factorial(n), n

    for k in range(9):
        enumerated = sum(
            1
            for p in permutations(range(k))
            if all(p[i] != i for i in range(k))
        )
        assert derangement_count(k) == enumerated, k


@criterion(7, "bounds and constructions bracket the oracle")
def test_criterion_7_bounds_bracket_oracle():
    # pairs with n <= 7 whose exhaustive search certifies under these limits
    certifiable = {
        (2, 2): 2,
        (3, 2): 6,
        (3, 3): 3,
        (4, 2): 24,
        (4, 3): 12,
        (4, 4): 4,
        (5, 2): 120,
        (5, 3): 60,
        (5, 4): 20,
        (5, 5): 5,
        (6, 2): 720,
        (6, 3): 360,
        (6, 4): 120,
        (6, 6): 6,
        (7, 2): 5040,
        (7, 3): 2520,
        (7, 7): 7,
    }
    limits = SearchLimits(max_nodes=5_000_000, max_seconds=240.0)
    for (n, d), expected in certifiable.items():
        outcome = exact_p(n, d, limits)
        assert outcome.status == STATUS_EXACT, (n, d)
        assert outcome.value == expected, (n, d)
        assert verify_pa(outcome.witness, d) == [], (n, d)

        for result in (dv_bound(n, d), sp_bound(n, d), best_upper_bound(n, d)):
            assert result.value >= outcome.value, (n, d, result.derivation)
        refined = me_bound(n, d // 2) if d % 2 == 0 else mo_bound(n, (d - 1) // 2)
        if refined.applicable:
            assert refined.value >= outcome.value, (n, d)

        if known_perfect(n, d):
            assert perfect_size(n, d) == outcome.value, (n, d)

    # constructions never exceed the certified sizes
    construction_cases = [
        ("cyclic", 5, 5, 5),
        ("cyclic", 7, 7, 7),
        ("symmetric", 6, 6, 2),
        ("alternating", 6, 6, 3),
        ("agl", 5, 5, 4),
        ("pgl2", 5, 6, 4),
    ]
    for family, param, n, d in construction_cases:
        array = perfect_pa(family, param)
        assert array.n == n
        assert len(array) <= certifiable[(n, d)], (family, param)

    # pairs the search cannot certify quickly: the witness it does find must
    # stay below every upper bound
    for n, d in [(6, 5), (7, 4), (7, 5)]:
        partial = exact_p(n, d, SearchLimits(max_nodes=20_000, max_seconds=30.0))
        assert partial.status != STATUS_EXACT, (n, d)
        assert verify_pa(partial.witness, d) == [], (n, d)
        assert partial.value <= best_upper_bound(n, d).value, (n, d)
    # P(7,6) was among them (26 after 2,000,000 nodes); a greedy dive from
    # one root orbit now meets the quotient bound 7!/5! = 42 at the root
    certified = exact_p(7, 6, SearchLimits(max_nodes=20_000, max_seconds=30.0))
    assert (certified.status, certified.value, certified.nodes) == (STATUS_EXACT, 42, 1)
    assert verify_pa(certified.witness, 6) == []

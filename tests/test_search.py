"""Clique search: exact values on small instances, witness integrity,
determinism, and behaviour at the node and time limits."""

import hashlib
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permarray.constructions import BinaryCwCode, PermutationArray, block_cycle_cwpa
from permarray.exactmath import factorial
from permarray.perm import Permutation, identity, iterate_all, weight
from permarray.search import (
    DEFAULT_LIMITS,
    STATUS_EXACT,
    STATUS_INCOMPLETE,
    STATUS_LOWER_BOUND_ONLY,
    SearchLimits,
    _adjacency_at_distance,
    _color_order,
    _greedy_clique,
    _over_budget_upfront,
    exact_a_cw,
    exact_p,
    exact_p_cw,
    verify_pa,
)


def fake_clock(monkeypatch, steady_reads):
    """Replace ``time.monotonic`` with a clock that reads 0.0 for its first
    ``steady_reads`` reads and an hour later from then on."""
    reads = 0

    def monotonic():
        nonlocal reads
        reads += 1
        return 0.0 if reads <= steady_reads else 3600.0

    monkeypatch.setattr(time, "monotonic", monotonic)


def assert_verified(outcome, d):
    assert outcome.value == len(outcome.witness)
    if isinstance(outcome.witness, PermutationArray):
        assert verify_pa(outcome.witness, d) == []
    else:
        assert outcome.witness.violations(d) == []


class TestExactP:
    def test_small_exact_values(self):
        cases = {
            (4, 2): 24,
            (4, 3): 12,
            (4, 4): 4,
            (5, 4): 20,
            (5, 5): 5,
        }
        for (n, d), expected in cases.items():
            outcome = exact_p(n, d)
            assert outcome.status == STATUS_EXACT, (n, d)
            assert outcome.value == expected, (n, d)
            assert_verified(outcome, d)

    def test_identity_always_a_member(self):
        outcome = exact_p(5, 3)
        assert identity(5) in outcome.witness

    def test_trivial_distances(self):
        assert exact_p(4, 1).value == factorial(4)
        assert exact_p(1, 1).value == 1

    def test_determinism(self):
        first = exact_p(5, 4)
        second = exact_p(5, 4)
        assert first.witness == second.witness
        assert first.nodes == second.nodes

    def test_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the search changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert exact_p(5, 3).value == 60
        assert exact_a_cw(6, 4, 3).value == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exact_p(4, 5)
        with pytest.raises(ValueError):
            exact_p(4, 0)
        with pytest.raises(ValueError):
            exact_p(0, 1)


class TestLimitBehaviour:
    def test_lower_bound_only_when_graph_exceeds_node_budget(self):
        outcome = exact_p(5, 3)  # 76 vertices under default limits is fine
        assert outcome.status == STATUS_EXACT
        gated = exact_p(5, 3, SearchLimits(max_nodes=10, max_seconds=None))
        assert gated.status == STATUS_LOWER_BOUND_ONLY
        assert gated.value <= outcome.value
        assert_verified(gated, 3)
        assert gated.nodes == 0
        # the gated witness is the greedy clique of the full graph
        vertices = [p for p in iterate_all(5) if weight(p) >= 3]
        adjacency = _adjacency_at_distance(vertices, 3)
        greedy = _greedy_clique(len(adjacency), adjacency.__getitem__)
        assert gated.witness == PermutationArray(5, [identity(5)] + [vertices[i] for i in greedy])

    def test_adjacency_memory_gate(self):
        # S_9's bitsets would take 362,880 rows of 45,360 B (16.5 GB);
        # S_8's 40,320 rows of 5,040 B (203 MB) still search
        assert _over_budget_upfront(362_880, DEFAULT_LIMITS)
        assert not _over_budget_upfront(40_320, DEFAULT_LIMITS)

    def test_zero_seconds_is_lower_bound_only(self):
        outcome = exact_p(5, 4, SearchLimits(max_nodes=None, max_seconds=0.0))
        assert outcome.status == STATUS_LOWER_BOUND_ONLY
        assert_verified(outcome, 4)

    def test_deadline_stops_the_greedy_witness(self, monkeypatch):
        # the node cap gates the search; the first read sets the deadline and
        # the clock has jumped past it when the greedy, at 256 members, checks
        fake_clock(monkeypatch, steady_reads=1)
        outcome = exact_p(6, 2, SearchLimits(max_nodes=10, max_seconds=60.0))
        assert outcome.status == STATUS_LOWER_BOUND_ONLY
        assert_verified(outcome, 2)
        # at d = 2 every vertex joins, so the witness is the identity and the
        # first 256 vertices
        vertices = [p for p in iterate_all(6) if weight(p) >= 2]
        assert outcome.witness == PermutationArray(6, [identity(6)] + vertices[:256])

    def test_deadline_stops_mid_search(self, monkeypatch):
        # reads: the deadline, then nodes 1, 257 and 513 on time; node 769 is
        # late
        fake_clock(monkeypatch, steady_reads=4)
        outcome = exact_p(6, 5, SearchLimits(max_nodes=None, max_seconds=60.0))
        assert outcome.status == STATUS_INCOMPLETE
        assert outcome.nodes == 769
        assert_verified(outcome, 5)
        # the clock stops the traversal where a 768-node cap does (above the
        # 529 vertices, so the cap does not gate the search)
        capped = exact_p(6, 5, SearchLimits(max_nodes=768, max_seconds=None))
        assert (capped.status, capped.nodes) == (STATUS_INCOMPLETE, 769)
        assert capped.witness == outcome.witness

    def test_incomplete_mid_search(self):
        # enough budget to pass the upfront gate but not to finish
        outcome = exact_p(6, 5, SearchLimits(max_nodes=2000, max_seconds=None))
        assert outcome.status == STATUS_INCOMPLETE
        assert outcome.value >= 2
        assert_verified(outcome, 5)
        # the counter includes the node that tripped the limit
        assert 0 < outcome.nodes <= 2001

    def test_value_grows_with_budget(self):
        # deterministic traversal, so a larger budget extends the same run
        small = exact_p(6, 5, SearchLimits(max_nodes=2000, max_seconds=None))
        large = exact_p(6, 5, SearchLimits(max_nodes=50000, max_seconds=None))
        assert small.status == large.status == STATUS_INCOMPLETE
        assert small.value <= large.value


class TestSearchTree:
    """Capped runs pin the traversal: the colouring and the branch order
    decide which nodes a budget covers and which witness it returns."""

    @pytest.mark.parametrize(
        "n, d, cap, value, digest",
        [(6, 4, 700, 64, "c0d9a6636555d1c9"), (6, 5, 3000, 16, "761185b37aece395")],
    )
    def test_capped_run_is_pinned(self, n, d, cap, value, digest):
        outcome = exact_p(n, d, SearchLimits(max_nodes=cap, max_seconds=None))
        assert outcome.status == STATUS_INCOMPLETE
        assert outcome.nodes == cap + 1
        assert outcome.value == value
        members = repr(outcome.witness.members).encode()
        assert hashlib.sha256(members).hexdigest()[:16] == digest


def _reference_color_order(cand, adjacency):
    """First-fit coloring one vertex at a time: each vertex, in index order,
    joins the first class holding none of its neighbors."""
    classes = []
    order = []
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        neighbors = adjacency[v]
        for i, cls in enumerate(classes):
            if not neighbors & cls:
                classes[i] = cls | low
                order.append((i + 1, v))
                break
        else:
            classes.append(low)
            order.append((len(classes), v))
    order.sort()
    return order


@st.composite
def coloring_cases(draw):
    m = draw(st.integers(0, 64))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adjacency = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    cand = draw(st.integers(0, (1 << m) - 1))
    kmin = draw(st.integers(1, m + 2))
    return adjacency, cand, kmin


class TestColorOrder:
    @settings(deadline=None)
    @given(coloring_cases())
    def test_matches_first_fit_reference(self, case):
        adjacency, cand, kmin = case
        reference = _reference_color_order(cand, adjacency)
        assert _color_order(cand, adjacency, 1) == reference
        assert _color_order(cand, adjacency, kmin) == [(k, v) for k, v in reference if k >= kmin]


class TestExactPCw:
    def test_block_cycle_values(self):
        for n in range(4, 9):
            for k in range(2, min(4, n // 2) + 1):
                outcome = exact_p_cw(n, 2 * k, k)
                assert outcome.status == STATUS_EXACT, (n, k)
                assert outcome.value == n // k, (n, k)
                assert_verified(outcome, 2 * k)
                assert all(weight(p) == k for p in outcome.witness)

    def test_construction_meets_search(self):
        found = exact_p_cw(6, 4, 2)
        built = block_cycle_cwpa(6, 2)
        assert found.value == len(built)

    def test_weight_zero(self):
        outcome = exact_p_cw(4, 1, 0)
        assert outcome.value == 1
        assert tuple(outcome.witness) == (identity(4),)

    def test_weight_one_rejected(self):
        with pytest.raises(ValueError):
            exact_p_cw(4, 2, 1)


class TestExactACw:
    def test_small_values(self):
        assert exact_a_cw(5, 4, 2).value == 2
        assert exact_a_cw(6, 4, 3).value == 4
        assert exact_a_cw(7, 4, 3).value == 7  # the triple system on 7 points

    def test_matches_odd_distance_pa(self):
        # weight-(k+1) arrays at odd distance 2k+1 have the same maximum as
        # the binary codes their supports form
        for n, k in [(5, 1), (6, 1), (7, 1), (7, 2)]:
            pa = exact_p_cw(n, 2 * k + 1, k + 1)
            code = exact_a_cw(n, 2 * k, k + 1)
            assert pa.status == code.status == STATUS_EXACT
            assert pa.value == code.value, (n, k)

    def test_witness_is_a_code(self):
        outcome = exact_a_cw(6, 4, 3)
        assert isinstance(outcome.witness, BinaryCwCode)
        assert outcome.witness.violations(4) == []

    def test_odd_distance_rejected(self):
        with pytest.raises(ValueError):
            exact_a_cw(6, 3, 3)

    def test_lower_bound_only_gate(self):
        outcome = exact_a_cw(10, 4, 5, SearchLimits(max_nodes=3, max_seconds=None))
        assert outcome.status == STATUS_LOWER_BOUND_ONLY
        assert outcome.witness.violations(4) == []


class TestVerification:
    def test_min_distance(self):
        array = PermutationArray(4, [identity(4), Permutation((1, 0, 3, 2))])
        assert array.min_distance() == 4

    def test_verify_pa_passes(self):
        array = block_cycle_cwpa(8, 2)
        assert verify_pa(array, 4) == []

    def test_verify_pa_reports_offending_pairs(self):
        close = PermutationArray(4, [identity(4), Permutation((1, 0, 2, 3))])
        bad = verify_pa(close, 3)
        assert bad == [(identity(4), Permutation((1, 0, 2, 3)), 2)]

    def test_verify_pa_singleton_is_vacuous(self):
        assert verify_pa(PermutationArray(3, [identity(3)]), 3) == []

    def test_default_limits_are_generous(self):
        assert DEFAULT_LIMITS.max_nodes == 100_000_000
        assert DEFAULT_LIMITS.max_seconds == 300.0

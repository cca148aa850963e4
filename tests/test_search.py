"""Clique search: exact values on small instances, witness integrity,
determinism, and behaviour at the node and time limits."""

import dataclasses
import hashlib
import itertools
import math
import random
import sys
import time
from array import array
from collections.abc import Iterable, Iterator
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permarray import search
from permarray.bounds import (
    _perfect_family,
    best_upper_bound,
    cw_binary_bound,
    cw_pa_bound,
    johnson_1962,
)
from permarray.constructions import (
    BinaryCwCode,
    PermutationArray,
    block_cycle_cwpa,
    perfect_pa,
)
from permarray.exactmath import factorial
from permarray.perm import (
    Permutation,
    _conflict_masks,
    count_pairs_below,
    cycle_type,
    permutation_rows,
    support,
    weight,
    weight_rows,
)
from permarray.search import (
    STATUS_EXACT,
    STATUS_INCOMPLETE,
    STATUS_LOWER_BOUND_ONLY,
    SearchLimits,
    SearchOutcome,
    _color_order,
    _greedy_clique,
    _greedy_stream,
    _max_clique,
    exact_a_cw,
    exact_p,
    exact_p_cw,
    verify_pa,
)


def indicator_vectors(n: int, words: Iterable[Iterable[int]]) -> Iterator[list[int]]:
    """Yield the 0/1 vector of length n marking each word's points."""
    return ([int(i in word) for i in range(n)] for word in map(set, words))


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
        assert Permutation(range(5)) in outcome.witness

    def test_trivial_distances(self):
        assert exact_p(4, 1).value == factorial(4)
        assert exact_p(1, 1).value == 1

    def test_certifies_p_6_5(self):
        # about 8 s on a 2-core Xeon; the limit tests below stop this tree
        # after 768, 2,000 and 50,000 nodes
        outcome = exact_p(6, 5)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 18, 532_716)
        assert outcome.pruned == (523, 1164, 1106, 1790, 295, 1)
        assert_verified(outcome, 5)

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


# every cell on at most 8 points that a family built here meets and that
# the search's gate admits; (1, 1)'s family is the identity alone
_FAMILY_CASES = sorted(
    {(n, d) for n in range(2, 9) for d in (1, 2, 3, n) if d <= n}
    | {(5, 4), (6, 4), (7, 6), (8, 6)}
)


def _without_family(monkeypatch, *args):
    """``exact_p`` with no family to certify its cell: the search path."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        return exact_p(*args)


class TestFamilyCertificate:
    """A built family that proves its own distance and meets the bound
    certifies a P(n, d) cell before any vertex is listed, as the witness
    itself: 1 node, the root, closed as a dive that meets the bound closes
    it."""

    @pytest.mark.parametrize("n, d", _FAMILY_CASES)
    def test_family_cells_certify_without_a_graph(self, n, d):
        # P(8,6) = 336 and P(8,8) = 8 among them, which as searches paid
        # for 37,085 and 14,833 vertices' conflict masks
        outcome = exact_p(n, d)
        assert (outcome.status, outcome.value, outcome.nodes, outcome.pruned) == (
            STATUS_EXACT, best_upper_bound(n, d).value, 1, ())
        assert list(outcome.seconds) == ["family"]
        assert outcome.witness == perfect_pa(*_perfect_family(n, d))
        # the pairwise kernel agrees with the coset proof
        assert count_pairs_below(outcome.witness.rows, d)[0] == 0

    @pytest.mark.parametrize("n, d", [(9, 2), (9, 3), (10, 10), (11, 10), (11, 11),
                                      (12, 10), (12, 12), (13, 12)])
    def test_family_cells_past_the_graph_gate_certify(self, n, d):
        # the default limits admit these, but their conflict masks would
        # not fit in memory: before the family was asked ahead of the
        # graph's gate, P(9,2) took 135.6 s of streamed greedy and P(11,10)
        # stopped lower-bound-only at 31; on 12 or more points a default
        # node cap of 10^8 ruled the family out, and P(12,12) read 3
        outcome = exact_p(n, d)
        assert (outcome.status, outcome.value, outcome.nodes, outcome.pruned) == (
            STATUS_EXACT, best_upper_bound(n, d).value, 1, ())
        assert list(outcome.seconds) == ["family"]

    def test_a_family_past_the_build_gate_is_no_family(self):
        # the build gate refuses S_11 before anything is allocated, and its
        # graph would not fit either, so the time goes to the streamed greedy
        outcome = exact_p(11, 2, SearchLimits(max_seconds=0.3))
        assert (outcome.status, outcome.nodes) == (STATUS_LOWER_BOUND_ONLY, 0)
        assert list(outcome.seconds) == ["greedy"]
        assert 1 < outcome.value < factorial(11)

    @pytest.mark.parametrize("n, d", [(n, d) for n, d in _FAMILY_CASES if n <= 7])
    def test_the_search_path_gives_the_same_answer(self, monkeypatch, n, d):
        searched = _without_family(monkeypatch, n, d)
        assert list(searched.seconds) == ["listing", "conflict_masks", "search"]
        outcome = exact_p(n, d)
        assert ((outcome.status, outcome.value, outcome.nodes, outcome.pruned)
                == (searched.status, searched.value, searched.nodes, searched.pruned))
        assert_verified(searched, d)

    @pytest.mark.parametrize("args, value", [
        ((5, 4, SearchLimits(10, None)), 8),
        ((5, 4, SearchLimits(None, 0.0)), 8),
        ((8, 6, SearchLimits(10, None)), 77),
        # the whole greedy takes over a minute, so a deadline stops it at a
        # value that depends on the clock
        ((9, 3, SearchLimits(10, 0.2)), None),
    ])
    def test_a_gated_call_builds_no_family(self, monkeypatch, args, value):
        calls = []

        def spy(n, d):
            calls.append((n, d))
            raise AssertionError("a gated search built a family")

        monkeypatch.setattr(search, "_perfect_family", spy)
        outcome = exact_p(*args)
        assert calls == []
        assert (outcome.status, outcome.nodes) == (STATUS_LOWER_BOUND_ONLY, 0)
        assert outcome.value > 1 and value in (None, outcome.value)
        assert list(outcome.seconds) == ["greedy"]

    @pytest.mark.parametrize("n, d", [(1, 1), (6, 5), (8, 7)])
    def test_cells_no_family_meets_search(self, n, d):
        # P(6,5) = 18 is no family's, and P(8,7) = 56's group lives on the
        # field of order 8, which nothing here builds; the identity alone
        # is too small to be kept
        named, family = _perfect_family(n, d), None
        with suppress(ValueError):  # (8, 7) is named, but not built
            family = named and perfect_pa(*named)
        assert family is None or len(family) < 2
        if n < 8:
            outcome = exact_p(n, d, SearchLimits(700, None))
            assert list(outcome.seconds) == ["listing", "conflict_masks", "search"]

    @pytest.mark.parametrize("family", [
        perfect_pa("symmetric", 5),  # distance 2, below 4
        perfect_pa("cyclic", 5),  # distance 5, but 5 members, short of 20
        # AGL(1,5) with two points swapped: no identity, but 20 members at
        # distance 4, and a proved family needs none once it is the witness
        PermutationArray(5, perfect_pa("agl", 5).rows[:, [1, 0, 2, 3, 4]]),
    ])
    def test_a_family_is_kept_only_once_proved(self, monkeypatch, family):
        # no table is trusted: a family that misses a test leaves P(5,4) to
        # be searched as it is with no family at all
        proved = len(family) >= 20 and count_pairs_below(family.rows, 4)[0] == 0
        monkeypatch.setattr(search, "perfect_pa", lambda name, param: family)
        outcome = exact_p(5, 4)
        if proved:
            assert list(outcome.seconds) == ["family"]
            assert outcome.witness is family
            assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 20, 1)
        else:
            searched = _without_family(monkeypatch, 5, 4)
            assert list(outcome.seconds) == ["listing", "conflict_masks", "search"]
            assert (outcome.status, outcome.value, outcome.nodes, outcome.witness) == (
                searched.status, searched.value, searched.nodes, searched.witness)


class TestLimitBehaviour:
    def test_lower_bound_only_when_graph_exceeds_node_budget(self):
        outcome = exact_p(5, 3)  # 76 vertices under default limits is fine
        assert outcome.status == STATUS_EXACT
        gated = exact_p(5, 3, SearchLimits(max_nodes=10, max_seconds=None))
        # the greedy witness meets the quotient bound 5!/2! = 60, so it is
        # exact without a search node
        assert gated.status == STATUS_EXACT
        assert gated.value == outcome.value
        assert_verified(gated, 3)
        assert gated.nodes == 0
        # P(5,4)'s greedy witness, 8 members against the bound 20, is not
        short = exact_p(5, 4, SearchLimits(max_nodes=10, max_seconds=None))
        assert (short.status, short.value, short.nodes) == (STATUS_LOWER_BOUND_ONLY, 8, 0)
        assert_verified(short, 4)
        # the gated witness is the greedy clique of the full graph, which
        # takes the highest index first on the reversed vertex list
        vertices = [p for p in itertools.permutations(range(5)) if weight(p) >= 3][::-1]
        greedy = _greedy_clique(_conflict_masks(vertices, 3))
        members = [Permutation(range(5))] + [vertices[i] for i in greedy]
        assert gated.witness == PermutationArray(5, members)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_streamed_greedy_matches_the_graph_greedy(self, d):
        # several 256-vector slices, and at d = 2 more than 256 kept vectors;
        # the greedy cuts each block into slices of at most 256 rows, so
        # blocks of 300 and 1,000 rows end in a shorter slice, and an empty
        # block mid-stream adds none
        perms = [p for p in itertools.permutations(range(6)) if weight(p) >= d]
        words = list(indicator_vectors(11, itertools.combinations(range(11), 5)))
        for vectors, distance in [(perms, d), (words, 2 * d)]:
            reverse = vectors[::-1]
            greedy = _greedy_clique(_conflict_masks(reverse, distance))
            rows = np.array(vectors, dtype=np.int8)
            for size in (100, 300, 1000):
                blocks = [rows[start:start + size] for start in range(0, len(rows) + 1, size)]
                blocks.insert(len(blocks) // 2 + 1, rows[:0])
                streamed = _greedy_stream(iter(blocks), distance, math.inf)
                assert streamed.tolist() == [list(reverse[i]) for i in greedy]

    def test_streamed_greedy_slices_across_blocks(self, monkeypatch):
        # S_7 comes in seven blocks of 720 rows; the greedy checks them in
        # the 256-row slices of one joined block (19 of 256, then 176), not
        # in three slices per block (256 + 256 + 208), and against the same
        # kept rows, so it keeps the same 2,520 rows at d = 3
        blocks = list(permutation_rows(7, 0))
        assert [len(block) for block in blocks] == [720] * 7
        joined = np.concatenate(blocks)
        assert [len(rows) for rows in search._slices(iter(blocks))] == [256] * 19 + [176]
        assert all(np.array_equal(cut, whole) for cut, whole in zip(
            search._slices(iter(blocks)), search._slices([joined]), strict=True))
        kernel = search._distance_rows
        for stream in (blocks, [joined], [joined[:0], *blocks, joined[:0]]):
            checks = []
            monkeypatch.setattr(search, "_distance_rows", lambda sets, *args: checks.append(
                (sets[0].tobytes(), len(sets[1]))) or kernel(sets, *args))
            kept = _greedy_stream(iter(stream), 3, math.inf)
            if stream is blocks:
                expected = (checks, kept)
            assert checks == expected[0] and np.array_equal(kept, expected[1])
        assert len(expected[1]) == 2520 and len(expected[0]) > 19

    def test_gated_witness_of_a_stream_of_blocks_is_pinned(self):
        # S_8 is read one two-point prefix (720 tails) at a time, so the
        # 37,085 vertices at distance >= 6 from the identity come in 56
        # ragged blocks of at most 720 rows, the first holding 265
        outcome = exact_p(8, 6, SearchLimits(max_nodes=10, max_seconds=None))
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_LOWER_BOUND_ONLY, 77, 0)
        assert_verified(outcome, 6)
        members = repr(outcome.witness.members).encode()
        assert hashlib.sha256(members).hexdigest()[:16] == "32b22f92784aab64"

    def test_adjacency_memory_gate(self):
        # S_9's bitsets would take 362,880 rows of 45,360 B (16.5 GB);
        # S_8's 40,320 rows of 5,040 B (203 MB) still search. The gate reads
        # m alone, so one empty block stands in for the vertices
        phases = []
        for m in (362_880, 40_320):
            outcome = search._solve(m, [np.zeros((0, 9), dtype=np.int8)], 2, SearchLimits(),
                                    lambda rows: None, lambda chosen: chosen)
            phases.append(list(outcome.seconds))
        assert phases == [["greedy"], ["listing", "conflict_masks", "search"]]

    @pytest.mark.parametrize("limits", [(-5, None), (-1, 60.0), (None, -1.0), (10, math.nan),
                                        (math.nan, None), (None, -math.inf)])
    def test_negative_or_nan_limits_are_rejected(self, limits):
        # a NaN deadline is never passed, so it would turn the clock off
        with pytest.raises(ValueError, match="limit must be >= 0"):
            SearchLimits(*limits)

    def test_zero_and_infinite_limits_keep_their_meaning(self):
        # zero nodes rules out any search node; P(5,3)'s greedy witness
        # meets its bound and P(5,4)'s does not
        gated = exact_p(5, 3, SearchLimits(0, None))
        assert (gated.status, gated.value, gated.nodes) == (STATUS_EXACT, 60, 0)
        assert exact_p(5, 4, SearchLimits(0, None)).status == STATUS_LOWER_BOUND_ONLY
        outcome = exact_p(5, 3, SearchLimits(math.inf, math.inf))
        assert (outcome.status, outcome.value) == (STATUS_EXACT, 60)

    def test_a_gated_witness_that_meets_the_bound_is_exact(self):
        # four disjoint 5-sets meet the partition bound A(20,10,5) = 20/5
        outcome = exact_a_cw(20, 10, 5, SearchLimits(max_nodes=0, max_seconds=None))
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 4, 0)
        assert outcome.witness.violations(10) == []
        assert list(outcome.seconds) == ["greedy"]

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
        vertices = [p for p in itertools.permutations(range(6)) if weight(p) >= 2]
        assert outcome.witness == PermutationArray(6, [Permutation(range(6))] + vertices[:256])

    @pytest.mark.parametrize("steady_reads, kept", [(2, 256), (4, 512), (5, 512), (6, 719)])
    def test_deadline_stops_the_greedy_between_kept_chunks(self, monkeypatch, steady_reads, kept):
        # at d = 2 every one of the 719 vertices joins. Reads: the deadline;
        # block 1's end; block 2's check against kept rows 0-255, then its
        # end; block 3's checks against kept rows 0-255 and 256-511, then its
        # end. A late check returns what the earlier blocks kept, so the
        # overrun is one check's work, not a whole block's. All 719 with the
        # identity meet the bound 6! = 720, which makes that witness exact
        fake_clock(monkeypatch, steady_reads=steady_reads)
        outcome = exact_p(6, 2, SearchLimits(max_nodes=10, max_seconds=60.0))
        assert outcome.status == (STATUS_EXACT if kept == 719 else STATUS_LOWER_BOUND_ONLY)
        assert_verified(outcome, 2)
        vertices = [p for p in itertools.permutations(range(6)) if weight(p) >= 2]
        assert outcome.witness == PermutationArray(6, [Permutation(range(6))] + vertices[:kept])

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

    def test_gate_acts_before_the_vertices_are_listed(self, monkeypatch):
        # S_11 has 39,916,800 members; a gated search may pull only what its
        # greedy witness reads before the deadline
        pulled = 0

        def counting_permutation_rows(n, min_weight):
            nonlocal pulled
            for block in permutation_rows(n, min_weight):
                pulled += len(block)
                if pulled > 1_000_000:
                    raise AssertionError("the gated search is listing S_11")
                yield block

        monkeypatch.setattr(search, "permutation_rows", counting_permutation_rows)
        outcome = exact_p(11, 3, SearchLimits(max_nodes=10, max_seconds=0.5))
        assert outcome.status == STATUS_LOWER_BOUND_ONLY
        assert outcome.value > 1
        assert_verified(outcome, 3)
        assert 0 < pulled < factorial(11) // 100

    def test_vertex_counts_are_closed_form(self, monkeypatch):
        # each oracle gates on a vertex count it works out before listing;
        # it must equal the length of the stream it hands over
        counts = []

        def count_only(m, blocks, d, limits, symmetry, witness, upper=None):
            blocks = list(blocks)
            counts.append((m, sum(map(len, blocks))))
            return SearchOutcome(STATUS_EXACT, witness(blocks[0][:0]))

        monkeypatch.setattr(search, "_perfect_family", lambda n, d: None)
        monkeypatch.setattr(search, "_solve", count_only)
        for n in range(1, 7):
            for d in range(1, n + 1):
                exact_p(n, d)
            for w in [0] + list(range(2, n + 1)):
                exact_p_cw(n, 2, w)
        for n in range(1, 9):
            for w in range(n + 1):
                exact_a_cw(n, 2, w)
        assert len(counts) == 21 + 21 + 44
        assert all(m == listed for m, listed in counts)

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
        "n, d, cap, status, nodes, value, digest",
        # P(6,4) closes at the root under any cap; P(6,5)'s witness is a
        # dive's 17, past the 16 its first 3,000 nodes find
        [(6, 4, 700, STATUS_EXACT, 1, 120, "8a0bb0c71052f2ab"),
         (6, 5, 3000, STATUS_INCOMPLETE, 3001, 17, "9b707811324b7a92")],
    )
    def test_capped_run_is_pinned(self, n, d, cap, status, nodes, value, digest):
        outcome = exact_p(n, d, SearchLimits(max_nodes=cap, max_seconds=None))
        assert (outcome.status, outcome.nodes, outcome.value) == (status, nodes, value)
        assert_verified(outcome, d)
        members = repr(outcome.witness.members).encode()
        assert hashlib.sha256(members).hexdigest()[:16] == digest

    @pytest.mark.parametrize("oracle, args, value", [
        (exact_p, (5, 4), 20), (exact_p, (6, 4), 120), (exact_p, (7, 6), 42),
        (exact_a_cw, (12, 6, 4), 9), (exact_p_cw, (9, 6, 3), 3),
    ])
    def test_a_dive_that_meets_the_bound_closes_the_root(self, monkeypatch, oracle, args, value):
        # the bounds are 5!/3!, 6!/3! and 7!/5! with the identity, Johnson's
        # 12/4 * 11/3 and 9/3 by disjoint 3-cycles; before the dives these
        # took 19, 83,574, more than 2,000,000, 9 and 2 nodes. The P cells
        # run with their built family routed away, which would close them
        # before any dive; P(8,6)'s certificate is the family's alone
        # (``TestFamilyCertificate``), as its dive spent 1.5 s on the
        # conflict masks of 37,085 vertices
        monkeypatch.setattr(search, "_perfect_family", lambda n, d: None)
        outcome = oracle(*args)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, value, 1)
        assert list(outcome.seconds) == ["listing", "conflict_masks", "search"]
        assert outcome.pruned == ()
        assert_verified(outcome, args[1])

    def test_the_longest_dive_is_a_floor(self):
        # the search's own witness after 5,000 nodes has 272 members (as
        # P(6,5)'s after 3,000 has 16, pinned above at a dive's 17); a dive
        # from a later root orbit finds 298, and is returned instead
        outcome = exact_p(7, 4, SearchLimits(max_nodes=5000, max_seconds=None))
        assert (outcome.status, outcome.nodes, outcome.value) == (STATUS_INCOMPLETE, 5001, 298)
        assert_verified(outcome, 4)

    @pytest.mark.parametrize("oracle, args, value, nodes, pruned", [
        (exact_a_cw, (11, 6, 4), 6, 1, ()),
        (exact_a_cw, (10, 4, 3), 13, 13, ()),
        (exact_a_cw, (12, 6, 5), 12, 5191, (791, 543, 354, 262, 380, 419, 30)),
        (exact_p_cw, (6, 4, 4), 45, 83, (44, 2, 15, 15)),
        (exact_p_cw, (7, 6, 4), 7, 11, (313, 172)),
        (exact_p_cw, (9, 7, 4), 3, 1, ()),
        (exact_p, (6, 5, SearchLimits(20000, None)), 17, 20001, (0, 0, 1)),
        (exact_p, (7, 5, SearchLimits(20000, None)), 60, 20001, ()),
    ])
    def test_dives_leave_the_tree_alone(self, oracle, args, value, nodes, pruned):
        # the dives that do not meet the bound change no node: the
        # incumbent is still the first dive, the plain greedy clique. A
        # tree stops where its incumbent meets the bound: A(11,6,4)'s one
        # dive meets Johnson's 1962 bound 33/5, P(9,7,4)'s first meets
        # A(9,6,4)'s 27/7, and A(10,4,3) meets the ceiling 10/3 * 4 at node
        # 13; they took 6, 183 and 151 nodes to the same witnesses without
        # the stop
        outcome = oracle(*args)
        assert (outcome.value, outcome.nodes, outcome.pruned) == (value, nodes, pruned)
        assert_verified(outcome, args[1])

    def test_orbit_pruned_runs_are_pinned(self, monkeypatch):
        # all words share one orbit, so the root branches once, and each
        # depth below keeps one word per orbit of the Young subgroup; with
        # root pruning alone the search took 4,616 nodes, with none 315,491,
        # to the same witness. Run without its upper bound, since the dive
        # meets Johnson's 1962 bound and closes the root at once
        outcome = _without_bound(monkeypatch, exact_a_cw, 11, 6, 4)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 6, 6)
        assert outcome.pruned == (329, 173, 53, 15)
        words = repr(outcome.witness.words).encode()
        assert hashlib.sha256(words).hexdigest()[:16] == "3f501d4b975ed080"
        outcome = exact_a_cw(11, 6, 4)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 6, 1)
        assert outcome.pruned == ()
        words = repr(outcome.witness.words).encode()
        assert hashlib.sha256(words).hexdigest()[:16] == "3f501d4b975ed080"
        # P(6,4,2) meets its bound 6/2 with the first dive, so the root
        # closes without the branch that pruned the other 14 transpositions
        outcome = exact_p_cw(6, 4, 2)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 3, 1)
        assert outcome.pruned == ()
        members = repr(outcome.witness.members).encode()
        assert hashlib.sha256(members).hexdigest()[:16] == "abdcd152015e27f6"
        # derangements of 6 points have four cycle types, so the root comes
        # back to later orbits; root pruning alone took 14,163 nodes, and
        # unpruned, 20,000 nodes do not finish it
        outcome = exact_p_cw(6, 4, 6)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, 50, 746)
        assert outcome.pruned == (261, 277, 111, 34, 4)
        members = repr(outcome.witness.members).encode()
        assert hashlib.sha256(members).hexdigest()[:16] == "f91577237e20af4b"


def _without_bound(monkeypatch, oracle, *args):
    """The oracle's search with no upper bound: its group, but no built
    family, dive or incumbent closes the tree before it runs to the end."""
    solve = search._solve

    def solve_unbounded(m, vertices, d, limits, symmetry, witness, upper=None):
        return solve(m, vertices, d, limits, symmetry, witness)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        patch.setattr(search, "_solve", solve_unbounded)
        return oracle(*args)


def _one_orbit_per_vertex(monkeypatch, oracle, *args):
    """The oracle's search without orbit pruning: the trivial group (None),
    so each node drops only the vertex it branched on, and no built family
    or upper bound, so the tree runs to the end whatever the greedy clique
    finds."""
    solve = search._solve

    def solve_unpruned(m, vertices, d, limits, symmetry, witness, upper=None):
        return solve(m, vertices, d, limits, lambda rows: None, witness)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        patch.setattr(search, "_solve", solve_unpruned)
        return oracle(*args)


class _RootOnly:
    """Given orbit masks at the root and no stabiliser below it: a sound
    rule for any group with these orbits, and any partition of the vertices
    for the tree tests below."""

    def __init__(self, orbit):
        self.masks = orbit

    def fix(self, v):
        return None

    def orbit(self, v):
        return self.masks[v]


class _Affine:
    """The maps x -> s*x + t of Z_m listed in ``maps`` as (s, t) pairs."""

    def __init__(self, m, maps):
        self.m, self.maps = m, maps

    @classmethod
    def of(cls, m, maps):
        """The group of the given maps, or None when it is trivial."""
        return cls(m, maps) if len(maps) > 1 else None

    def fix(self, v):
        return self.of(self.m, [(s, t) for s, t in self.maps if (s * v + t) % self.m == v])

    def orbit(self, v):
        return sum(1 << u for u in {(s * v + t) % self.m for s, t in self.maps})


class _Recording:
    """A group that logs each call the search makes to it, and to the
    subgroups it hands out, in one shared list: the call's name and the
    group that answered it."""

    def __init__(self, group, calls):
        self.group, self.calls = group, calls

    def fix(self, v):
        self.calls.append(("fix", self.group))
        child = self.group.fix(v)
        return None if child is None else _Recording(child, self.calls)

    def orbit(self, v):
        self.calls.append(("orbit", self.group))
        return self.group.orbit(v)


def _recorded(monkeypatch, oracle, *args):
    """The oracle's root group, wrapped in a ``_Recording`` as the search
    gets it. The wrapper goes round ``_solve``'s group factory, since a
    patched class name would also wrap the subgroups the class builds."""
    solve, recorded = search._solve, []

    def recording_solve(m, blocks, d, limits, symmetry, witness, upper=None):
        def build(rows):
            recorded.append(_Recording(symmetry(rows), []))
            return recorded[-1]
        return solve(m, blocks, d, limits, build, witness, upper)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        patch.setattr(search, "_solve", recording_solve)
        oracle(*args)
    return recorded[-1]


def _root_only_max_clique(conflicts, orbit_masks, max_nodes, deadline):
    """The search as it was when only the root pruned orbits: the reference
    for the rule at every depth. ``orbit_masks()[v]`` is v's orbit under the
    whole group."""
    best = _greedy_clique(conflicts)
    conflict_at, bit_at = _bit_length_tables(conflicts)
    orbit = []
    nodes = 0
    stack = []
    current = []
    cand, order = 0, []
    sub = (1 << len(conflicts)) - 1
    while True:
        if sub:
            nodes += 1
            if nodes > max_nodes or (nodes & 255 == 1 and time.monotonic() > deadline):
                return best, False, nodes
            stack.append((cand, order))
            kmin = len(best) - len(current) + 1
            cand = sub
            order = (_decoded(_color_order(sub, conflict_at, bit_at, kmin))
                     if sub.bit_count() >= kmin else [])
            sub = 0
            continue
        if order and len(current) + order[-1][0] > len(best):
            v = order.pop()[1]
            cand ^= 1 << v
            current.append(v)
            sub = cand ^ (cand & conflicts[v])
            if sub:
                continue
            if len(current) > len(best):
                best = current.copy()
        elif current:
            cand, order = stack.pop()
        else:
            return best, True, nodes
        v = current.pop()
        if not current:
            orbit = orbit or orbit_masks()
            cand ^= cand & orbit[v]
            order = [(k, u) for k, u in order if cand >> u & 1]


def _decoded(order):
    """(color, vertex) pairs of a color order's codes."""
    return [(code >> 17, code & (1 << 17) - 1) for code in order]


def _bit_length_tables(conflicts):
    """The tables ``_color_order`` reads, indexed by ``bit_length()``:
    vertex v's conflict mask and ``1 << v`` at v + 1, entry 0 unused."""
    return [0, *conflicts], [0, *(1 << v for v in range(len(conflicts)))]


# A(n,d,w) for n <= 10, w <= n/2 and even d <= 2w, except the five whose
# unpruned tree runs past 20,000 nodes: (9,4,4), (10,4,3), (10,4,4),
# (10,4,5) and (10,6,5)
_ACW_CASES = [
    (n, d, w)
    for n in range(2, 11)
    for w in range(1, n // 2 + 1)
    for d in range(2, 2 * w + 1, 2)
    if (n, d, w) not in {(9, 4, 4), (10, 4, 3), (10, 4, 4), (10, 4, 5), (10, 6, 5)}
]
# the cases the other tests search, four whose members have several cycle
# types, and two on 9 points, past the listed S_n, whose root orbits are
# the cycle types
_PCW_CASES = sorted(
    {(n, 2 * k, k) for n in range(4, 9) for k in range(2, min(4, n // 2) + 1)}
    | {(6, 4, 2), (4, 1, 0)}
    | {(n, 2 * k + 1, k + 1) for n, k in [(5, 1), (6, 1), (7, 1), (7, 2)]}
    | {(5, 4, 5), (6, 4, 3), (6, 5, 4), (7, 6, 4)}
    | {(9, 6, 3), (9, 7, 4)}
)
_P_CASES = [(n, d) for n in range(1, 6) for d in range(1, n + 1)] + [(6, 2), (6, 3), (6, 6)]


@st.composite
def shift_invariant_graphs(draw, signs=((1,),)):
    """A random graph on Z_m with the maps x -> s*x + t (s in one of the sign
    sets ``signs``, t a multiple of r, r dividing m) among its automorphisms,
    and that group (None when it is trivial)."""
    r = draw(st.integers(1, 8))
    m = r * draw(st.integers(1, 40 // r))
    maps = [(s, t) for s in draw(st.sampled_from(signs)) for t in range(0, m, r)]
    adjacency = [0] * m
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=4 * m)):
        for s, t in maps:
            a, b = (s * i + t) % m, (s * j + t) % m
            if a != b:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return adjacency, _Affine.of(m, maps)


def _assert_clique(adjacency, clique):
    for u, v in itertools.combinations(clique, 2):
        assert adjacency[u] >> v & 1


class TestOrbitPruning:
    """Pruning stabiliser orbits at every depth keeps the value: checked
    against the same search with the trivial group, which is the unpruned
    tree, and against the search that pruned at the root alone."""

    def _assert_same_value(self, pruned, unpruned, d):
        assert pruned.status == unpruned.status == STATUS_EXACT
        assert pruned.value == unpruned.value
        assert pruned.nodes <= unpruned.nodes
        assert unpruned.pruned == ()
        assert_verified(pruned, d)
        assert_verified(unpruned, d)

    @pytest.mark.parametrize("n, d", _P_CASES)
    def test_exact_p(self, monkeypatch, n, d):
        unpruned = _one_orbit_per_vertex(monkeypatch, exact_p, n, d)
        self._assert_same_value(exact_p(n, d), unpruned, d)

    @pytest.mark.parametrize("n, d, w", _PCW_CASES)
    def test_exact_p_cw(self, monkeypatch, n, d, w):
        unpruned = _one_orbit_per_vertex(monkeypatch, exact_p_cw, n, d, w)
        self._assert_same_value(exact_p_cw(n, d, w), unpruned, d)

    @pytest.mark.parametrize("n, d, w", _ACW_CASES)
    def test_exact_a_cw(self, monkeypatch, n, d, w):
        unpruned = _one_orbit_per_vertex(monkeypatch, exact_a_cw, n, d, w)
        self._assert_same_value(exact_a_cw(n, d, w), unpruned, d)

    @staticmethod
    def _capture(monkeypatch, oracle, args):
        """The oracle's group, given its vertices in search order, and those
        vertices."""
        seen = {}

        def capture(m, blocks, d, limits, symmetry, witness, upper=None):
            rows = np.concatenate(list(blocks))[::-1]
            seen["vectors"] = [tuple(vector) for vector in rows.tolist()]
            seen["group"] = symmetry(rows)
            return SearchOutcome(STATUS_EXACT, witness(rows[:0]))

        with monkeypatch.context() as patch:
            patch.setattr(search, "_perfect_family", lambda n, d: None)
            patch.setattr(search, "_solve", capture)
            oracle(*args)
        return seen["group"], seen["vectors"]

    @staticmethod
    def _act(act, n):
        """The images of a vertex under the named action: conjugation by S_n,
        with or without inversion first, or permuting the coordinates."""
        group = [(s, [s.index(i) for i in range(n)]) for s in itertools.permutations(range(n))]

        def images(v):
            inverse = [v.index(i) for i in range(n)] if act == "conjugate" else None
            found = set()
            for s, s_inverse in group:
                if act == "conjugate":
                    found.add(tuple(s_inverse[v[s[i]]] for i in range(n)))
                    found.add(tuple(s_inverse[inverse[s[i]]] for i in range(n)))
                else:
                    found.add(tuple(v[s[i]] for i in range(n)))
            return found

        return images

    @pytest.mark.parametrize(
        "oracle, args, act",
        [(exact_p, (5, d), "conjugate") for d in range(1, 6)]
        + [(exact_p_cw, (5, 2, w), "conjugate") for w in (0, 2, 3, 4, 5)]
        + [(exact_a_cw, (6, 2, w), "permute") for w in range(4)],
    )
    def test_labels_are_the_orbits(self, monkeypatch, oracle, args, act):
        # the orbits of the whole group are exactly those of the group the
        # oracle names: conjugation by S_n and inversion, or permuting the
        # coordinates
        group, vectors = self._capture(monkeypatch, oracle, args)
        images = self._act(act, args[0])
        for i, vector in enumerate(vectors):
            orbit = group.orbit(i)
            assert {vectors[u] for u in range(len(vectors)) if orbit >> u & 1} == images(vector)

    @pytest.mark.parametrize(
        "oracle, args, act",
        [(exact_p, (4, 2), "conjugate"), (exact_p, (5, 4), "conjugate"),
         (exact_p_cw, (5, 2, 4), "conjugate"), (exact_p_cw, (6, 2, 4), "conjugate"),
         (exact_a_cw, (6, 2, 3), "permute"), (exact_a_cw, (7, 2, 3), "permute")],
    )
    def test_stabilisers_are_the_pointwise_stabilisers(self, monkeypatch, oracle, args, act):
        # along a few chains of vertices, each stabiliser's orbits are the
        # orbits of the maps of the named group that fix every vertex so
        # far, and the group is None exactly when they are all single
        group, vectors = self._capture(monkeypatch, oracle, args)
        n = args[0]
        if act == "conjugate":
            maps = [(s, flip) for s in itertools.permutations(range(n)) for flip in (False, True)]

            def image(f, v):
                s, flip = f
                x = [v.index(i) for i in range(n)] if flip else v
                return tuple(s[x[s.index(i)]] for i in range(n))
        else:
            maps = list(itertools.permutations(range(n)))

            def image(f, v):
                return tuple(v[f.index(i)] for i in range(n))

        rng = random.Random(repr(args))
        for _ in range(4):
            stab, fixing = group, maps
            for v in rng.sample(range(len(vectors)), min(4, len(vectors))):
                stab = None if stab is None else stab.fix(v)
                fixing = [f for f in fixing if image(f, vectors[v]) == vectors[v]]
                moved = False
                for u, vector in enumerate(vectors):
                    expected = {image(f, vector) for f in fixing}
                    moved |= len(expected) > 1
                    orbit = 1 << u if stab is None else stab.orbit(u)
                    assert {vectors[k] for k in range(len(vectors)) if orbit >> k & 1} == expected
                assert (stab is not None) == moved

    def test_cycle_types_past_the_listed_degree(self, monkeypatch):
        # S_9 is not listed: the whole group's orbits are the cycle types,
        # and the stabilisers below it are taken as trivial
        group, vectors = self._capture(monkeypatch, exact_p_cw, (9, 2, 4))
        types = [cycle_type(vector) for vector in vectors]
        classes = {}
        for u, shape in enumerate(types):
            classes[shape] = classes.get(shape, 0) | 1 << u
        for i, shape in enumerate(types):
            assert group.orbit(i) == classes[shape]
            assert group.fix(i) is None

    @pytest.mark.parametrize("n, w", [(n, None) for n in range(1, 9)] + [(9, 4), (12, 5), (30, 3)])
    def test_root_orbits_are_the_cycle_types(self, n, w):
        # the root's orbits, read from each point's cycle length, partition
        # S_n or a weight class as ``perm.cycle_type`` does: each type's
        # vertices are the level set of any one of them
        rows = np.concatenate(list(permutation_rows(n, 0) if w is None else weight_rows(n, w)))
        root = search._CycleTypes(rows)
        classes = {}
        for u, vector in enumerate(rows.tolist()):
            classes.setdefault(cycle_type(vector), []).append(u)
        for members in classes.values():
            assert root.orbit(members[-1]) == sum(1 << u for u in members)

    def test_root_group_and_dive_orbits_come_first(self, monkeypatch):
        # one orbit per dive comes first: P(6,5) has six root orbits. All
        # 3,000 nodes lie inside the first root branch, and every node the
        # search returns to has a trivial stabiliser: the chain of
        # stabilisers down to the first trivial one is built once, on the
        # first return, and no orbit is computed
        root = _recorded(monkeypatch, exact_p, 6, 5, SearchLimits(max_nodes=3000, max_seconds=None))
        names = [name for name, _ in root.calls]
        assert names[:6] == ["orbit"] * 6
        assert set(names[6:]) == {"fix"} and len(names) <= 11
        # the first dive meets the bound 6/2 and closes the root: no call
        assert _recorded(monkeypatch, exact_p_cw, 6, 4, 2).calls == []

    @pytest.mark.parametrize("oracle, args, kind, calls", [
        (exact_p, (6, 4, SearchLimits(700, None)), "_CycleTypes", (0, 1, 1)),
        (exact_p, (6, 5, SearchLimits(3000, None)), "_CycleTypes", (3, 6, 6)),
        (exact_p, (6, 5, SearchLimits(20000, None)), "_CycleTypes", (4, 7, 6)),
        (exact_p, (5, 4), "_CycleTypes", (0, 1, 1)),
        (exact_a_cw, (11, 6, 4), "_Young", (0, 0, 0)),
        (exact_a_cw, (10, 4, 3), "_Young", (0, 1, 1)),
        (exact_a_cw, (12, 6, 5), "_Young", (310, 759, 2)),
        (exact_p_cw, (6, 4, 2), "_CycleTypes", (0, 0, 0)),
        (exact_p_cw, (9, 6, 3), "_CycleTypes", (0, 0, 0)),
        (exact_p_cw, (6, 4, 6), "_CycleTypes", (56, 133, 8)),
    ])
    def test_group_calls_are_pinned(self, monkeypatch, oracle, args, kind, calls):
        # how often a search asks for a stabiliser and an orbit, and how
        # many of the orbits its root group answers: an orbit per root
        # orbit for the dives, a stabiliser on the first return to a node
        # below a non-trivial one, and an orbit on each return to a node
        # whose stabiliser is not trivial. A dive that meets the bound ends
        # the search, so P(6,4) and P(5,4) close on their second dive, and
        # P(6,4,2), P(9,6,3) and A(11,6,4) on their first; A(10,4,3)'s
        # incumbent meets it at node 13, before any return. The dives' and
        # the root returns' orbits are the root group's, read from its
        # invariant rows; only deeper orbits map vertices under S_n. The
        # capped P(6,5) runs never leave the first root branch, A(12,6,5)'s
        # one root orbit is asked by the dive and on the one return to the
        # root, and P(6,4,6) makes four dives and returns to the root four
        # times
        root = _recorded(monkeypatch, oracle, *args)
        names = [name for name, _ in root.calls]
        assert type(root.group).__name__ == kind
        answered = [group for name, group in root.calls if name == "orbit"]
        at_root = sum(group is root.group for group in answered)
        assert (names.count("fix"), names.count("orbit"), at_root) == calls
        assert all(type(group).__name__ == ("_Young" if kind == "_Young" else "_Centraliser")
                   for group in answered if group is not root.group)

    @settings(deadline=None)
    @given(shift_invariant_graphs())
    def test_trivial_stabilisers_cost_nothing(self, case):
        # the shifts fix no vertex, so the root's group is the only one:
        # every call is an orbit at the root (for a dive or a return) or the
        # stabiliser of one root branch, found trivial at once
        adjacency, group = case
        calls = []
        root = None if group is None else _Recording(group, calls)
        _, done, _, _ = _max_clique(_conflicts_of(adjacency), root, math.inf, math.inf)
        assert done
        assert all(stab is group for _, stab in calls)
        names = [name for name, _ in calls]
        assert names.count("fix") <= names.count("orbit") + 1

    def test_one_orbit_per_vertex_prunes_nothing(self, monkeypatch):
        # plain branch and bound takes 4 nodes on P(6,4,2), pruning 2
        assert _one_orbit_per_vertex(monkeypatch, exact_p_cw, 6, 4, 2).nodes == 4

    @settings(deadline=None)
    @given(shift_invariant_graphs())
    def test_matches_unpruned_search_on_shift_invariant_graphs(self, case):
        adjacency, group = case
        conflicts = _conflicts_of(adjacency)
        pruned, done, _, _ = _max_clique(conflicts, group, math.inf, math.inf)
        unpruned, done_too, _, nothing = _max_clique(conflicts, None, math.inf, math.inf)
        assert done and done_too
        assert nothing == ()
        assert len(pruned) == len(unpruned)
        _assert_clique(adjacency, pruned)

    @settings(deadline=None, max_examples=300)
    @given(shift_invariant_graphs(signs=((1,), (1, -1))))
    def test_matches_root_only_search_on_reflection_invariant_graphs(self, case):
        # with x -> -x + t in the group, a vertex's stabiliser holds a
        # reflection, and at even m two vertices half the cycle apart keep
        # one too
        adjacency, group = case
        m = len(adjacency)
        conflicts = _conflicts_of(adjacency)
        masks = [1 << v if group is None else group.orbit(v) for v in range(m)]
        pruned, done, _, counts = _max_clique(conflicts, group, math.inf, math.inf)
        reference, done_too, _ = _root_only_max_clique(
            conflicts, lambda: masks, math.inf, math.inf)
        assert done and done_too
        assert len(pruned) == len(reference)
        _assert_clique(adjacency, pruned)
        # the root branches as it did, since each root branch ends with the
        # same incumbent size, so it prunes as much as before
        _, _, _, root_counts = _max_clique(conflicts, _RootOnly(masks), math.inf, math.inf)
        assert sum(counts[:1]) == sum(root_counts)


def _with_and_without_bound(monkeypatch, oracle, *args):
    """What ``_max_clique`` returns for the oracle's search on the same
    conflict masks and root group, without an upper bound and then with the
    oracle's. A built family would certify ``exact_p``'s cell before any
    search, so it is routed past the family to the tree."""
    runs = []
    max_clique = search._max_clique

    def both(conflicts, root, max_nodes, deadline, upper=None):
        runs.append(max_clique(conflicts, root, max_nodes, deadline))
        runs.append(max_clique(conflicts, root, max_nodes, deadline, upper))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        patch.setattr(search, "_max_clique", both)
        oracle(*args)
    return runs


class TestBoundStop:
    """A search ends when a dive or its incumbent meets the oracle's upper
    bound. That changes no answer: a later incumbent could only be larger,
    and none can pass the bound, so the whole tree returns the same clique,
    and the stop can only save nodes."""

    @staticmethod
    def _assert_same_answer(monkeypatch, oracle, *args):
        """Both runs certify; the bounded one returns the same clique, in
        no more nodes, and the (bounded, unbounded) node counts."""
        unbounded, bounded = _with_and_without_bound(monkeypatch, oracle, *args)
        clique, exhausted, nodes, _ = bounded
        assert exhausted and unbounded[1]
        if nodes == 1:
            # closed at the root by a dive, which may start from a later
            # root orbit than the incumbent the whole tree grows from
            assert len(clique) == len(unbounded[0])
        else:
            assert sorted(clique) == sorted(unbounded[0])
        assert nodes <= unbounded[2]
        return nodes, unbounded[2]

    @pytest.mark.parametrize("oracle, args, nodes", [
        (exact_a_cw, (8, 4, 3), (14, 16)),
        (exact_a_cw, (9, 4, 3), (22, 24)),
        (exact_a_cw, (10, 4, 3), (13, 151)),
        (exact_p_cw, (8, 5, 3), (34, 51)),
        (exact_p_cw, (9, 5, 3), (26, 4005)),
    ])
    def test_trees_that_stop_mid_way(self, monkeypatch, oracle, args, nodes):
        # the incumbent meets the Johnson ceiling inside the tree
        assert self._assert_same_answer(monkeypatch, oracle, *args) == nodes

    @pytest.mark.parametrize("n, d", _P_CASES)
    def test_exact_p(self, monkeypatch, n, d):
        self._assert_same_answer(monkeypatch, exact_p, n, d)

    @pytest.mark.parametrize("n, d, w", _PCW_CASES)
    def test_exact_p_cw(self, monkeypatch, n, d, w):
        self._assert_same_answer(monkeypatch, exact_p_cw, n, d, w)

    @pytest.mark.parametrize("n, d, w", _ACW_CASES)
    def test_exact_a_cw(self, monkeypatch, n, d, w):
        self._assert_same_answer(monkeypatch, exact_a_cw, n, d, w)


def _handed_over(monkeypatch, oracle, *args):
    """The row blocks an oracle hands the search, as the list of their rows."""
    handed = []

    def capture(m, blocks, d, limits, symmetry, witness, upper=None):
        blocks = list(blocks)
        assert blocks and all(block.ndim == 2 and block.dtype.kind == "i" for block in blocks)
        handed.extend(np.concatenate(blocks).tolist())
        return SearchOutcome(STATUS_EXACT, witness(blocks[0][:0]))

    with monkeypatch.context() as patch:
        patch.setattr(search, "_perfect_family", lambda n, d: None)
        patch.setattr(search, "_solve", capture)
        oracle(*args)
    return handed


class TestVertexSources:
    """Each oracle's row blocks list, row for row, its vertices as naive
    references list them: S_n in lexicographic order filtered by weight, a
    weight class support first, and the words of a weight in
    ``itertools.combinations`` order."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exact_p(self, monkeypatch, n):
        perms = list(itertools.permutations(range(n)))
        for d in range(1, n + 1):
            expected = [list(p) for p in perms if weight(p) >= d]
            assert _handed_over(monkeypatch, exact_p, n, d) == expected

    @pytest.mark.parametrize("n, d, w", _PCW_CASES)
    def test_exact_p_cw(self, monkeypatch, n, d, w):
        perms = (p for p in itertools.permutations(range(n)) if weight(p) == w)
        expected = [list(p) for p in sorted(perms, key=lambda p: (support(p), p))]
        assert _handed_over(monkeypatch, exact_p_cw, n, d, w) == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exact_a_cw(self, monkeypatch, n):
        for w in range(n + 1):
            expected = list(indicator_vectors(n, itertools.combinations(range(n), w)))
            assert _handed_over(monkeypatch, exact_a_cw, n, 2, w) == expected


class TestPhaseSeconds:
    @pytest.mark.parametrize(
        "oracle, args, phases",
        [(exact_p, (6, 4, SearchLimits(700, None)), ["family"]),
         (exact_p_cw, (6, 4, 6), ["listing", "conflict_masks", "search"]),
         (exact_a_cw, (8, 4, 3), ["listing", "conflict_masks", "search"]),
         (exact_p, (6, 2, SearchLimits(10, None)), ["greedy"]),
         (exact_a_cw, (9, 4, 4, SearchLimits(None, 0.0)), ["greedy"]),
         (exact_p, (6, 5, SearchLimits(700, None)), ["listing", "conflict_masks", "search"])],
    )
    def test_phases_fit_in_the_call(self, oracle, args, phases):
        start = time.perf_counter()
        outcome = oracle(*args)
        wall = time.perf_counter() - start
        assert list(outcome.seconds) == phases
        assert all(seconds >= 0 for seconds in outcome.seconds.values())
        assert sum(outcome.seconds.values()) <= wall

    def test_seconds_take_no_part_in_equality(self):
        outcome = exact_p(5, 4)
        assert outcome == dataclasses.replace(outcome, seconds={"search": 1e9})


def _conflicts_of(adjacency):
    """Conflict masks of the graph with the given neighbor masks: every other
    vertex that is not a neighbor."""
    everything = (1 << len(adjacency)) - 1
    return [everything ^ neighbors ^ 1 << v for v, neighbors in enumerate(adjacency)]


def _reference_color_order(cand, adjacency):
    """First-fit coloring one vertex at a time: each vertex, in descending
    index order, joins the first class holding none of its neighbors. Listed
    class by class, descending within a class, as the search colors them."""
    classes = []
    order = []
    for v in reversed(range(cand.bit_length())):
        if not cand >> v & 1:
            continue
        neighbors = adjacency[v]
        for i, cls in enumerate(classes):
            if not neighbors & cls:
                classes[i] = cls | 1 << v
                order.append((i + 1, v))
                break
        else:
            classes.append(1 << v)
            order.append((len(classes), v))
    order.sort(key=lambda kv: (kv[0], -kv[1]))
    return order


def _random_graph(draw, m):
    """Neighbor masks of a graph on m vertices, each edge drawn with one
    random density."""
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adjacency = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


@st.composite
def coloring_cases(draw, least=0, most=64):
    m = draw(st.integers(least, most))
    adjacency = _random_graph(draw, m)
    cand = draw(st.integers(0, (1 << m) - 1))
    kmin = draw(st.integers(1, m + 2))
    return adjacency, cand, kmin


def _assert_first_fit(adjacency, cand, kmin):
    conflict_at, bit_at = _bit_length_tables(_conflicts_of(adjacency))
    reference = _reference_color_order(cand, adjacency)
    full = _color_order(cand, conflict_at, bit_at, 1)
    assert isinstance(full, array) and full.typecode == "q"
    assert _decoded(full) == reference
    assert _decoded(_color_order(cand, conflict_at, bit_at, kmin)) == [
        (k, v) for k, v in reference if k >= kmin
    ]


class TestColorOrder:
    @settings(deadline=None)
    @given(coloring_cases())
    def test_matches_first_fit_reference(self, case):
        _assert_first_fit(*case)

    @settings(deadline=None, max_examples=20)
    @given(coloring_cases(257, 700))
    def test_matches_first_fit_reference_past_256_vertices(self, case):
        # vertex numbers and bit lengths past 256 are ints of their own, and
        # each code must still decode to its vertex, not its bit length
        _assert_first_fit(*case)


# The neighbor-mask search, lowest index first, as it was before the graph
# was stored as conflict masks: the reference for the search tree.
def _neighbor_greedy_clique(adjacency, start=0):
    chosen = []
    allowed = (1 << len(adjacency)) - 1
    v = start
    while allowed:
        chosen.append(v)
        allowed &= adjacency[v]
        v = (allowed & -allowed).bit_length() - 1
    return chosen


def _neighbor_color_order(cand, adjacency, kmin):
    order = []
    k = 0
    while cand:
        k += 1
        keep = k >= kmin
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cand ^= low
            q &= ~(adjacency[v] | low)
            if keep:
                order.append((k, v))
    return order


def _neighbor_max_clique(adjacency, orbit, max_nodes):
    m = len(adjacency)
    # one dive from the lowest-index vertex of each root orbit; the first is
    # the incumbent, and the longest is returned where it beats a capped run
    dives = []
    rest = (1 << m) - 1
    while rest:
        v = (rest & -rest).bit_length() - 1
        dives.append(_neighbor_greedy_clique(adjacency, v))
        rest &= ~orbit[v]
    best = dives[0] if dives else []
    floor = max(dives, key=len, default=best)
    if not m:
        return best, True, 0
    nodes = 1
    if nodes > max_nodes:
        return max(best, floor, key=len), False, nodes
    root = (1 << m) - 1
    root_order = _neighbor_color_order(root, adjacency, len(best) + 1) if m > len(best) else []
    while root_order and root_order[-1][0] > len(best):
        branch = root_order.pop()[1]
        sub = root & adjacency[branch]
        current = [branch]
        stack = [(0, [])]
        cand, order = 0, []
        while True:
            if sub:
                nodes += 1
                if nodes > max_nodes:
                    return max(best, floor, key=len), False, nodes
                stack.append((cand, order))
                kmin = len(best) - len(current) + 1
                cand = sub
                order = _neighbor_color_order(sub, adjacency, kmin) if sub.bit_count() >= kmin else []
                sub = 0
            elif order and len(current) + order[-1][0] > len(best):
                v = order.pop()[1]
                cand ^= 1 << v
                current.append(v)
                sub = cand & adjacency[v]
                if not sub:
                    if len(current) > len(best):
                        best = current.copy()
                    current.pop()
            elif current:
                cand, order = stack.pop()
                current.pop()
            else:
                break
        root &= ~orbit[branch]
        root_order = [(k, u) for k, u in root_order if root >> u & 1]
    return best, True, nodes


@st.composite
def search_cases(draw):
    """A random graph on m <= 64 vertices, orbit masks that are the residue
    classes mod r, and a node cap (None for no cap)."""
    m = draw(st.integers(0, 64))
    adjacency = _random_graph(draw, m)
    r = draw(st.integers(1, max(m, 1)))
    orbit = [sum(1 << u for u in range(v % r, m, r)) for v in range(m)]
    max_nodes = draw(st.one_of(st.none(), st.integers(1, 200)))
    return adjacency, orbit, max_nodes


def _childless_root_branch():
    """A graph whose later root branch has no candidates below it: that
    branch must still clear its orbit (the residue class mod 2) from the
    root, or the search opens 3 nodes where the reference opens 2."""
    edges = [(0, 2), (0, 7), (1, 3), (1, 6), (2, 3), (2, 4), (4, 6), (5, 8), (6, 7), (6, 8)]
    adjacency = [0] * 9
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    orbit = [sum(1 << u for u in range(v % 2, 9, 2)) for v in range(9)]
    return adjacency, orbit, None


def _past_256_vertices():
    """A random graph on 300 vertices, orbits the residue classes mod 3,
    capped at 200 nodes: vertex numbers and bit lengths past 256 are ints
    of their own."""
    rng = random.Random(300)
    adjacency = [0] * 300
    for i, j in itertools.combinations(range(300), 2):
        if rng.random() < 0.5:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    orbit = [sum(1 << u for u in range(v % 3, 300, 3)) for v in range(300)]
    return adjacency, orbit, 200


class TestSearchTreeIdentity:
    """Highest index first on conflict masks over the reversed vertex list
    walks the same tree as lowest index first on neighbor masks."""

    @settings(deadline=None, max_examples=300)
    @given(search_cases())
    @example(_childless_root_branch())
    @example(_past_256_vertices())
    def test_matches_the_neighbor_mask_search(self, case):
        adjacency, orbit, max_nodes = case
        m = len(adjacency)

        def reverse(mask):
            return sum(1 << (m - 1 - u) for u in range(m) if mask >> u & 1)

        reversed_adjacency = [reverse(adjacency[m - 1 - v]) for v in range(m)]
        reversed_orbit = [reverse(orbit[m - 1 - v]) for v in range(m)]
        cap = math.inf if max_nodes is None else max_nodes
        clique, exhausted, nodes, _ = _max_clique(
            _conflicts_of(reversed_adjacency), _RootOnly(reversed_orbit), cap, math.inf
        )
        expected = _neighbor_max_clique(adjacency, orbit, cap)
        assert ([m - 1 - v for v in clique], exhausted, nodes) == expected


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
        assert tuple(outcome.witness) == (Permutation(range(4)),)

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

    def test_certifies_a_12_6_4(self):
        outcome = exact_a_cw(12, 6, 4)
        assert outcome.status == STATUS_EXACT
        assert outcome.value == 9
        assert outcome.witness.violations(6) == []

    @pytest.mark.parametrize(
        "n, d, w, value, nodes",
        [(12, 6, 5, 12, 5191), (10, 4, 3, 13, 13), (11, 4, 3, 17, 455), (10, 4, 4, 30, 77193)],
    )
    def test_certifies_past_root_pruning(self, n, d, w, value, nodes):
        # none of these finished in 300,000 nodes when only the root pruned
        outcome = exact_a_cw(n, d, w)
        assert (outcome.status, outcome.value, outcome.nodes) == (STATUS_EXACT, value, nodes)
        assert outcome.witness.violations(d) == []

    @pytest.mark.parametrize("n, k", sorted(
        {(n, d // 2) for n, d, w in _ACW_CASES if w == d // 2 + 1}
        | {(10, 2), (11, 2), (11, 3), (12, 3)}))
    def test_johnson_1962_holds_for_certified_values(self, monkeypatch, n, k):
        # certified with no upper bound, so that the bound under test cannot
        # end the search that tests it
        outcome = _without_bound(monkeypatch, exact_a_cw, n, 2 * k, k + 1)
        assert outcome.status == STATUS_EXACT
        assert johnson_1962(n, k) is None or johnson_1962(n, k) >= outcome.value
        assert cw_binary_bound(n, 2 * k, k + 1).value >= outcome.value

    def test_lower_bound_only_gate(self):
        outcome = exact_a_cw(10, 4, 5, SearchLimits(max_nodes=3, max_seconds=None))
        assert outcome.status == STATUS_LOWER_BOUND_ONLY
        assert outcome.witness.violations(4) == []


class TestVerification:
    def test_min_distance(self):
        array = PermutationArray(4, [Permutation(range(4)), Permutation((1, 0, 3, 2))])
        assert array.min_distance() == 4

    def test_verify_pa_passes(self):
        array = block_cycle_cwpa(8, 2)
        assert verify_pa(array, 4) == []

    def test_verify_pa_reports_offending_pairs(self):
        close = PermutationArray(4, [Permutation(range(4)), Permutation((1, 0, 2, 3))])
        bad = verify_pa(close, 3)
        assert bad == [(Permutation(range(4)), Permutation((1, 0, 2, 3)), 2)]

    def test_verify_pa_singleton_is_vacuous(self):
        assert verify_pa(PermutationArray(3, [Permutation(range(3))]), 3) == []

    def test_default_limits_are_generous(self):
        assert SearchLimits().max_nodes is None
        assert SearchLimits().max_seconds == 300.0


def _refusal(call, *args):
    """The message of the ``ValueError`` that ``call(*args)`` raises, or
    None when it returns."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestArgumentRules:
    @pytest.mark.parametrize("n", range(-2, 5))
    def test_each_bound_and_its_oracle_share_one_rule(self, n):
        # no search node, so each accepted point costs a greedy pass at most
        limits = SearchLimits(max_nodes=0)
        for d, w in itertools.product(range(-1, n + 3), range(-1, n + 2)):
            for bound, oracle in ((cw_pa_bound, exact_p_cw), (cw_binary_bound, exact_a_cw)):
                message = _refusal(bound, n, d, w)
                assert _refusal(oracle, n, d, w, limits) == message, (bound, n, d, w)
                if n < 1:
                    assert message == f"need n >= 1: {n}", (bound, n, d, w)

"""Permutation type, metric, and enumeration streams."""

import bisect
import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permarray import perm, search
from permarray.constructions import BinaryCwCode, PermutationArray, perfect_pa
from permarray.exactmath import binomial, derangement_count, factorial
from permarray.perm import (
    Permutation,
    _conflict_masks,
    count_pairs_below,
    cycle_type,
    distances,
    hamming_distance,
    pairs_below,
    support,
    weight,
)
from permarray.search import SearchLimits, _greedy_stream, exact_p, verify_pa


def _compose(a, b):
    """a after b: the permutation sending i to a[b[i]]."""
    return Permutation(a[v] for v in b)


def _inverse(a):
    return Permutation(sorted(range(len(a)), key=a.__getitem__))


def _count_below(vectors, d):
    """The pairs below d that ``count_pairs_below`` counts in its one pass."""
    return count_pairs_below(vectors, d)[0]


def _listed(blocks):
    """A row stream's permutations as tuples, in stream order."""
    return list(map(tuple, np.concatenate(list(blocks)).tolist()))


def test_constructor_accepts_bijections():
    assert Permutation((2, 0, 1)) == (2, 0, 1)
    assert Permutation(range(4)) == (0, 1, 2, 3)
    assert Permutation(()) == ()


@pytest.mark.parametrize("bad", [(0, 0, 1), (0, 2), (1, 2, 3), (-1, 0), (0, 1.5)])
def test_constructor_rejects_non_bijections(bad):
    with pytest.raises(ValueError):
        Permutation(bad)


def test_distance_basics():
    assert hamming_distance((0, 1, 2), (0, 2, 1)) == 2
    assert hamming_distance((0, 1, 2), (0, 1, 2)) == 0
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_weight_and_support():
    p = Permutation((1, 0, 2, 4, 3))
    assert weight(p) == 4
    assert support(p) == (0, 1, 3, 4)
    assert weight(Permutation(range(6))) == 0
    assert support(Permutation(range(6))) == ()


def test_cycle_type_examples():
    assert cycle_type(Permutation(())) == ()
    assert cycle_type(Permutation(range(4))) == (1, 1, 1, 1)
    assert cycle_type(Permutation((1, 0, 2, 4, 3))) == (2, 2, 1)
    assert cycle_type(Permutation((1, 2, 0, 4, 3))) == (3, 2)
    assert cycle_type(Permutation((1, 2, 3, 4, 5, 0))) == (6,)


@settings(deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_cycle_type_partitions_n_and_is_conjugation_and_inversion_invariant(pair):
    a, s = map(Permutation, pair)
    shape = cycle_type(a)
    assert sum(shape) == len(a)
    assert all(part >= 1 for part in shape)
    assert list(shape) == sorted(shape, reverse=True)
    assert cycle_type(_compose(_inverse(s), _compose(a, s))) == shape
    assert cycle_type(_inverse(a)) == shape


@pytest.mark.parametrize("n", range(6))
def test_cycle_types_are_the_conjugacy_classes(n):
    group = list(map(Permutation, itertools.permutations(range(n))))
    classes = {}
    for a in group:
        classes.setdefault(cycle_type(a), set()).add(a)
    # one class per partition of n: 1, 1, 2, 3, 5, 7
    assert len(classes) == [1, 1, 2, 3, 5, 7][n]
    for members in classes.values():
        a = min(members)
        assert {_compose(_inverse(s), _compose(a, s)) for s in group} == members


def test_distance_is_weight_of_relative_permutation():
    rng = random.Random(20260819)
    perms = [Permutation(p) for p in itertools.permutations(range(7))]
    for _ in range(1000):
        x, y = rng.choice(perms), rng.choice(perms)
        assert hamming_distance(x, y) == weight(_compose(x, _inverse(y)))


def test_metric_and_left_invariance_samples():
    rng = random.Random(7)
    perms = [Permutation(p) for p in itertools.permutations(range(6))]
    for _ in range(300):
        x, y, z = (rng.choice(perms) for _ in range(3))
        dxy = hamming_distance(x, y)
        assert dxy == hamming_distance(y, x)
        assert (dxy == 0) == (x == y)
        assert dxy <= hamming_distance(x, z) + hamming_distance(z, y)
        # composing on the left with z preserves distance
        assert hamming_distance(_compose(z, x), _compose(z, y)) == dxy


@pytest.mark.parametrize("n", range(2, 6))
def test_no_pair_at_distance_one(n):
    perms = list(itertools.permutations(range(n)))
    for x, y in itertools.combinations(perms, 2):
        assert hamming_distance(x, y) >= 2


@pytest.mark.parametrize("n", range(9))
def test_iterate_all_is_exhaustive_and_lexicographic(n):
    perms = _listed(perm.permutation_rows(n, 0))
    assert all(sorted(p) == list(range(n)) for p in perms)
    assert len(perms) == factorial(n)
    assert perms == sorted(perms)
    assert len(set(perms)) == len(perms)


@pytest.mark.parametrize("n", range(2, 8))
def test_iterate_weight_cardinalities(n):
    for w in [0] + list(range(2, n + 1)):
        stream = _listed(perm.weight_rows(n, w))
        assert all(sorted(p) == list(range(n)) for p in stream)
        assert len(stream) == binomial(n, w) * derangement_count(w)
        assert all(weight(p) == w for p in stream)
        assert len(set(stream)) == len(stream)


def test_iterate_weight_is_support_first():
    for n, w in [(4, 2), (6, 3)]:
        stream = _listed(perm.weight_rows(n, w))
        supports = [support(p) for p in stream]
        assert supports == sorted(supports)
        # and within one support, image tuples ascend
        by_support = itertools.groupby(stream, key=support)
        for _, group in by_support:
            tuples = list(group)
            assert tuples == sorted(tuples)


@pytest.mark.parametrize("list_rows", [1, 5, None])
def test_row_streams_list_the_tuple_streams(monkeypatch, list_rows):
    # at 1 and 5 rows per block, blocks are ragged or empty after the weight
    # filter, and supports with more derangements than that stream them
    if list_rows is not None:
        monkeypatch.setattr(perm, "_LIST_ROWS", list_rows)
    for n in range(7):
        perms = list(itertools.permutations(range(n)))
        for d in range(n + 2):
            blocks = list(perm.permutation_rows(n, d))
            assert blocks and all(block.dtype == np.int8 for block in blocks)
            assert np.concatenate(blocks).tolist() == [list(p) for p in perms if weight(p) >= d]
        for w in [0] + list(range(2, n + 1)):
            blocks = list(perm.weight_rows(n, w))
            assert blocks and all(len(block) <= perm._LIST_ROWS for block in blocks)
            # support first, then lexicographic within a support
            expected = sorted((p for p in perms if weight(p) == w), key=lambda p: (support(p), p))
            assert np.concatenate(blocks).tolist() == [list(p) for p in expected]


# rows per block of permutation_rows on enough points: k! for the largest k
# with k! within _LIST_ROWS
_TAIL_ROWS = {1: 1, 5: 2, 720: 720, perm._LIST_ROWS: 720}


@pytest.mark.parametrize("list_rows", sorted(_TAIL_ROWS))
@pytest.mark.parametrize("n", range(9, 13))
def test_first_blocks_of_large_streams_list_the_tuple_stream(monkeypatch, n, list_rows):
    # one prefix per block: three blocks cover the first 3 k! permutations
    monkeypatch.setattr(perm, "_LIST_ROWS", list_rows)
    covered = list(itertools.islice(itertools.permutations(range(n)), 3 * _TAIL_ROWS[list_rows]))
    for d in (0, 2, n // 2, n):
        blocks = list(itertools.islice(perm.permutation_rows(n, d), 3))
        assert all(block.dtype == np.int8 and len(block) <= list_rows for block in blocks)
        if d == 0:
            assert [len(block) for block in blocks] == [_TAIL_ROWS[list_rows]] * 3
        assert np.concatenate(blocks).tolist() == [list(p) for p in covered if weight(p) >= d]


def test_a_stream_read_once_lists_one_block():
    # S_12 has 479,001,600 members: the first read lists one tail's worth
    block = next(perm.permutation_rows(12, 0))
    assert block.shape == (720, 12) and len(block) <= perm._LIST_ROWS
    assert block[-1].tolist() == list(range(6)) + list(range(11, 5, -1))


def test_row_streams_reject_what_the_tuple_streams_reject():
    with pytest.raises(ValueError):
        next(perm.permutation_rows(-1, 0))
    for w in (1, 6, -1):
        with pytest.raises(ValueError):
            next(perm.weight_rows(5, w))


def _rows_of(blocks):
    """A row stream's permutations as one matrix, in stream order."""
    return np.concatenate(list(blocks))


# Inputs by size for the kernel's block layouts: 256 of S_6's rows, the
# vertices of P(6,4), pgl2 11, the vertices of P(7,4), S_7 and the
# vertices of P(8,6)
_LAYOUT_INPUTS = {
    256: lambda: _rows_of(perm.permutation_rows(6, 0))[:256],
    664: lambda: _rows_of(perm.permutation_rows(6, 4)),
    1320: lambda: perfect_pa("pgl2", 11).rows,
    4948: lambda: _rows_of(perm.permutation_rows(7, 4)),
    5040: lambda: _rows_of(perm.permutation_rows(7, 0)),
    37085: lambda: _rows_of(perm.permutation_rows(8, 6)),
}


def _blocks(vectors, upper=False):
    """The kernel's self form as (start, first_column, block), where
    ``block[r, c]`` is the distance between ``vectors[start + r]`` and
    ``vectors[first_column + c]``: perm's spans read through its column
    loop as agreements, one block computed per read, each subtracted from
    the length here."""
    spans = perm._spans(len(vectors), upper)
    for (start, _, first), (n, agree) in zip(spans, perm._distance_rows((vectors,), spans)):
        yield start, first, n - agree


def test_distance_blocks_match_pairwise():
    # one block, then the seven and eight blocks of the mid-size layout
    for vectors, blocks in [(_rows_of(perm.weight_rows(5, 3)), 1),
                            (_LAYOUT_INPUTS[664](), 7), (_LAYOUT_INPUTS[1320](), 8)]:
        full = np.count_nonzero(vectors[:, None] != vectors[None], axis=2)
        walked = list(_blocks(vectors))
        assert len(walked) == blocks
        assert [start for start, _, _ in walked] == list(
            itertools.accumulate([len(block) for _, _, block in walked[:-1]], initial=0))
        for start, first, block in walked:
            assert first == 0 and block.shape[1] == len(vectors)
            assert np.array_equal(block, full[start:start + len(block)])
        # the reference against the metric: every pair of the small input,
        # 200 pairs of each larger one
        m = len(vectors)
        rng = random.Random(m)
        pairs = itertools.product(range(m), repeat=2) if m < 100 else (
            (rng.randrange(m), rng.randrange(m)) for _ in range(200))
        for i, j in pairs:
            assert full[i, j] == hamming_distance(vectors[i], vectors[j])
    assert list(_blocks([])) == []
    assert _conflict_masks([], 1) == []


@pytest.mark.parametrize("m, rows, blocks", [
    # a whole matrix within a quarter of _BLOCK_BYTES is one block
    (256, 256, 1),
    # above it, about eight blocks of at least that quarter
    (664, 98, 7), (1320, 165, 8),
    # past eight blocks of _BLOCK_BYTES, blocks of _BLOCK_BYTES // m rows
    (4948, 52, 96), (5040, 52, 97), (37085, 7, 5298),
])
def test_block_layout_follows_the_input(m, rows, blocks):
    vectors = _LAYOUT_INPUTS[m]()
    assert len(vectors) == m
    assert rows * m <= perm._BLOCK_BYTES and -(-m // rows) == blocks
    if m * m > 8 * perm._BLOCK_BYTES:
        assert rows == perm._BLOCK_BYTES // m
    # the first blocks only past 100: P(8,6)'s whole walk takes seconds
    walked = itertools.islice(_blocks(vectors, upper=True), 100)
    starts = list(range(0, m, rows))
    assert perm._spans(m, True) == [(start, min(start + rows, m), start) for start in starts]
    for k, (start, first, block) in enumerate(walked):
        assert start == first == starts[k]
        assert block.shape == (min(rows, m - start), m - start)
    assert k == min(blocks, 100) - 1


def _assert_blocks_match(vectors, upper):
    """The kernel's blocks tile the full matrix (or its upper part, diagonal
    included) in row order, and every entry is the pairwise distance."""
    next_row = 0
    for start, first, block in _blocks(vectors, upper):
        assert start == next_row
        assert first == (start if upper else 0)
        assert block.shape[1] == len(vectors) - first
        for r, row in enumerate(block.tolist()):
            for c, value in enumerate(row):
                assert value == hamming_distance(vectors[start + r], vectors[first + c])
        next_row += len(block)
    assert next_row == len(vectors)


def _assert_cross_matches(a, b):
    """The cross form's (len(a), len(b)) block holds every distance from a
    vector of a to a vector of b."""
    block = distances(a, b)
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    assert block.shape == (len(a), len(b))
    assert block.tolist() == [[hamming_distance(x, y) for y in b] for x in a]


@st.composite
def permutation_sets(draw):
    n = draw(st.integers(1, 7))
    perms = draw(st.lists(st.permutations(range(n)), max_size=30, unique_by=tuple))
    return n, [Permutation(p) for p in perms], draw(st.integers(1, n + 1))


@st.composite
def cw_codes(draw):
    n = draw(st.integers(1, 8))
    w = draw(st.integers(0, n))
    words = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), w))),
                          unique=True, max_size=20))
    return BinaryCwCode(n, w, tuple(words), 2), draw(st.integers(1, 2 * w + 2))


@st.composite
def integer_vectors(draw):
    """Up to 25 integer vectors of 0-6 entries, small or wide, and a
    distance d in -1..n+2."""
    n = draw(st.integers(0, 6))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2) | st.integers(-300, 300),
                                     min_size=n, max_size=n), max_size=25))
    return n, vectors, draw(st.integers(-1, n + 2))


@st.composite
def int8_vectors(draw):
    """Up to 25 vectors of 1-9 entries, so odd lengths end in a single
    column, over 1-256 consecutive int8 values (past 16 values a pair code
    passes 255), with the least and greatest value each a vector, and a
    distance d in -1..n+2."""
    n = draw(st.integers(1, 9))
    alpha = draw(st.integers(1, 256))
    low = draw(st.integers(-128, 128 - alpha))
    high = low + alpha - 1
    vectors = draw(st.lists(st.lists(st.integers(low, high), min_size=n, max_size=n),
                            max_size=23))
    return n, [[low] * n, *vectors, [high] * n], draw(st.integers(-1, n + 2))


def _on_every_kernel_path(cls):
    """Run each test of cls three ways: with the kernel's agreement tables
    allowed for any int8 input and gathering two columns at a time, then
    one column at a time (the kernel's own gathers, built column by
    column), then with the table refused, so that every input takes the
    broadcast compare. The test keeps its name; a failure names the path."""
    pairs = perm._gathers

    def single(low, high, a, b):
        return [gather for k in range(len(a))
                for gather in pairs(low, high, a[k:k + 1], b[k:k + 1])]

    def thrice(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            for path, table_bytes, gathers in (("pair", 1 << 40, pairs),
                                               ("single", 1 << 40, single),
                                               ("compare", 0, pairs)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(perm, "_TABLE_BYTES", table_bytes)
                    mp.setattr(perm, "_gathers", gathers)
                    try:
                        test(*args, **kwargs)
                    except Exception as exc:
                        raise AssertionError(f"on the {path} path") from exc
        return run

    for name, test in list(vars(cls).items()):
        if name.startswith("test_"):
            setattr(cls, name, thrice(test))
    return cls


@_on_every_kernel_path
class TestDistanceBlocks:
    """The blocked kernel and its callers against pairwise references, with
    blocks shrunk to a few rows so that every input spans many of them and
    usually ends in a ragged block. Every case runs on every kernel path."""

    @settings(deadline=None)
    @given(permutation_sets(), st.integers(1, 64))
    def test_permutation_callers_match_references(self, case, block_bytes):
        n, perms, d = case
        array = PermutationArray(n, perms)
        members = array.members
        pairs = [(a, b, hamming_distance(a, b)) for a, b in itertools.combinations(members, 2)]
        conflicts = [0] * len(members)
        for i, j in itertools.permutations(range(len(members)), 2):
            if hamming_distance(members[i], members[j]) < d:
                conflicts[i] |= 1 << j
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BLOCK_BYTES", block_bytes)
            _assert_blocks_match(members, upper=False)
            _assert_blocks_match(members, upper=True)
            # the cross form on the set cut into two matrices of unequal
            # lengths (one may be empty) and dtypes, narrowed to one
            cut = len(members) // 3
            _assert_cross_matches(array.rows[:cut], array.rows[cut:].astype(np.uint64))
            assert _conflict_masks(list(members), d) == conflicts
            # the search's greedy, which reads the cross form
            kept = []
            for member in members:
                if all(hamming_distance(member, other) >= d for other in kept):
                    kept.append(member)
            assert _greedy_stream([array.rows], d, math.inf).tolist() == list(map(list, kept))
            bad = verify_pa(array, d)
            assert type(bad) is list and bad == [pair for pair in pairs if pair[2] < d]
            assert _count_below(array.rows, d) == len(bad)
            if len(members) >= 2:
                assert array.min_distance() == min(dist for _, _, dist in pairs)

    @settings(deadline=None)
    @given(integer_vectors(), st.integers(1, 64))
    def test_count_and_stream_match_brute_force(self, case, block_bytes):
        n, vectors, d = case
        matrix = np.array(vectors, dtype=np.int64).reshape(len(vectors), n)
        expected = [(i, j, hamming_distance(vectors[i], vectors[j]))
                    for i, j in itertools.combinations(range(len(vectors)), 2)
                    if hamming_distance(vectors[i], vectors[j]) < d]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BLOCK_BYTES", block_bytes)
            count, again = count_pairs_below(matrix, d)
            pairs = list(pairs_below(matrix, d))
            assert count == len(pairs) and pairs == expected
            assert list(again) == pairs
            assert type(count) is int and all(type(v) is int for pair in pairs for v in pair)

    @settings(deadline=None)
    @given(integer_vectors(), st.integers(1, 64))
    def test_masks_and_least_distance_match_brute_force(self, case, block_bytes):
        # the two private readers walk the blocks themselves: the masks on
        # full rows, the least distance on upper blocks
        n, vectors, d = case
        matrix = np.array(vectors, dtype=np.int64).reshape(len(vectors), n)
        m = len(vectors)
        dist = [[hamming_distance(a, b) for b in vectors] for a in vectors]
        expected = [sum(1 << u for u in range(m) if u != v and dist[v][u] < d) for v in range(m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BLOCK_BYTES", block_bytes)
            assert _conflict_masks(matrix, d) == expected
            assert _conflict_masks(vectors, d) == expected
            if m >= 2:
                least = perm._least_distance(matrix)
                assert type(least) is int
                assert least == min(dist[i][j] for i, j in itertools.combinations(range(m), 2))

    @settings(deadline=None)
    @given(int8_vectors(), st.integers(1, 64))
    def test_int8_readers_match_brute_force(self, case, block_bytes):
        # the table's inputs: odd lengths end in a single column after the
        # pairs, and up to 256 entry values take pair codes past 255
        n, vectors, d = case
        m = len(vectors)
        dist = [[hamming_distance(a, b) for b in vectors] for a in vectors]
        masks = [sum(1 << u for u in range(m) if u != v and dist[v][u] < d) for v in range(m)]
        pairs = [(i, j, dist[i][j]) for i, j in itertools.combinations(range(m), 2)
                 if dist[i][j] < d]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BLOCK_BYTES", block_bytes)
            assert _conflict_masks(vectors, d) == masks
            assert perm._least_distance(vectors) == min(
                dist[i][j] for i, j in itertools.combinations(range(m), 2))
            count, again = count_pairs_below(vectors, d)
            assert count == len(pairs) and list(again) == pairs
            assert list(pairs_below(np.array(vectors, dtype=np.int8), d)) == pairs
            cut = distances(vectors[:m // 2], vectors[m // 3:])
            assert cut.tolist() == [row[m // 3:] for row in dist[:m // 2]]

    @pytest.mark.parametrize("block_bytes", [1, 7, 24, 100, 1 << 18])
    def test_pair_order_with_many_hits_across_blocks(self, monkeypatch, block_bytes):
        # S_4 at d = 3 has 72 pairs at distance 2, spread over every block
        rows = np.array(list(itertools.permutations(range(4))), dtype=np.int8)
        expected = [(i, j, hamming_distance(rows[i], rows[j]))
                    for i, j in itertools.combinations(range(24), 2)
                    if hamming_distance(rows[i], rows[j]) < 3]
        monkeypatch.setattr(perm, "_BLOCK_BYTES", block_bytes)
        assert len(expected) == 72
        pairs = list(pairs_below(rows, 3))
        assert pairs == expected
        assert all(type(v) is int for pair in pairs for v in pair)
        # the stream computes one upper block per read that needs one: the
        # first pair is in the first block, and the blocks read in turn
        # hold each pair's first row
        row_blocks = [start for start, _, _ in perm._spans(len(rows), True)] + [len(rows)]
        computed = []
        kernel = perm._distance_rows
        monkeypatch.setattr(perm, "_distance_rows", lambda sets, spans: kernel(
            sets, (computed.append(span) or span for span in spans)))
        stream = pairs_below(rows, 3)
        assert computed == []
        for pair in stream:
            k = bisect.bisect_right(row_blocks, pair[0]) - 1
            assert computed[-1] == (row_blocks[k], row_blocks[k + 1], row_blocks[k])
        assert computed == [(start, stop, start) for start, stop in zip(row_blocks, row_blocks[1:])]
        monkeypatch.setattr(perm, "_distance_rows", kernel)
        assert [_count_below(rows, d) for d in range(-1, 6)] == [
            0, 0, 0, 0, 72, 72 + 96, 276]
        # the count's stream recomputes the blocks that hold a pair and
        # gives the same pairs again
        count, again = count_pairs_below(rows, 3)
        assert count == 72 and list(again) == expected

    def test_cross_form_needs_one_length(self):
        with pytest.raises(ValueError):
            distances([[0, 1]], [[0, 1, 2]])
        with pytest.raises(ValueError):
            distances([0, 1], [[0, 1]])
        # ragged vectors raise the kernel's message in every form, not numpy's
        for call in (lambda: distances([[0, 1], [1]], [[0, 1]]),
                     lambda: distances([[0, 1]], [[0, 1], [0, 1, 2]]),
                     lambda: _conflict_masks([[0, 1], [0, 1, 2]], 2),
                     lambda: perm._least_distance([[0, 1], [0, 1, 2]]),
                     lambda: list(pairs_below([[0, 1], [0, 1, 2]], 2))):
            with pytest.raises(ValueError, match="^vectors must share a common length$"):
                call()

    def test_cross_form_does_not_compare_in_floats(self):
        # 2^63 and 2^63 - 1 are one float64, the type that uint64 and int64
        # promote to; the kernel compares them as uint64
        big = np.array([[2**63, 0]], dtype=np.uint64)
        near = np.array([[2**63 - 1, 0], [-1, 0]], dtype=np.int64)
        assert distances(big, near[:1]).tolist() == [[1]]
        assert distances(big, near).tolist() == [[1, 1]]

    @settings(deadline=None)
    @given(cw_codes(), st.integers(1, 64))
    def test_violations_match_reference(self, case, block_bytes):
        code, d = case
        expected = []
        for a, b in itertools.combinations(code.words, 2):
            dist = 2 * (code.weight - len(set(a) & set(b)))
            if dist < d:
                expected.append((a, b, dist))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_BLOCK_BYTES", block_bytes)
            bad = code.violations(d)
            assert type(bad) is list and bad == expected

    def test_long_vectors_do_not_wrap(self, monkeypatch):
        # 255 agreements fill an 8-bit count; 256 and 300 overflow it, so the
        # count widens to 16 bits (and entries up to 255 need int16 columns)
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 4)
        for n in (255, 256, 300):
            rng = random.Random(n)
            a = list(range(n))
            rng.shuffle(a)
            b = list(range(n))
            rng.shuffle(b)
            near = a.copy()
            near[0], near[1] = near[1], near[0]
            vectors = [Permutation(p) for p in (a, b, near)]
            _assert_blocks_match(vectors, upper=False)
            _assert_blocks_match(vectors, upper=True)
            _assert_cross_matches(vectors[:1], vectors[1:])
            _assert_cross_matches(vectors, vectors[2:])
            array = PermutationArray(n, vectors)
            assert array.min_distance() == 2
            assert [dist for _, _, dist in verify_pa(array, 3)] == [2]
            assert list(pairs_below(vectors, 3)) == [(0, 2, 2)]
            # 0/1 words of the same lengths take int8 columns, and past 255
            # entries 16-bit counts
            words = [[v % 2 for v in vector] for vector in vectors]
            _assert_blocks_match(words, upper=True)
            _assert_cross_matches(words[:1], words)
            assert list(pairs_below(words, n + 1)) == [
                (i, j, hamming_distance(words[i], words[j]))
                for i, j in itertools.combinations(range(3), 2)]

    @pytest.mark.parametrize("a, b", [(-129, 127), (128, -128), (-128, 127), (127, 128)])
    def test_entries_at_the_int8_edges_are_compared_exactly(self, monkeypatch, a, b):
        # -129 and 127, and 128 and -128, are equal in 8 bits, so a narrowed
        # copy would see agreements that are not there; -128 and 127 fit
        vectors = [[a, 0, b], [b, 0, a], [a, 1, a], [b, 1, b], [a, 0, b]]
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 4)
        _assert_blocks_match(vectors, upper=False)
        _assert_blocks_match(vectors, upper=True)
        expected = [(i, j, hamming_distance(vectors[i], vectors[j]))
                    for i, j in itertools.combinations(range(5), 2)]
        assert list(pairs_below(vectors, 4)) == expected
        assert list(pairs_below(np.array(vectors), 1)) == [(0, 4, 0)]
        _assert_cross_matches(vectors[:2], vectors[2:])
        _assert_cross_matches(np.array(vectors[3:], dtype=np.int16), np.array(vectors[:3]))

    def test_entries_beyond_int16_are_compared_exactly(self):
        # 0 and 65536 are equal in 16 bits, so a narrowed copy would see one
        # agreement too many
        n = 70_000
        swapped = list(range(n))
        swapped[0], swapped[65536] = 65536, 0
        array = PermutationArray(n, [Permutation(range(n)), swapped])
        assert array.min_distance() == 2
        assert distances(array.rows[:1], array.rows).tolist() == [[0, 2]]
        assert distances(array.rows[1:].astype(np.uint32), array.rows[:1]).tolist() == [[2]]
        assert [dist for _, _, dist in verify_pa(array, 3)] == [2]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_short_and_odd_lengths(self, monkeypatch, n):
        # one column is a single gather or compare, and length 0 puts every
        # pair at distance 0
        rng = random.Random(n)
        vectors = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(9)]
        vectors += vectors[:2]
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 8)
        _assert_blocks_match(vectors, upper=False)
        _assert_blocks_match(vectors, upper=True)
        _assert_cross_matches(vectors[:4], vectors[3:])
        _assert_cross_matches(vectors[:1], vectors)
        assert list(pairs_below(vectors, n + 1)) == [
            (i, j, hamming_distance(vectors[i], vectors[j]))
            for i, j in itertools.combinations(range(len(vectors)), 2)]
        assert _count_below(vectors, n + 1) == math.comb(len(vectors), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_full_int8_range(self, monkeypatch, n):
        # all 256 values, so the table has 256 rows per column; the row of
        # 127 is the last, index 255
        rng = random.Random(n)
        values = list(range(-128, 128))
        vectors = [[values[(i + 37 * k) % 256] for k in range(n)] for i in range(256)]
        vectors += [[127] * n, [-128] * n, [127, -128, 0][:n], [127] * n]
        rng.shuffle(vectors)
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 1 << 12)
        _assert_blocks_match(vectors, upper=True)
        _assert_cross_matches(vectors[:40], vectors)
        _assert_cross_matches(np.array(vectors[200:]), np.array(vectors[:9], dtype=np.int16))
        assert list(pairs_below(vectors, 1)) == [
            (i, j, 0) for i, j in itertools.combinations(range(len(vectors)), 2)
            if vectors[i] == vectors[j]]
        assert _count_below(vectors, 1) == len(list(pairs_below(vectors, 1))) > 0

    @pytest.mark.parametrize("bad", [[[0.5]], [[1.5, 2], [1.0, 2]], [[1j]], [["a"]],
                                     [[1, None]], [[2**70, 0.5]]])
    def test_entries_must_be_integers(self, bad):
        # numpy would truncate floats and complex numbers, or refuse strings
        # with an error of its own
        for call in (lambda: distances(bad, [[0] * len(bad[0])]),
                     lambda: distances([[0] * len(bad[0])], bad),
                     lambda: _conflict_masks(bad, 1),
                     lambda: perm._least_distance(bad),
                     lambda: list(pairs_below(bad, 1))):
            with pytest.raises(ValueError, match="^vector entries must be integers$"):
                call()

    def test_bools_and_ints_past_int64_are_entries(self):
        assert distances([[True, False]], [[1, 1], [1, 0]]).tolist() == [[1, 0]]
        assert distances(np.array([[np.True_, 2]], dtype=object), [[1, 2], [0, 2]]).tolist() == [
            [0, 1]]
        assert distances([[2**70, 1]], [[2**70, 2], [2**70 + 1, 1]]).tolist() == [[1, 1]]
        assert list(pairs_below(np.array([[2**70, 3], [np.int64(2), 3]], dtype=object), 2)) == [
            (0, 1, 1)]
        # np.True_ beside an int past int64, which numpy compares as a C long
        assert distances(np.array([[np.True_, 2**70]], dtype=object), [[1, 2**70]]).tolist() == [
            [0]]
        assert list(pairs_below(np.array([[np.True_, 2**70], [1, 2**70]], dtype=object), 1)) == [
            (0, 1, 0)]


def _gather_widths(vectors):
    """The columns each of the kernel's table gathers reads on the self form
    of vectors whose entries take alpha > 1 values: 2 for a pair (a table
    of alpha^2 rows), 1 for a single column (alpha rows); empty where the
    compare runs."""
    low, high, (columns,) = perm._columns(vectors)
    alpha = high - low + 1
    return [{alpha: 1, alpha * alpha: 2}[len(table)]
            for table, _ in perm._gathers(low, high, columns, columns)]


def _vertex_rows(n, d):
    """The vertices of P(n, d)'s search in search order."""
    return _rows_of(perm.permutation_rows(n, d))[::-1]


def _word_vertex_rows(n, w):
    """The vertices of A(n, d, w)'s search in search order."""
    return _rows_of(search._word_rows(n, w))[::-1]


def test_the_path_rule_picks_by_input(monkeypatch):
    # int8 columns take the table whenever it fits _TABLE_BYTES: pgl2 11
    # (1,320 rows, 12 values), 2,000 rows on 45 points, and the 17-row,
    # 6-point witness of P(6,5) capped at 3,000 nodes. The table path calls
    # np.equal once, to build the table; the compare calls it with out=.
    paths = []
    equal = np.equal
    rng = np.random.default_rng(20261019)
    witness = exact_p(6, 5, SearchLimits(max_nodes=3000)).witness.rows
    assert witness.shape == (17, 6)
    monkeypatch.setattr(np, "equal", lambda *args, **kwargs: paths.append(
        "compare" if "out" in kwargs else "table") or equal(*args, **kwargs))
    for vectors in (perfect_pa("pgl2", 11).rows, np.argsort(rng.random((2000, 45)), axis=1),
                    witness):
        next(_blocks(vectors, upper=True))
        assert paths == ["table"]
        paths.clear()
    monkeypatch.undo()
    # the gather reads two columns where the pair table fits _TABLE_BYTES
    # too: P(6,4)'s 664 vertices take 72 KB, P(6,5)'s 529 take 57 KB,
    # A(11,6,4)'s 330 words 6.6 KB, with a single eleventh column, pgl2 11
    # 1.14 MB and S_7 741 KB, with a single seventh; P(8,6)'s 37,085
    # vertices would take 9.5 MB, so they read one column a gather
    assert _gather_widths(_vertex_rows(6, 4)) == [2] * 3
    assert _gather_widths(_vertex_rows(6, 5)) == [2] * 3
    assert _gather_widths(_word_vertex_rows(11, 4)) == [2] * 5 + [1]
    assert _gather_widths(perfect_pa("pgl2", 11).rows) == [2] * 6
    assert _gather_widths(_rows_of(perm.permutation_rows(7, 0))) == [2, 2, 2, 1]
    assert _gather_widths(_vertex_rows(8, 6)) == [1] * 8
    assert _gather_widths(witness) == [2] * 3


def _owner(array):
    """The array that holds the memory array views, or array itself."""
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("rows", [
    lambda: _rows_of(perm.permutation_rows(7, 0)),
    lambda: _vertex_rows(7, 4),
    lambda: _word_vertex_rows(11, 4),
], ids=["S_7", "P(7,4)", "A(11,6,4)"])
def test_no_gather_holds_the_one_column_table(rows):
    # where pairs replace the one-column table, the trailing odd column is
    # a copy, so the table is freed once the gathers are built: the pairs
    # hold the pair table, and the single column its own rows
    low, high, (columns,) = perm._columns(rows())
    (n, m), alpha = columns.shape, high - low + 1
    *pairs, (single, codes) = perm._gathers(low, high, columns, columns)
    assert len(pairs) == n // 2
    assert all(_owner(table).nbytes == n // 2 * alpha * alpha * m for table, _ in pairs)
    assert single.base is None and single.shape == (alpha, m)
    assert codes.base is None and codes.shape == (m,)


@pytest.mark.parametrize("m", [1, 9, 37, 100, 300])
def test_conflict_masks_match_a_naive_reference(m):
    # packed rows of 1, 2, 5, 13 and 38 bytes, each read as one scalar, on
    # the int8 table's path and, with entries past 127, the compare's
    rng = np.random.default_rng(m)
    for high in (4, 1000):
        vectors = rng.integers(0, high, (m, 7)).tolist()
        dist = [[hamming_distance(a, b) for b in vectors] for a in vectors]
        for d in (3, 6):
            expected = [sum(1 << u for u in range(m) if u != v and dist[v][u] < d)
                        for v in range(m)]
            assert _conflict_masks(vectors, d) == expected


@pytest.mark.parametrize("rows, d, digest", [
    (lambda: _vertex_rows(6, 4), 4, "542f14dad977e29e"),
    (lambda: _vertex_rows(6, 5), 5, "fc6f8d362975f294"),
    (lambda: _vertex_rows(7, 4), 4, "17a13498eff9d243"),
    (lambda: _vertex_rows(7, 6), 6, "cf3772cf3bfdbba4"),
    (lambda: _word_vertex_rows(11, 4), 6, "c9eadfe19b13e68b"),
    (lambda: _word_vertex_rows(10, 4), 4, "cae2db69682b4b2d"),
], ids=["P(6,4)", "P(6,5)", "P(7,4)", "P(7,6)", "A(11,6,4)", "A(10,4,4)"])
def test_conflict_masks_are_pinned(rows, d, digest):
    # the masks of the searches' graphs, bit for bit, whichever gather
    # width their input takes: each mask as m bits, little-endian
    vectors = rows()
    width = -(-len(vectors) // 8)
    masks = b"".join(mask.to_bytes(width, "little") for mask in _conflict_masks(vectors, d))
    assert hashlib.sha256(masks).hexdigest()[:16] == digest


def reference_coset(members):
    """The weight distribution of x0⁻¹S and the generators that the
    documented rule picks, by brute force, for distinct permutations
    ``members`` in row order, x0 the first; None when x0⁻¹S is not closed
    under composition, so that S is no coset of a group. The rule takes
    each generator as the middle one, in row order, of the members whose
    x0⁻¹s is not yet a product of the generators before it."""
    n = len(members[0])
    normal = [_compose(_inverse(members[0]), s) for s in members]
    group = set(normal)
    if any(_compose(a, b) not in group for a in normal for b in normal):
        return None
    # a coset's members all see the same distances to the others
    spectra = {tuple(sorted(hamming_distance(a, b) for b in members)) for a in members}
    assert len(spectra) == 1
    weights = [0] * (n + 1)
    for h in normal:
        weights[weight(h)] += 1
    reached, generators = {normal[0]}, []
    while len(reached) < len(normal):
        unreached = [h for h in normal if h not in reached]
        generators.append(unreached[len(unreached) // 2])
        new = set(reached)
        while new:
            new = {_compose(h, g) for h in new for g in generators} - reached
            reached |= new
    return weights, len(generators)


def _group_weights_of(members):
    return perm._group_weights(np.array(members, dtype=np.int8).reshape(len(members), -1))


_FAMILY_SIZES = [("cyclic", (5, 9, 40)), ("symmetric", (3, 5, 6)), ("alternating", (4, 6, 7)),
                 ("agl", (5, 7, 13)), ("pgl2", (5, 7, 11))]


class TestGroupWeights:
    """``perm._group_weights`` proves a coset of a group from its m rows and
    reads its distances as their weights, or refuses the set."""

    @pytest.mark.parametrize("family, sizes", _FAMILY_SIZES)
    def test_every_family_matches_the_kernel(self, family, sizes):
        rng = np.random.default_rng(len(family))
        for size in sizes:
            array = perfect_pa(family, size)
            n = array.n
            tau, pi = rng.permutation(n), rng.permutation(n)
            # tau G pi, an isometric image and a left coset of pi⁻¹ G pi
            image = PermutationArray(n, tau[array.rows[:, pi]])
            expected = np.bincount(distances(array.rows[:1], array.rows)[0], minlength=n + 1)
            least = perm._least_distance(array.rows)
            for rows in (array.rows, image.rows):
                weights, generators = perm._group_weights(rows)
                assert weights == expected.tolist()
                assert 1 <= generators and 2 ** generators <= len(rows)
                assert next(w for w, count in enumerate(weights) if w and count) == least
            assert array.min_distance() == image.min_distance() == least
            assert verify_pa(image, least) == [] and len(verify_pa(image, least + 1)) == (
                len(array) * expected[least] // 2)

    @pytest.mark.parametrize("family, sizes", _FAMILY_SIZES)
    def test_every_small_family_matches_the_reference_closure(self, family, sizes):
        # weights and the generator count, which ``verify --json`` prints,
        # on each array of at most 200 members and on an image tau G pi
        rng = np.random.default_rng(len(family))
        for array in (perfect_pa(family, size) for size in sizes):
            if len(array) > 200:
                continue
            tau, pi = rng.permutation(array.n), rng.permutation(array.n)
            for rows in (array.rows, tau[array.rows[:, pi]]):
                assert perm._group_weights(rows) == reference_coset(rows.tolist())

    @pytest.mark.parametrize("family, size", [
        ("cyclic", 9), ("symmetric", 4), ("alternating", 5), ("agl", 7), ("pgl2", 7)])
    def test_a_row_dropped_or_replaced_is_refused(self, family, size):
        array = perfect_pa(family, size)
        rows, m = array.rows, len(array)
        assert perm._group_weights(rows) is not None
        # S_4 leaves no permutation outside it to put in
        outside = next((p for p in itertools.permutations(range(array.n))
                        if not (rows == p).all(axis=1).any()), None)
        for i in (0, m // 2, m - 1):
            # the m - 1 rows left would make a subgroup of the group, of an
            # order that does not divide m
            assert perm._group_weights(np.delete(rows, i, axis=0)) is None
            if outside is not None:
                replaced = rows.copy()
                replaced[i] = outside
                assert perm._group_weights(replaced) is None
                assert reference_coset(replaced.tolist()) is None

    def test_three_cosets_of_c7_are_refused_unless_a_group(self):
        cycle = [tuple((i + k) % 7 for i in range(7)) for k in range(7)]
        frobenius = [tuple(c[(2 ** e * i) % 7] for i in range(7)) for e in range(3)
                     for c in cycle]
        swap = [tuple(c[t] for t in (1, 0, 2, 3, 4, 5, 6)) for c in cycle]
        shift = [tuple(c[t] for t in (2, 1, 0, 3, 4, 5, 6)) for c in cycle]
        # C7 x -> 2x is the Frobenius group of order 21; the unions with
        # cosets of transpositions are not closed
        for members in (frobenius, cycle + swap + shift, cycle + frobenius[7:14] + shift):
            members = sorted(members)
            assert len(set(members)) == 21
            found = _group_weights_of(members)
            expected = reference_coset(members)
            assert (found is None) == (expected is None)
            if found is not None:
                assert found[0] == expected[0]
        assert _group_weights_of(sorted(frobenius)) is not None
        assert _group_weights_of(sorted(cycle + swap + shift)) is None

    def test_matches_brute_force_on_small_sets(self):
        s3 = list(itertools.permutations(range(3)))
        subsets = [list(c) for k in range(2, 7) for c in itertools.combinations(s3, k)]
        # S_4's identity with up to three other members: 1 + 23 + 253 + 1,771
        s4 = list(itertools.permutations(range(4)))
        subsets += [[s4[0], *c] for k in range(4) for c in itertools.combinations(s4[1:], k)]
        assert len(subsets) == 57 + 2048
        for members in subsets:
            assert _group_weights_of(members) == reference_coset(members), members

    def test_each_subgroup_of_s4_on_two_generators_and_one_row_replaced(self):
        s4 = [Permutation(p) for p in itertools.permutations(range(4))]
        subgroups = set()
        for a, b in itertools.combinations_with_replacement(s4, 2):
            group, new = {s4[0]}, {s4[0]}
            while new:
                new = {_compose(h, g) for h in new for g in (a, b)} - group
                group |= new
            subgroups.add(tuple(sorted(group)))
        assert len(subgroups) == 30  # every subgroup of S_4 has two generators
        for group in subgroups:
            members = list(group)
            assert _group_weights_of(members) == reference_coset(members)
            outside = next((p for p in s4 if p not in group), None)  # none for S_4
            for i in range(len(members) if outside else 0):
                replaced = sorted(members[:i] + [outside] + members[i + 1:])
                assert _group_weights_of(replaced) == reference_coset(replaced), replaced

    def test_one_row_and_none(self):
        assert perm._group_weights(np.array([[2, 0, 1]], dtype=np.int8)) == ([1, 0, 0, 0], 0)
        assert perm._group_weights(np.empty((0, 3), dtype=np.int8)) is None

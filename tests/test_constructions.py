"""Constructions: explicit arrays, binary codes, the support-lifting map,
and the group families that meet the quotient bound."""

from functools import partial
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permarray import constructions, perm
from permarray.bounds import dv_bound
from permarray.constructions import (
    BinaryCwCode,
    PermutationArray,
    block_cycle_cwpa,
    greedy_partial_steiner,
    known_perfect,
    lift_binary_cw_code,
    perfect_families,
    perfect_pa,
    perfect_size,
)
from permarray.exactmath import factorial
from permarray.perm import (
    Permutation,
    cycle_type,
    hamming_distance,
    weight,
)
from permarray.search import SearchLimits, exact_p, verify_pa


def reference_greedy_partial_steiner(n, blocksize):
    """The greedy packing's words, found by comparing each subset with every
    kept block."""
    kept = []
    words = []
    for block in combinations(range(n), blocksize):
        candidate = frozenset(block)
        if all(len(candidate & other) <= 1 for other in kept):
            kept.append(candidate)
            words.append(block)
    return tuple(words)


def reference_cyclic(n):
    """The translations x -> x + c mod n, one list per shift."""
    return PermutationArray(n, [[(i + c) % n for i in range(n)] for c in range(n)])


def reference_affine(p):
    """The maps x -> ax + b over F_p with a != 0, one list per map."""
    return PermutationArray(p, [
        [(a * x + b) % p for x in range(p)]
        for a in range(1, p)
        for b in range(p)
    ])


def reference_block_cycle(n, k):
    """Each block of k consecutive points cycled, built point by point."""
    members = []
    for i in range(n // k):
        images = list(range(n))
        for j in range(i * k, i * k + k - 1):
            images[j] = j + 1
        images[i * k + k - 1] = i * k
        members.append(images)
    return PermutationArray(n, members)


def reference_lift(code):
    """Each word's sorted support cycled, built point by point."""
    members = []
    for word in code.words:
        images = list(range(code.n))
        for idx, point in enumerate(word):
            images[point] = word[(idx + 1) % len(word)]
        members.append(images)
    return PermutationArray(code.n, members)


def reference_projective(p):
    """The fractional-linear maps over F_p, one per invertible matrix (p^4
    candidates, each map p - 1 times), with the repeats removed by a set."""
    images = set()
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 0:
            continue
        img = []
        for x in range(p):
            den = (c * x + d) % p
            img.append(p if den == 0 else (a * x + b) * pow(den, p - 2, p) % p)
        img.append(p if c == 0 else a * pow(c, p - 2, p) % p)
        images.add(tuple(img))
    return PermutationArray(p + 1, (Permutation(t) for t in images))


def _permutation_error(images):
    """The message Permutation gives for images that are no bijection."""
    with pytest.raises(ValueError) as excinfo:
        Permutation(images)
    return str(excinfo.value)


@st.composite
def member_lists(draw):
    """Permutations of n points, with repeats, as tuples, lists or
    Permutations, in any order."""
    n = draw(st.sampled_from([0, 1, 2, 3, 12]))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=12))
    kind = draw(st.sampled_from([tuple, list, Permutation]))
    return n, [kind(p) for p in draw(st.lists(st.sampled_from(pool), max_size=30))]


# entries that break a row: in or out of range, a float, an integer too
# wide for int64, a string
_BAD_ENTRIES = st.one_of(st.integers(-2, 9), st.sampled_from([1.0, 2.5, 2**63, 2**70, "1"]))


def _relabelled(array, sigma):
    """Conjugate every member by sigma; distances are unchanged."""
    sigma_inv = sorted(range(len(sigma)), key=sigma.__getitem__)
    return PermutationArray(array.n, [[sigma[p[v]] for v in sigma_inv] for p in array])


class TestPermutationArray:
    def test_members_are_sorted_and_deduplicated(self):
        a = Permutation((1, 0, 2))
        b = Permutation((0, 2, 1))
        array = PermutationArray(3, [a, b, a])
        assert len(array) == 2
        assert tuple(array) == (b, a)
        assert a in array

    def test_min_distance(self):
        array = PermutationArray(4, [Permutation(range(4)), Permutation((1, 0, 3, 2))])
        assert array.min_distance() == 4

    @pytest.mark.parametrize(
        "array",
        [
            perfect_pa("pgl2", 5),
            _relabelled(perfect_pa("alternating", 5), (3, 0, 4, 1, 2)),
            PermutationArray(5, list(perfect_pa("alternating", 5)) + [Permutation((0, 1, 2, 4, 3))]),
            perfect_pa("cyclic", 6),
        ],
        ids=["pgl2-5", "alternating-5-relabelled", "alternating-5-plus-odd", "cyclic-6"],
    )
    def test_min_distance_matches_brute_force(self, array):
        expected = min(hamming_distance(a, b) for a, b in combinations(array, 2))
        assert array.min_distance() == expected

    def test_contains(self):
        array = perfect_pa("alternating", 5)
        assert Permutation(range(5)) in array
        assert Permutation((1, 2, 0, 3, 4)) in array
        assert Permutation((1, 0, 2, 3, 4)) not in array  # odd
        assert Permutation((4, 3, 2, 1, 0)) in array  # even: two transpositions
        assert Permutation((0, 1, 2, 4, 3)) not in array  # odd, sorts near the end
        assert Permutation((4, 3, 2, 0, 1)) not in array  # odd, sorts last

    def test_contains_rejects_other_objects(self):
        array = perfect_pa("alternating", 5)
        assert Permutation(range(4)) not in array
        assert Permutation(range(6)) not in array
        assert (0, 1, 2, 3, 4) not in array
        assert [0, 1, 2, 3, 4] not in array
        assert "01234" not in array
        assert None not in array
        assert PermutationArray(3, []).__contains__(Permutation(range(3))) is False

    def test_min_distance_needs_two_members(self):
        with pytest.raises(ValueError):
            PermutationArray(3, [Permutation(range(3))]).min_distance()

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="^member of length 4 in an array on 3 points$"):
            PermutationArray(3, [Permutation(range(3)), Permutation(range(4))])
        with pytest.raises(ValueError, match="^member of length 2 in an array on 3 points$"):
            PermutationArray(3, [(0, 1, 2), (1, 0)])

    def test_degenerate_lengths(self):
        assert PermutationArray(0, [(), ()]).members == ((),)
        assert PermutationArray(0, []).rows.shape == (0, 0)
        assert len(PermutationArray(-1, [])) == 0

    @pytest.mark.parametrize(
        "members, bad",
        [
            ([(0, 0, 0), (1, 1, 1)], (0, 0, 0)),
            ([(0, 1, 2), (0, 1, 2.0)], (0, 1, 2.0)),
            ([(2, 1, 0), (1, 2, 3)], (1, 2, 3)),
            ([(2, 1, 0), (-1, 0, 1)], (-1, 0, 1)),
            ([(0, 1, 2), (0, 1, 2**70)], (0, 1, 2**70)),
            ([(0, 1, 2**63)], (0, 1, 2**63)),
            ([(0, 1, 2), (0, 1, "2")], (0, 1, "2")),
            ([(0, 1, 2), (1, 256, 2)], (1, 256, 2)),  # (1, 0, 2) in 8 bits
            ([(-254, 0, 1), (0, 1, 2)], (-254, 0, 1)),  # (2, 0, 1) in 8 bits
        ],
        ids=["repeats", "float", "too-large", "negative", "beyond-int64", "uint64", "string",
             "wraps-in-int8", "negative-wraps-in-int8"],
    )
    def test_rejects_non_permutations(self, members, bad):
        # (0,0,0), (1,1,1) used to be accepted and then verify at distance 3
        with pytest.raises(ValueError) as excinfo:
            PermutationArray(3, members)
        assert str(excinfo.value) == _permutation_error(bad)
        if all(type(v) is int and abs(v) < 2**63 for p in members for v in p):
            # as an int64 matrix: the range is checked before the rows narrow
            with pytest.raises(ValueError) as excinfo:
                PermutationArray(3, np.array(members))
            assert str(excinfo.value) == _permutation_error(bad)

    @settings(deadline=None)
    @given(member_lists())
    def test_matches_sorted_set_of_permutations(self, case):
        n, members = case
        array = PermutationArray(n, members)
        expected = tuple(sorted(set(map(Permutation, members))))
        assert array.members == expected
        assert all(type(p) is Permutation for p in array.members)
        assert array.rows.shape == (len(expected), n)
        assert array.rows.tolist() == [list(p) for p in expected]
        assert not array.rows.flags.writeable

    @settings(deadline=None)
    @given(member_lists(), st.sampled_from([np.int8, np.uint8, np.int16, np.int64]))
    def test_a_matrix_is_read_as_its_rows(self, case, dtype):
        n, members = case
        matrix = np.array([list(p) for p in members], dtype=dtype).reshape(len(members), n)
        array = PermutationArray(n, matrix)
        assert array == PermutationArray(n, members)
        assert array.rows.tolist() == [list(p) for p in array.members]
        assert all(type(p) is Permutation for p in array.members)
        assert matrix.flags.writeable  # the caller's matrix is copied, not frozen

    @settings(deadline=None)
    @given(st.data())
    def test_first_bad_member_raises_its_permutation_error(self, data):
        n = data.draw(st.integers(1, 6))
        members = [list(p) for p in data.draw(
            st.lists(st.permutations(range(n)), min_size=1, max_size=10))]
        for i in data.draw(st.lists(st.integers(0, len(members) - 1), min_size=1, max_size=3)):
            members[i][data.draw(st.integers(0, n - 1))] = data.draw(_BAD_ENTRIES)
        errors = []
        for p in members:
            try:
                Permutation(p)
            except ValueError as exc:
                errors.append(str(exc))
        if not errors:
            assert len(PermutationArray(n, members)) == len(set(map(tuple, members)))
            return
        with pytest.raises(ValueError) as excinfo:
            PermutationArray(n, members)
        assert str(excinfo.value) == errors[0]
        if all(isinstance(v, int) and -2**63 <= v < 2**63 for p in members for v in p):
            with pytest.raises(ValueError) as excinfo:
                PermutationArray(n, np.array(members))
            assert str(excinfo.value) == errors[0]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    @pytest.mark.parametrize("entries", [1, 4, 9, 100])
    def test_the_check_reads_the_rows_a_slab_at_a_time(self, monkeypatch, dtype, entries):
        # slabs of one row to all of them: each is checked, and the first
        # bad row raises, in whichever slab it lies
        monkeypatch.setattr(constructions, "_CHECK_ENTRIES", entries)
        rows = np.array(list(permutations(range(4))), dtype=dtype)
        assert len(PermutationArray(4, rows)) == 24
        for first in (0, 13, 22, 23):
            broken = rows.copy()
            broken[first:, 1] = broken[first:, 0]
            with pytest.raises(ValueError) as excinfo:
                PermutationArray(4, broken)
            assert str(excinfo.value) == _permutation_error(broken[first].tolist())

    @settings(deadline=None)
    @given(st.data(), st.sampled_from([np.int8, np.int16, np.int32]))
    def test_both_row_orders_are_lexsorts(self, data, dtype):
        # a matrix in C and in Fortran order sorts alike, on up to 160
        # points, so the sort reads int8 and int16 rows
        n = data.draw(st.integers(1, min(160, np.iinfo(dtype).max + 1)))
        pool = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=8))
        rows = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)),
                        dtype=dtype)
        expected = sorted(set(map(tuple, rows.tolist())))
        for matrix in (rows, np.asfortranarray(rows)):
            assert list(map(tuple, PermutationArray(n, matrix).rows.tolist())) == expected

    @pytest.mark.parametrize("n", [60, 200, 40_000])  # int8, int16 and int32 rows
    def test_both_row_orders_drop_duplicates_alike(self, n):
        rng = np.random.default_rng(n)
        pool = np.array([rng.permutation(n) for _ in range(4)])
        members = pool[rng.integers(0, 4, 12)]
        expected = sorted(set(map(tuple, members.tolist())))
        for matrix in (members, np.asfortranarray(members)):
            array = PermutationArray(n, matrix)
            assert array.rows.dtype == np.min_scalar_type(-n)
            assert list(map(tuple, array.rows.tolist())) == expected

    def test_a_matrix_of_the_wrong_width_is_rejected(self):
        with pytest.raises(ValueError, match="member of length 4 in an array on 3 points"):
            PermutationArray(3, np.zeros((2, 4), dtype=np.int8))
        assert len(PermutationArray(3, np.zeros((0, 4), dtype=np.int8))) == 0

    def test_equality(self):
        members = [Permutation(range(3)), Permutation((1, 2, 0))]
        array = PermutationArray(3, members)
        assert array == PermutationArray(3, list(reversed(members)))
        assert array != PermutationArray(3, [Permutation(range(3))])
        assert array != PermutationArray(3, [Permutation(range(3)), Permutation((2, 0, 1))])
        assert PermutationArray(2, []) != PermutationArray(3, [])
        assert array.__eq__(members) is NotImplemented
        assert repr(perfect_pa("agl", 5)) == "PermutationArray(n=5, size=20)"

    @pytest.mark.parametrize("make", [
        lambda: PermutationArray(4, [list(p) for p in permutations(range(4))][::-1]),
        lambda: exact_p(5, 4, SearchLimits(max_nodes=10, max_seconds=None)).witness,
    ], ids=["list", "search-witness"])
    def test_members_are_built_on_first_read(self, make):
        array, same = make(), make()
        d = array.min_distance()
        assert len(array) == len(array.rows) and array == same
        assert verify_pa(array, d) == [] and verify_pa(same, d) == []
        assert "members" not in vars(array) and "members" not in vars(same)
        # once read, the members are those the eager constructor built
        expected = tuple(sorted(set(map(Permutation, array.rows.tolist()))))
        assert array.members == expected
        assert all(type(p) is Permutation for p in array.members)
        assert array.members is array.members
        assert "members" not in vars(same)
        assert verify_pa(same, d + 1)  # pairs to report: now they are built
        assert same.members == expected


class TestBuilders:
    def test_every_builder_passes_an_integer_matrix(self, monkeypatch):
        passed = []
        init = PermutationArray.__init__

        def spy(self, n, members):
            passed.append(members)
            init(self, n, members)

        monkeypatch.setattr(PermutationArray, "__init__", spy)
        builds = [(family, lambda family=family: perfect_pa(family, 5))
                  for family in perfect_families()]
        builds += [
            ("block-cycle", lambda: block_cycle_cwpa(7, 3)),
            ("steiner-lift", lambda: lift_binary_cw_code(greedy_partial_steiner(9, 3), 2)),
            ("empty-lift", lambda: lift_binary_cw_code(BinaryCwCode(5, 3, (), 4), 2)),
        ]
        for name, build in builds:
            passed.clear()
            build()
            assert len(passed) == 1, name
            assert isinstance(passed[0], np.ndarray) and passed[0].dtype.kind in "iu", name
            assert passed[0].ndim == 2, name
            # built narrow, not as int64: every intermediate here fits 8 bits
            assert passed[0].dtype == np.int8, name


class TestBinaryCwCode:
    def test_validation(self):
        code = BinaryCwCode(5, 2, ((0, 1), (2, 3)), 4)
        assert code.violations(4) == []
        with pytest.raises(ValueError):
            BinaryCwCode(5, 2, ((1, 0), (2, 3)), 4)  # unsorted word
        with pytest.raises(ValueError):
            BinaryCwCode(5, 2, ((0, 1), (0, 1)), 4)  # duplicate word
        with pytest.raises(ValueError):
            BinaryCwCode(5, 2, ((0, 5),), 4)  # coordinate out of range
        with pytest.raises(ValueError):
            BinaryCwCode(5, 2, ((0, 1, 2),), 4)  # wrong weight

    def test_violations_lists_close_pairs(self):
        code = BinaryCwCode(5, 3, ((0, 1, 2), (0, 1, 3)), 2)
        assert code.violations(2) == []
        assert code.violations(4) == [((0, 1, 2), (0, 1, 3), 2)]


class TestBlockCycles:
    def test_length_six_weight_two(self):
        array = block_cycle_cwpa(6, 2)
        assert len(array) == 3
        assert array.min_distance() == 4
        assert all(weight(p) == 2 for p in array)

    def test_length_four_members(self):
        array = block_cycle_cwpa(4, 2)
        expected = {
            Permutation((1, 0, 2, 3)),
            Permutation((0, 1, 3, 2)),
        }
        assert set(array) == expected

    def test_matches_floor_count(self):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                array = block_cycle_cwpa(n, k)
                assert len(array) == n // k
                assert all(weight(p) == k for p in array)
                if len(array) >= 2:
                    assert array.min_distance() == 2 * k

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 13) for k in range(2, n + 1)])
    def test_matches_the_list_reference(self, n, k):
        assert block_cycle_cwpa(n, k) == reference_block_cycle(n, k)

    def test_single_block_has_no_pairs(self):
        array = block_cycle_cwpa(5, 3)
        assert len(array) == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="^block size must be at least 2: 1$"):
            block_cycle_cwpa(4, 1)
        with pytest.raises(ValueError, match="^need n >= block size; got n=4, block size=5$"):
            block_cycle_cwpa(4, 5)


class TestGreedyPartialSteiner:
    def test_seven_points_triples(self):
        code = greedy_partial_steiner(7, 3)
        assert len(code.words) == 7
        assert code.words[0] == (0, 1, 2)
        assert code.distance == 4
        assert code.violations(4) == []
        # every pair of blocks shares at most one point
        for i, a in enumerate(code.words):
            for b in code.words[i + 1 :]:
                assert len(set(a) & set(b)) <= 1

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(2, 17) for k in range(2, min(n, 5) + 1)]
    )
    def test_matches_the_pairwise_reference(self, n, k):
        code = greedy_partial_steiner(n, k)
        assert code.words == reference_greedy_partial_steiner(n, k)
        assert (code.n, code.weight, code.distance) == (n, k, 2 * (k - 1))

    def test_small_cases(self):
        assert len(greedy_partial_steiner(5, 3).words) == 2
        assert len(greedy_partial_steiner(3, 3).words) == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="^block size must be at least 2: 1$"):
            greedy_partial_steiner(4, 1)
        with pytest.raises(ValueError, match="^need n >= block size; got n=3, block size=4$"):
            greedy_partial_steiner(3, 4)


class TestSupportLifting:
    def test_two_overlapping_triples(self):
        code = BinaryCwCode(5, 3, ((0, 1, 2), (0, 3, 4)), 4)
        array = lift_binary_cw_code(code, 2)
        assert len(array) == 2
        assert array.min_distance() == 5
        assert all(weight(p) == 3 for p in array)
        # each image cycles its sorted support
        assert Permutation((1, 2, 0, 3, 4)) in array
        assert Permutation((3, 1, 2, 4, 0)) in array

    def test_disjoint_supports_gain_distance(self):
        code = BinaryCwCode(6, 3, ((0, 1, 2), (3, 4, 5)), 6)
        array = lift_binary_cw_code(code, 2)
        assert array.min_distance() == 6

    def test_fano_lift_reaches_declared_distance(self):
        code = greedy_partial_steiner(7, 3)
        array = lift_binary_cw_code(code, 2)
        assert len(array) == 7
        assert array.min_distance() >= 5

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 16) for k in range(1, min(n, 5))])
    def test_matches_the_list_reference(self, n, k):
        for code in (greedy_partial_steiner(n, k + 1), BinaryCwCode(n, k + 1, (), 2 * k)):
            assert lift_binary_cw_code(code, k) == reference_lift(code)

    def test_k_below_1_rejected(self):
        code = BinaryCwCode(5, 1, ((0,), (1,)), 2)
        with pytest.raises(ValueError, match="^need k >= 1: 0$"):
            lift_binary_cw_code(code, 0)

    def test_weight_mismatch_rejected(self):
        code = BinaryCwCode(5, 2, ((0, 1), (2, 3)), 4)
        with pytest.raises(ValueError):
            lift_binary_cw_code(code, 2)

    def test_overlap_violation_names_the_pair(self):
        code = BinaryCwCode(5, 3, ((0, 1, 2), (0, 1, 3)), 2)
        with pytest.raises(ValueError, match=r"\(0, 1, 2\).*\(0, 1, 3\)"):
            lift_binary_cw_code(code, 2)

    def test_a_bad_code_is_refused_at_the_first_block_with_a_pair(self, monkeypatch):
        # one row per distance block: words 0 and 1 share two points, so the
        # first block refuses the code and no other block is computed
        computed = []
        kernel = perm._distance_rows
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(perm, "_distance_rows", lambda sets, spans: kernel(
            sets, (computed.append(span) or span for span in spans)))
        words = tuple(combinations(range(12), 3))
        with pytest.raises(ValueError, match=r"^supports \(0, 1, 2\) and \(0, 1, 3\) share 2 "):
            lift_binary_cw_code(BinaryCwCode(12, 3, words, 2), 2)
        assert computed == [(0, 1, 0)]

    def test_overlap_violation_reports_the_first_pair_and_its_overlap(self):
        # in pair order the first two words share three points, the first and
        # last share one, and the last two share two
        words = ((0, 1, 2, 3), (0, 1, 2, 4), (1, 4, 5, 8))
        code = BinaryCwCode(9, 4, words, 2)
        with pytest.raises(ValueError, match=r"^supports \(0, 1, 2, 3\) and \(0, 1, 2, 4\) "
                                             r"share 3 points; at most 1 allowed$"):
            lift_binary_cw_code(code, 3)


class TestPerfectFamilies:
    def test_registry_names(self):
        assert set(perfect_families()) == {
            "cyclic",
            "symmetric",
            "alternating",
            "agl",
            "pgl2",
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic(self, n):
        array = perfect_pa("cyclic", n)
        assert len(array) == array.n == n
        if n >= 2:
            assert array.min_distance() == n
        assert len(array) == dv_bound(n, n).value
        assert array == reference_cyclic(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric(self, n):
        array = perfect_pa("symmetric", n)
        assert len(array) == factorial(n)
        assert array.min_distance() == 2
        assert len(array) == dv_bound(n, 2).value

    @pytest.mark.parametrize("n", range(1, 9))
    def test_alternating_matches_the_cycle_type_filter(self, n):
        # a permutation with c cycles is a product of n - c transpositions
        expected = [p for p in permutations(range(n)) if (n - len(cycle_type(p))) % 2 == 0]
        array = perfect_pa("alternating", n)
        assert array.rows.tolist() == [list(p) for p in expected]

    @pytest.mark.parametrize("n", range(4, 7))
    def test_alternating(self, n):
        array = perfect_pa("alternating", n)
        assert len(array) == factorial(n) // 2
        assert array.min_distance() == 3
        assert len(array) == dv_bound(n, 3).value

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_affine(self, p):
        array = perfect_pa("agl", p)
        assert array.n == p
        assert len(array) == p * (p - 1)
        assert array.min_distance() == p - 1
        assert len(array) == dv_bound(p, p - 1).value

    @pytest.mark.parametrize("p", [3, 5])
    def test_projective(self, p):
        array = perfect_pa("pgl2", p)
        assert array.n == p + 1
        assert len(array) == (p + 1) * p * (p - 1)
        assert array.min_distance() == p - 1
        assert len(array) == dv_bound(p + 1, p - 1).value

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_affine_matches_the_list_reference(self, p):
        assert perfect_pa("agl", p) == reference_affine(p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_projective_matches_the_matrix_reference(self, p):
        array = perfect_pa("pgl2", p)
        assert array == reference_projective(p)
        assert len(array) == dv_bound(p + 1, p - 1).value

    def test_non_prime_parameters_rejected(self):
        with pytest.raises(ValueError):
            perfect_pa("agl", 4)
        with pytest.raises(ValueError):
            perfect_pa("pgl2", 6)
        with pytest.raises(ValueError):
            perfect_pa("agl", 1)

    @pytest.mark.parametrize("family, param, message", [
        *[(family, param, f"need n >= 1: {param}")
          for family in ("cyclic", "symmetric", "alternating") for param in (0, -1)],
        *[(family, param, f"{name} family needs a prime modulus: {param}")
          for family, name in (("agl", "affine"), ("pgl2", "projective"))
          for param in (-2, 0, 1, 9)],
    ])
    def test_parameter_messages(self, family, param, message):
        with pytest.raises(ValueError) as excinfo:
            perfect_pa(family, param)
        assert str(excinfo.value) == message

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            perfect_pa("dihedral", 5)


class TestSizeGate:
    """The five named families, block cycles and the greedy Steiner packing
    refuse an array of more than ``_BUILD_ENTRIES`` entries (members x
    points) before they build anything. Here the budget is 100 entries;
    the real one is tried on huge inputs in a child process under an
    address-space limit (test_cli)."""

    GATED = "array too large to build: more than 100 entries (members x points)"

    @pytest.mark.parametrize("build, largest, refused", [
        (partial(perfect_pa, "cyclic"), 10, 11),  # n x n
        (partial(perfect_pa, "symmetric"), 4, 5),  # n! x n: 96, 600
        (partial(perfect_pa, "alternating"), 4, 5),  # n!/2 x n: 48, 300
        (partial(perfect_pa, "agl"), 5, 7),  # p(p - 1) x p: 100, 294
        (partial(perfect_pa, "pgl2"), 3, 5),  # (p + 1)p(p - 1) x (p + 1): 96, 720
        (partial(block_cycle_cwpa, k=2), 14, 15),  # floor(n/2) x n: 98, 105
        # the packing bound C(n, 2) / C(2, 2), times n: 90, 147
        (partial(greedy_partial_steiner, blocksize=2), 6, 7),
    ], ids=["cyclic", "symmetric", "alternating", "agl", "pgl2", "block-cycle", "steiner"])
    def test_the_largest_array_within_the_budget_builds(self, build, largest, refused,
                                                         monkeypatch):
        monkeypatch.setattr(constructions, "_BUILD_ENTRIES", 100)
        array = build(largest)
        assert len(array) * array.n <= 100
        monkeypatch.setattr(constructions, "PermutationArray", None)  # nothing is built
        monkeypatch.setattr(constructions, "combinations", None)  # nothing is scanned
        with pytest.raises(ValueError) as excinfo:
            build(refused)
        assert str(excinfo.value) == self.GATED

    def test_arguments_are_checked_before_the_size(self, monkeypatch):
        monkeypatch.setattr(constructions, "_BUILD_ENTRIES", 100)
        for build, message in ((lambda: perfect_pa("agl", 10**4), "needs a prime modulus"),
                               (lambda: perfect_pa("pgl2", 10**4), "needs a prime modulus"),
                               (lambda: block_cycle_cwpa(10**4, 1), "at least 2"),
                               (lambda: greedy_partial_steiner(10**4, 1), "at least 2")):
            with pytest.raises(ValueError, match=message):
                build()


class TestKnownPerfect:
    def test_family_cases(self):
        assert known_perfect(9, 9)  # cyclic
        assert known_perfect(9, 2)  # symmetric
        assert known_perfect(9, 3)  # alternating
        assert known_perfect(7, 6)  # affine line, p = 7
        assert known_perfect(8, 6)  # projective line, p = 7
        assert known_perfect(9, 8)  # prime power 9, sharply 2-transitive
        assert known_perfect(11, 8)  # sporadic
        assert known_perfect(12, 8)  # sporadic

    @pytest.mark.parametrize("n", range(1, 13))
    def test_distance_one_is_met_by_the_symmetric_group(self, n):
        # P(n, 1) = n! = n!/0!, for every n and not only where a prime-power
        # rule happens to match
        assert known_perfect(n, 1)
        assert perfect_size(n, 1) == factorial(n)

    def test_is_prime_power_matches_brute_force(self):
        primes = [p for p in range(2, 5000) if all(p % f for f in range(2, p))]
        powers = {p ** k for p in primes for k in range(1, 13) if p ** k < 5000}
        assert [q for q in range(-2, 5000) if constructions._is_prime_power(q)] == sorted(powers)

    def test_a_prime_is_its_own_least_factor(self):
        primes = [p for p in range(2, 5000) if all(p % f for f in range(2, p))]
        assert [q for q in range(-2, 5000) if constructions._least_factor(q) == q] == primes

    def test_negative_cases(self):
        assert not known_perfect(6, 5)  # 6 is not a prime power
        assert not known_perfect(7, 5)
        assert not known_perfect(13, 9)
        assert not known_perfect(5, 6)  # d above n

    def test_perfect_size_matches_quotient_bound(self):
        assert perfect_size(9, 9) == 9
        assert perfect_size(7, 6) == 42
        assert perfect_size(8, 6) == 336
        assert perfect_size(6, 4) == 120  # fractional-linear maps over F_5
        assert perfect_size(6, 5) is None

"""Bound rules: frozen values, applicability edges, derivation traces, the
exact-rational ordering properties between rules, and a digest pinning the
whole bound grid."""

import functools
import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest

from permarray.bounds import (
    BoundResult,
    CwTable,
    best_upper_bound,
    candidate_bounds,
    cw_binary_bound,
    cw_pa_bound,
    dv_bound,
    johnson_1962,
    johnson_ceiling,
    me_bound,
    mo_bound,
    recursive_bound,
    sp_bound,
    subset_bound,
)
from permarray.exactmath import ball_volume, factorial


class TestBoundResult:
    def test_rejects_unknown_kind_and_empty_trace(self):
        with pytest.raises(ValueError):
            BoundResult(7, "guess", ("DV",))
        with pytest.raises(ValueError):
            BoundResult(7, "upper", ())

    def test_ratio_takes_no_part_in_equality(self):
        with_ratio = BoundResult(7, "upper", ("SP",), Fraction(15, 2))
        assert with_ratio == BoundResult(7, "upper", ("SP",))
        assert hash(with_ratio) == hash(BoundResult(7, "upper", ("SP",)))
        assert BoundResult(7, "upper", ("SP",)).ratio is None


class TestQuotientBound:
    def test_frozen_values(self):
        assert dv_bound(20, 8).value == 482718652416000
        assert dv_bound(20, 9).value == 60339831552000
        assert dv_bound(5, 5).value == 5
        assert dv_bound(6, 2).value == 720

    def test_trace_and_kind(self):
        result = dv_bound(9, 4)
        assert result.derivation == ("DV",)
        assert result.kind == "upper"
        assert result.applicable

    def test_range_errors(self):
        with pytest.raises(ValueError):
            dv_bound(5, 6)
        with pytest.raises(ValueError):
            dv_bound(5, 0)

    @pytest.mark.parametrize("rule", [
        dv_bound, sp_bound, best_upper_bound, lambda n, d: subset_bound(n, d, 1, 1),
    ], ids=["dv", "sp", "best", "subset"])
    @pytest.mark.parametrize("n, d, message", [
        (0, 0, "need n >= 1: 0"),
        (-2, 1, "need n >= 1: -2"),
        (0, 5, "need n >= 1: 0"),
        (3, 0, "distance 0 outside valid range 1..3"),
        (3, 4, "distance 4 outside valid range 1..3"),
    ])
    def test_n_is_checked_before_the_distance(self, rule, n, d, message):
        with pytest.raises(ValueError) as excinfo:
            rule(n, d)
        assert str(excinfo.value) == message

    def test_division_is_exact(self):
        for n in range(2, 30):
            for d in range(1, n + 1):
                assert dv_bound(n, d).ratio.denominator == 1


class TestSpherePacking:
    def test_frozen_values(self):
        assert sp_bound(20, 8).value == 984581953936317
        assert sp_bound(20, 9).value == 52801936109398
        assert sp_bound(10, 10).value == 1667
        assert sp_bound(4, 4).value == 24

    def test_radius_comes_from_distance(self):
        # d = 8 and d = 9 pack radius 3 and 4 balls respectively
        assert sp_bound(20, 8).ratio == Fraction(factorial(20), ball_volume(20, 3))
        assert sp_bound(20, 9).ratio == Fraction(factorial(20), ball_volume(20, 4))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            sp_bound(5, 6)


class TestEvenDistanceBound:
    def test_frozen_value_example(self):
        # denominator is V(20,3) + C(20,4) * D_4 / floor(20/4) = 2471 + 8721
        assert me_bound(20, 4).value == 217378664061529
        assert me_bound(20, 4).value == factorial(20) // 11192

    def test_small_cases_stay_below_sphere_packing(self):
        assert me_bound(4, 2).value == 6
        assert me_bound(4, 2).value <= sp_bound(4, 4).value
        assert me_bound(10, 5).value == 470
        assert me_bound(10, 5).value < sp_bound(10, 10).value

    def test_out_of_range_is_not_applicable(self):
        for n, k in [(10, 1), (10, 6), (4, 3), (3, 2)]:
            result = me_bound(n, k)
            assert not result.applicable
            assert result.value is None

    def test_trace(self):
        assert me_bound(20, 4).derivation == ("ME",)

    def test_ordering_against_sphere_packing(self):
        # same-distance comparison, exact rationals, all valid (n, k), n <= 40
        for n in range(4, 41):
            for k in range(2, n // 2 + 1):
                assert me_bound(n, k).ratio <= sp_bound(n, 2 * k).ratio


class TestOddDistanceBound:
    def test_frozen_value_example(self):
        result = mo_bound(20, 4)
        assert result.value == 37905005935872
        assert result.derivation == ("MO-corollary",)
        # denominator is V(20,4) + (C(20,5) D_5 - A(16) C(20,4) D_4) / A(20)
        # with the Johnson estimates A(16) = 9, A(20) = 16
        assert johnson_ceiling(16, 4) == 9
        assert johnson_ceiling(20, 4) == 16
        assert result.value == factorial(20) * 16 // 1026947

    def test_exact_table_entries_take_over(self):
        table = CwTable.loads("20 8 5 16 exact\n")
        result = mo_bound(20, 4, table)
        # the Johnson estimate for length 20 is already 16, so the value is
        # unchanged, but the trace records the table use
        assert result.value == 37905005935872
        assert result.derivation == ("MO-exact-A",)

    def test_upper_and_lower_entries_are_ignored(self):
        result = mo_bound(20, 4, CwTable.loads("20 8 5 15 upper\n16 8 5 5 lower\n"))
        assert result == mo_bound(20, 4)
        assert result.derivation == ("MO-corollary",)
        # either row, were it exact, would move the value
        for row in ("20 8 5 15 exact", "16 8 5 5 exact"):
            assert mo_bound(20, 4, CwTable.loads(row)).value != result.value

    def test_out_of_range_is_not_applicable(self):
        assert not mo_bound(12, 4).applicable  # needs n >= 3k+1 = 13
        assert mo_bound(13, 4).applicable
        assert not mo_bound(10, 1).applicable

    def test_share_clamps_at_zero(self):
        # at (40, 2) the weight-3 shell is outgrown and the share would be
        # negative; the clamp makes the bound coincide with sphere packing
        assert mo_bound(40, 2).value == sp_bound(40, 5).value
        assert mo_bound(40, 2).ratio == sp_bound(40, 5).ratio

    def test_ordering_against_sphere_packing(self):
        for n in range(7, 41):
            for k in range(2, (n - 1) // 3 + 1):
                assert mo_bound(n, k).ratio <= sp_bound(n, 2 * k + 1).ratio


class TestGapInequalities:
    def test_even_distance_gap(self):
        # SP(n, 2k) - ME(n, k) > 2 (n-k+1)! / (n (k-1)), exact rationals
        for k in range(5, 8):
            for n in range(2 * k, 41):
                gap = sp_bound(n, 2 * k).ratio - me_bound(n, k).ratio
                floor_threshold = Fraction(2 * factorial(n - k + 1), n * (k - 1))
                assert gap > floor_threshold, (n, k)

    def test_odd_distance_gap(self):
        # SP(n, 2k+1) - MO(n, k) > 2 (n-k)!/((k+1) n (n-1)) (1 + k - (n-1)/k)
        # asserted where the right side is positive and the rule applies
        checked = 0
        for k in range(4, 14):
            for n in range(3 * k + 1, 41):
                rhs = Fraction(2 * factorial(n - k), (k + 1) * n * (n - 1)) * (
                    1 + k - Fraction(n - 1, k)
                )
                if rhs <= 0:
                    continue
                gap = sp_bound(n, 2 * k + 1).ratio - mo_bound(n, k).ratio
                assert gap > rhs, (n, k)
                checked += 1
        assert checked > 0


class TestSubsetBound:
    def test_stabilizer_cosets_recover_quotient_bound(self):
        # the d! permutations fixing all but the first d points contain at
        # most d members of a distance-d array
        for n, d in [(6, 4), (9, 3), (20, 8)]:
            assert subset_bound(n, d, factorial(d), d).value == dv_bound(n, d).value

    def test_flooring(self):
        assert subset_bound(4, 2, 7, 1).value == 24 // 7
        assert subset_bound(4, 2, 7, 1).derivation == ("subset-average",)

    def test_errors(self):
        with pytest.raises(ValueError):
            subset_bound(5, 3, 0, 1)
        with pytest.raises(ValueError):
            subset_bound(5, 3, factorial(5) + 1, 1)
        with pytest.raises(ValueError):
            subset_bound(5, 6, 10, 1)
        with pytest.raises(ValueError, match="^negative member count: -1$"):
            subset_bound(5, 3, 10, -1)


class TestRecursiveBound:
    def test_lift_example(self):
        at_5 = dv_bound(5, 4)
        assert at_5.value == 20
        lifted = recursive_bound(6, 4, 5, at_5)
        assert lifted.value == 120
        assert lifted.kind == "upper"
        assert lifted.derivation == ("recursive(m=5)", "DV")

    def test_identity_lift(self):
        at_6 = sp_bound(6, 4)
        same = recursive_bound(6, 4, 6, at_6)
        assert same.value == at_6.value
        assert same.kind == at_6.kind

    def test_errors(self):
        with pytest.raises(ValueError):
            recursive_bound(6, 4, 3, dv_bound(3, 3))  # m < d
        with pytest.raises(ValueError):
            recursive_bound(6, 4, 7, dv_bound(7, 4))  # m > n
        with pytest.raises(ValueError):
            recursive_bound(6, 4, 5, me_bound(5, 1))  # not applicable
        with pytest.raises(ValueError, match="distance 0 outside valid range"):
            recursive_bound(6, 0, 5, dv_bound(5, 4))  # d < 1, refused by subset_bound
        with pytest.raises(ValueError, match="^cannot lift a lower bound through an upper"):
            recursive_bound(6, 4, 5, BoundResult(20, "lower", ("search",)))

    def test_dominance_over_direct_bounds(self):
        # lifting SP from any m never beats both direct bounds at n
        for n in range(3, 26):
            for m in range(2, n):
                for d in range(2, m + 1):
                    lifted = recursive_bound(n, d, m, sp_bound(m, d))
                    direct = min(dv_bound(n, d).value, sp_bound(n, d).value)
                    assert lifted.value >= direct, (n, m, d)


class TestConstantWeightBinary:
    def test_single_word_when_distance_outruns_weight(self):
        result = cw_binary_bound(10, 6, 2)
        assert (result.value, result.kind) == (1, "exact")
        assert result.derivation == ("cw-binary-spread",)

    def test_disjoint_supports_partition(self):
        result = cw_binary_bound(10, 4, 2)
        assert (result.value, result.kind) == (5, "exact")
        assert result.derivation == ("cw-binary-partition",)
        assert cw_binary_bound(12, 8, 4).value == 3
        # a word, unlike a permutation, may have weight 1
        assert cw_binary_bound(4, 2, 1).value == 4

    def test_johnson_ceiling_case(self):
        # Johnson's 1962 bound 4*20 / (25 - 20) ties the ceiling, and a tie
        # keeps the ceiling's tag
        result = cw_binary_bound(20, 8, 5)
        assert (result.value, result.kind) == (16, "upper")
        assert result.derivation == ("cw-binary-johnson",)
        assert johnson_ceiling(10, 3) == 7
        result = cw_binary_bound(10, 6, 4)
        assert (result.value, result.derivation) == (5, ("cw-binary-johnson-1962",))
        assert johnson_1962(10, 3) == 5
        for m, k in [(10, 0), (10, -1), (-1, 2)]:
            with pytest.raises(ValueError, match=f"^invalid Johnson ceiling arguments "
                                                 f"m={m}, k={k}$"):
                johnson_ceiling(m, k)
            with pytest.raises(ValueError, match=f"^invalid Johnson bound arguments "
                                                 f"m={m}, k={k}$"):
                johnson_1962(m, k)

    def test_johnson_1962_case(self):
        # A(m, 6, 4) for m = 7..13, against the ceilings 3, 4, 4, 7, 8, 9, 13;
        # the 1962 bound is the value the search certifies at every m but 8
        assert [cw_binary_bound(m, 6, 4).value for m in range(7, 14)] == [2, 3, 3, 5, 6, 9, 13]
        assert [johnson_1962(m, 3) for m in range(7, 17)] == [
            2, 3, 3, 5, 6, 9, 13, 21, 45, None]
        # no bound once m reaches (k+1)^2, where the denominator is not positive
        assert johnson_1962(16, 3) is johnson_1962(17, 3) is None
        assert cw_binary_bound(16, 6, 4).derivation == ("cw-binary-johnson",)

    @staticmethod
    def _largest_code(n, k):
        """A(n, 2k, k+1) by listing every code: the largest set of
        (k+1)-subsets of n points that pairwise share at most one point,
        found with no bound."""
        words = [set(word) for word in combinations(range(n), k + 1)]
        fits = [sum(1 << u for u, other in enumerate(words) if len(word & other) <= 1) & ~(1 << v)
                for v, word in enumerate(words)]

        def largest(cand):
            best = 0
            while cand:
                v = cand.bit_length() - 1
                cand ^= 1 << v
                best = max(best, 1 + largest(cand & fits[v]))
            return best

        return largest((1 << len(words)) - 1)

    @pytest.mark.parametrize("n, k", [(n, 2) for n in range(3, 9)] + [(n, 3) for n in range(4, 11)])
    def test_johnson_1962_against_brute_force(self, n, k):
        largest = self._largest_code(n, k)
        assert johnson_1962(n, k) >= largest
        assert cw_binary_bound(n, 2 * k, k + 1).value >= largest

    def test_odd_distance_rejected(self):
        with pytest.raises(ValueError):
            cw_binary_bound(10, 5, 3)

    @pytest.mark.parametrize("n, d, w, message", [
        (0, 2, 0, "need n >= 1: 0"),
        (-3, 3, 7, "need n >= 1: -3"),
        (4, 3, 5, "constant-weight distance must be a positive even integer: 3"),
        (4, 2, 5, "weight 5 outside valid range 0..4"),
    ])
    def test_argument_rule(self, n, d, w, message):
        # n, then the distance, then the weight
        with pytest.raises(ValueError) as excinfo:
            cw_binary_bound(n, d, w)
        assert str(excinfo.value) == message

    def test_table_fallback_then_not_applicable(self):
        assert not cw_binary_bound(10, 6, 5).applicable


class TestConstantWeightPa:
    def test_examples(self):
        assert (cw_pa_bound(6, 4, 2).value, cw_pa_bound(6, 4, 2).kind) == (3, "exact")
        assert cw_pa_bound(6, 4, 2).derivation == ("cw-pa-III",)
        assert (cw_pa_bound(10, 7, 3).value, cw_pa_bound(10, 7, 3).kind) == (1, "exact")
        assert cw_pa_bound(10, 7, 3).derivation == ("cw-pa-II",)
        assert (cw_pa_bound(10, 4, 3).value, cw_pa_bound(10, 4, 3).kind) == (30, "upper")
        assert cw_pa_bound(10, 4, 3).derivation == ("cw-pa-VI",)

    def test_weight_one_rejected(self):
        with pytest.raises(ValueError, match="^weight 1 is impossible: a single moved point "
                                             "has nowhere to go$"):
            cw_pa_bound(10, 2, 1)

    @pytest.mark.parametrize("n, d, w, message", [
        (0, 2, 0, "need n >= 1: 0"),
        (-3, 2, 0, "need n >= 1: -3"),
        (4, 0, 1, "distance must be positive: 0"),
        (4, 2, 5, "weight 5 outside valid range 0..4"),
    ])
    def test_argument_rule(self, n, d, w, message):
        # n, then the distance, then the weight
        with pytest.raises(ValueError) as excinfo:
            cw_pa_bound(n, d, w)
        assert str(excinfo.value) == message

    def test_odd_distance_mirrors_binary_code_bound(self):
        result = cw_pa_bound(7, 5, 3)
        inner = cw_binary_bound(7, 4, 3)
        assert result.value == inner.value == 7
        assert result.kind == inner.kind == "upper"
        assert result.derivation == ("cw-pa-IV", "cw-binary-johnson")
        # rule IV always lands on the Johnson rules, which always apply: the
        # 1962 bound's tag where it is below the ceiling, else the ceiling's
        below = 0
        for n in range(1, 30):
            for k in range(1, (n - 1) // 2 + 1):
                quotient = johnson_1962(n, k)
                if quotient is not None and quotient < johnson_ceiling(n, k):
                    value, tag = quotient, "cw-binary-johnson-1962"
                    below += 1
                else:
                    value, tag = johnson_ceiling(n, k), "cw-binary-johnson"
                assert cw_binary_bound(n, 2 * k, k + 1) == BoundResult(value, "upper", (tag,))
                assert cw_pa_bound(n, 2 * k + 1, k + 1) == BoundResult(
                    value, "upper", ("cw-pa-IV", tag))
        # of the 196 (n, k)
        assert below == 117

    def test_general_reduction_to_binary(self):
        # (5, 8, 4): distance above length, handled by the reduction to
        # A(5, 8, 4) whose supports must be disjoint
        result = cw_pa_bound(5, 8, 4)
        assert (result.value, result.kind) == (1, "upper")
        assert result.derivation == ("cw-pa-I", "cw-binary-partition")

    def test_not_applicable_cases(self):
        assert not cw_pa_bound(8, 5, 4).applicable  # reduction lands outside the identities
        assert not cw_pa_bound(8, 3, 4).applicable  # d <= w with no rule


class TestBestUpperBound:
    def test_even_distance_example(self):
        best = best_upper_bound(20, 8)
        assert best.value == 217378664061529
        assert best.derivation == ("ME",)

    def test_odd_distance_example(self):
        best = best_upper_bound(20, 9)
        assert best.value == 37905005935872
        assert best.derivation == ("MO-corollary",)

    def test_full_distance_prefers_quotient(self):
        for n in (5, 7, 9):
            best = best_upper_bound(n, n)
            assert best.value == n
            assert best.derivation == ("DV",)

    def test_distance_two_tie_goes_to_first_rule(self):
        best = best_upper_bound(6, 2)
        assert best.value == 720
        assert best.derivation == ("DV",)

    def test_distance_one_is_rewritten(self):
        best = best_upper_bound(6, 1)
        assert best.value == 720
        assert best.derivation == ("d1-as-d2", "DV")
        # one point has no second position to differ in, so d = 1 stays
        best = best_upper_bound(1, 1)
        assert best.value == 1
        assert best.derivation == ("DV",)

    def test_distance_one_keeps_the_ratio(self):
        for n in range(2, 21):
            assert best_upper_bound(n, 1).ratio == best_upper_bound(n, 2).ratio

    def test_never_above_component_bounds(self):
        for n in range(4, 26):
            for d in range(2, n + 1):
                best = best_upper_bound(n, d)
                assert best.value <= dv_bound(n, d).value
                assert best.value <= sp_bound(n, d).value
                rows = candidate_bounds(n, d)
                assert best.value == min(r.value for _, r in rows if r.applicable)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            best_upper_bound(5, 7)


class TestCwTable:
    def test_roundtrip_and_lookup(self):
        table = CwTable.loads(
            """
            # known sizes
            20 8 5 16 exact
            13 6 4 65 upper
            30 8 5 30 lower
            """
        )
        assert len(table) == 3
        entry = table.get(20, 8, 5)
        assert (entry.value, entry.kind) == (16, "exact")
        assert entry.derivation == ("cw-table",)
        assert table.get(1, 2, 1) is None

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("6 4 3 4 exact\n", encoding="utf-8")
        assert CwTable.load(path).get(6, 4, 3).value == 4

    def test_load_drops_a_byte_order_mark(self, tmp_path):
        text = "# A(6,4,3)\n6 4 3 4 exact\n20 8 5 16 exact\n"
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert list(CwTable.load(path)) == list(CwTable.loads(text))

    def test_insert_checks_identities(self):
        table = CwTable()
        with pytest.raises(ValueError):
            table.insert(10, 6, 2, 2, "exact")  # spread case is exactly 1
        with pytest.raises(ValueError):
            table.insert(10, 4, 2, 4, "upper")  # below the exact value 5
        with pytest.raises(ValueError):
            table.insert(10, 4, 2, 6, "lower")  # above the exact value 5
        with pytest.raises(ValueError):
            table.insert(20, 8, 5, 17, "exact")  # above the Johnson ceiling 16
        with pytest.raises(ValueError):
            table.insert(20, 8, 5, 17, "lower")
        table.insert(20, 8, 5, 17, "upper")  # a weak upper bound is consistent
        table.insert(10, 4, 2, 5, "exact")

    def test_insert_rejects_malformed(self):
        table = CwTable()
        with pytest.raises(ValueError):
            table.insert(10, 5, 3, 5, "exact")  # odd distance
        with pytest.raises(ValueError):
            table.insert(10, 4, 11, 5, "exact")  # weight above length
        with pytest.raises(ValueError):
            table.insert(10, 4, 3, 0, "upper")  # below the one-word floor
        with pytest.raises(ValueError):
            table.insert(10, 4, 3, 5, "maybe")  # unknown kind
        with pytest.raises(ValueError):
            table.insert(6, 4, 3, 21, "exact")  # exceeds C(6,3) words

    def test_loads_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            CwTable.loads("6 4 3 4 exact\n6 4 3 4\n")
        with pytest.raises(ValueError, match="line 1"):
            CwTable.loads("6 4 x 4 exact\n")
        # an entry that parses but that insert refuses
        with pytest.raises(ValueError, match="^line 3: unknown bound kind: 'maybe'$"):
            CwTable.loads("# A(6,4,3)\n6 4 3 4 exact\n6 4 2 3 maybe\n")


GRID_TABLE = "20 8 5 16 exact\n"


@functools.lru_cache(maxsize=None)
def _grid(table_text):
    """(n, d, rule, result) for ``best_upper_bound`` (rule "best") and every
    ``candidate_bounds`` row, over 1 <= d <= n <= 120."""
    table = None if table_text is None else CwTable.loads(table_text)
    rows = []
    for n in range(1, 121):
        for d in range(1, n + 1):
            rows.append((n, d, "best", best_upper_bound(n, d, table)))
            rows.extend((n, d, rule, result) for rule, result in candidate_bounds(n, d, table))
    return tuple(rows)


class TestBoundGrid:
    @pytest.mark.parametrize("table_text, digest", [
        (None, "a4d16b771ea7ff6fc21cd30acabc66bdec647f94b1e855ab8b23edfc3a27c65b"),
        (GRID_TABLE, "b452dc38adcd4a188e5ca593dc39e778cc75e3ee20b14e0299e8498ecb63ab11"),
    ], ids=["no-table", "table"])
    def test_digest(self, table_text, digest):
        # every value, kind and trace on the grid; a change that moves a cell
        # on purpose re-pins this digest
        h = hashlib.sha256()
        for n, d, _, result in _grid(table_text):
            h.update(repr((n, d, result.value, result.kind, result.derivation)).encode() + b"\n")
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("table_text", [None, GRID_TABLE], ids=["no-table", "table"])
    def test_ratio_floors_to_the_value(self, table_text):
        for n, d, rule, result in _grid(table_text):
            if result.applicable:
                assert math.floor(result.ratio) == result.value, (n, d, rule)
                if rule == "DV":
                    assert result.ratio.denominator == 1, (n, d)
            else:
                assert result.ratio is None, (n, d, rule)

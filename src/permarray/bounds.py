"""Upper bounds on the maximum size of permutation arrays.

P(n, d) is the largest number of permutations of n points with pairwise
Hamming distance at least d; P(n, d, w) restricts members to weight exactly w,
and A(n, d, w) is the analogous maximum for binary constant-weight codes.

Every bound here is computed in exact integer or rational arithmetic
(``fractions.Fraction``) with a single floor at the very end; flooring
intermediate quantities would break the gap inequalities the test suite
checks. Each packing rule (DV, SP, ME, MO) computes its exact rational
once and returns it, before the floor, as the result's ``ratio``. Each
result carries a derivation trace naming the rules that produced it:

======================  =====================================================
tag                     rule
======================  =====================================================
DV                      quotient bound n! / (d-1)!
SP                      sphere packing: floor(n! / V(n, floor((d-1)/2)))
ME                      even-distance refinement of SP for d = 2k
MO-corollary            odd-distance refinement of SP for d = 2k+1, constant-
                        weight sizes estimated by the paper's Johnson ceiling
MO-exact-A              same, but at least one size came from a table of exact
                        constant-weight code values
subset-average          averaging over a subset of the symmetric group
recursive(m=..)         lifting a bound from m points to n points
cw-binary-spread        A(n, d, w) = 1 when d > 2w
cw-binary-partition     A(n, 2w, w) = floor(n/w)
cw-binary-johnson       A(n, 2k, k+1) <= floor(n/(k+1) * floor((n-1)/k))
cw-binary-johnson-1962  A(n, 2k, k+1) <= floor(kn / ((k+1)^2 - n)) when
                        n < (k+1)^2 (Johnson 1962), where it is smaller
cw-table                value taken from a user-supplied table
cw-pa-I .. cw-pa-VI     constant-weight permutation-array rules (the roman
                        labels skip V; there is no rule V)
d1-as-d2                distance 1 rewritten as distance 2 (distinct
                        permutations always differ in >= 2 positions)
======================  =====================================================

``known_perfect`` and ``perfect_size`` say where the quotient bound is known
to be met with equality, by the families of ``constructions`` and by some
that are not built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .exactmath import (_check_points, _check_weight, _least_factor, ball_volume, binomial,
                        derangement_count, factorial)

KIND_EXACT = "exact"
KIND_UPPER = "upper"
KIND_LOWER = "lower"
_KINDS = (KIND_EXACT, KIND_UPPER, KIND_LOWER)


@dataclass(frozen=True)
class BoundResult:
    """A bound value plus how it was obtained.

    A ``value`` of None marks the result not applicable, which is how
    out-of-range requests are reported (callers fall back to other rules
    instead of receiving a silently weakened number).

    ``ratio`` is the exact rational that a packing rule (DV, SP, ME, MO)
    floors to give ``value``; it is None for every other result, and it
    takes no part in equality.
    """

    value: int | None
    kind: str
    derivation: tuple[str, ...]
    ratio: Fraction | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown bound kind: {self.kind!r}")
        if not self.derivation:
            raise ValueError("derivation trace must be non-empty")

    @property
    def applicable(self) -> bool:
        return self.value is not None


def _exact(value: int, *tags: str) -> BoundResult:
    return BoundResult(value, KIND_EXACT, tags)


def _upper(value: int, *tags: str) -> BoundResult:
    return BoundResult(value, KIND_UPPER, tags)


def _floored(ratio: Fraction, tag: str) -> BoundResult:
    return BoundResult(math.floor(ratio), KIND_UPPER, (tag,), ratio)


def _not_applicable(*tags: str) -> BoundResult:
    return BoundResult(None, KIND_UPPER, tags)


def _check_distance(n: int, d: int) -> None:
    """The P(n, d) rule: n >= 1, then 1 <= d <= n."""
    _check_points(n)
    if not 1 <= d <= n:
        raise ValueError(f"distance {d} outside valid range 1..{n}")


def _check_cw_pa(n: int, d: int, w: int) -> None:
    """The P(n, d, w) rule: n >= 1, then d >= 1, then the permutation-weight
    rule (w in 0..n and never 1)."""
    _check_points(n)
    if d < 1:
        raise ValueError(f"distance must be positive: {d}")
    _check_weight(n, w)


def _check_cw_code(n: int, d: int, w: int) -> None:
    """The A(n, d, w) rule: n >= 1, then d positive and even (the distance
    between two words of one weight always is), then 0 <= w <= n."""
    _check_points(n)
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"constant-weight distance must be a positive even integer: {d}")
    _check_weight(n, w, moved=False)


def dv_bound(n: int, d: int) -> BoundResult:
    """Upper bound P(n, d) <= n!/(d-1)!, from the quotient by a stabilizer
    chain; the division is always exact, so ``ratio`` is integral."""
    _check_distance(n, d)
    return _floored(Fraction(factorial(n), factorial(d - 1)), "DV")


def sp_bound(n: int, d: int) -> BoundResult:
    """Sphere-packing upper bound: balls of radius floor((d-1)/2) around
    members are disjoint, so P(n, d) <= floor(n! / V(n, r))."""
    _check_distance(n, d)
    return _floored(Fraction(factorial(n), ball_volume(n, (d - 1) // 2)), "SP")


def me_bound(n: int, k: int) -> BoundResult:
    """Upper bound on P(n, 2k) for 2 <= k <= floor(n/2); out-of-range k
    reports not-applicable so callers fall back to DV/SP.

    Strengthens sphere packing by charging each member, on top of its
    radius-(k-1) ball, an equal share of the weight-k permutations it can
    see: the denominator grows by C(n, k) * D_k / floor(n/k).
    """
    if not 2 <= k <= n // 2:
        return _not_applicable("ME")
    shared = Fraction(binomial(n, k) * derangement_count(k), n // k)
    return _floored(Fraction(factorial(n)) / (ball_volume(n, k - 1) + shared), "ME")


def johnson_ceiling(m: int, k: int) -> int:
    """Upper bound floor(m/(k+1) * floor((m-1)/k)) on the size of a binary
    code of length m, weight k+1, minimum distance 2k (pairwise supports
    meeting in at most one point)."""
    if m < 0 or k < 1:
        raise ValueError(f"invalid Johnson ceiling arguments m={m}, k={k}")
    return math.floor(Fraction(m, k + 1) * ((m - 1) // k))


def johnson_1962(m: int, k: int) -> int | None:
    """Johnson's 1962 bound floor(k*m / ((k+1)^2 - m)) on the size of a
    binary code of length m, weight k+1, minimum distance 2k: the case
    delta = k, w = k+1 of A(m, 2*delta, w) <= floor(delta*m / (w^2 - w*m +
    delta*m)) (S. M. Johnson, IRE Trans. Inform. Theory 1962; MacWilliams
    and Sloane, ch. 17). None when m >= (k+1)^2, where the denominator is
    not positive and the bound says nothing."""
    if m < 0 or k < 1:
        raise ValueError(f"invalid Johnson bound arguments m={m}, k={k}")
    denominator = (k + 1) ** 2 - m
    return k * m // denominator if denominator > 0 else None


def mo_bound(n: int, k: int, table: "CwTable | None" = None) -> BoundResult:
    """Upper bound on P(n, 2k+1) for k >= 2 and n >= 3k+1; out-of-range
    requests report not-applicable.

    Charges each member its radius-k ball plus a share of the weight-(k+1)
    shell; the share T is clamped at zero, so the result never drops below
    plain sphere packing. The share needs A(m, 2k, k+1) at m = n and
    m = n - k; estimating both from above only weakens the bound, so any
    valid upper estimate keeps it safe. Each is an exact ``table`` entry if
    one exists, and the trace then says "MO-exact-A"; else it is the
    Johnson ceiling, the paper's estimate. MO reads only exact rows: an
    "upper" or "lower" row leaves its size at the ceiling, and no rule
    reads such rows. MO keeps the ceiling rather than ``cw_binary_bound``'s
    smaller value until ROADMAP item 19, since that value lowers 260
    odd-distance ``table`` cells with n <= 120.
    """
    if k < 2 or 2 * k > n - k - 1:
        return _not_applicable("MO-corollary")
    sizes, tag = [], "MO-corollary"
    for m in (n, n - k):
        entry = table.get(m, 2 * k, k + 1) if table is not None else None
        if entry is not None and entry.kind == KIND_EXACT:
            sizes.append(entry.value)
            tag = "MO-exact-A"
        else:
            sizes.append(johnson_ceiling(m, k))
    a_full, a_reduced = sizes
    numerator = (
        binomial(n, k + 1) * derangement_count(k + 1)
        - a_reduced * binomial(n, k) * derangement_count(k)
    )
    share = max(Fraction(0), Fraction(numerator, a_full))
    return _floored(Fraction(factorial(n)) / (ball_volume(n, k) + share), tag)


def subset_bound(n: int, d: int, omega_size: int, p_omega: int) -> BoundResult:
    """Averaging bound: if a subset of size ``omega_size`` of the permutations
    of n points contains at most ``p_omega`` members of any array with
    distance d, then P(n, d) <= floor(n! * p_omega / omega_size)."""
    _check_distance(n, d)
    if not 0 < omega_size <= factorial(n):
        raise ValueError(f"subset size {omega_size} outside valid range 1..n!")
    if p_omega < 0:
        raise ValueError(f"negative member count: {p_omega}")
    return _upper(factorial(n) * p_omega // omega_size, "subset-average")


def recursive_bound(n: int, d: int, m: int, bound_at_m: BoundResult) -> BoundResult:
    """Lift a bound on P(m, d) to P(n, d) <= floor(n! * P(m, d) / m!) by
    grouping permutations that agree on the last n - m points.

    ``m = n`` is the identity lift and returns the input value unchanged.
    """
    if not d <= m <= n:
        raise ValueError(f"need d <= m <= n; got n={n}, d={d}, m={m}")
    if not bound_at_m.applicable:
        raise ValueError("cannot lift a not-applicable bound")
    if bound_at_m.kind == KIND_LOWER:
        raise ValueError("cannot lift a lower bound through an upper-bound rule")
    value = subset_bound(n, d, factorial(m), bound_at_m.value).value
    kind = bound_at_m.kind if m == n else KIND_UPPER
    return BoundResult(value, kind, (f"recursive(m={m})", *bound_at_m.derivation))


def cw_binary_bound(n: int, d: int, w: int) -> BoundResult:
    """Upper bound (exact where an identity applies) on A(n, d, w), the
    maximum binary code of length n, constant weight w, minimum distance d.

    Arguments follow the A(n, d, w) rule, ``_check_cw_code``: only even
    distances occur for constant-weight words, so odd d is rejected.
    Dispatch: d > 2w forces a single word; d = 2w means pairwise
    disjoint supports, giving exactly floor(n/w); d = 2k with w = k+1 gives
    the smaller of the Johnson ceiling and, when n < (k+1)^2, Johnson's
    1962 bound, tagged with the rule that gave it (the ceiling on a tie);
    the 1962 bound is the certified value of A(m, 6, 4) for m = 7 and
    9..13, which lets ``search.exact_a_cw`` stop once its incumbent meets
    it. Every other cell is reported not-applicable.
    """
    _check_cw_code(n, d, w)
    if d > 2 * w:
        return _exact(1, "cw-binary-spread")
    if d == 2 * w:
        return _exact(n // w, "cw-binary-partition")
    k = d // 2
    if w == k + 1:
        ceiling, quotient = johnson_ceiling(n, k), johnson_1962(n, k)
        if quotient is not None and quotient < ceiling:
            return _upper(quotient, "cw-binary-johnson-1962")
        return _upper(ceiling, "cw-binary-johnson")
    return _not_applicable("cw-binary")


def cw_pa_bound(n: int, d: int, w: int) -> BoundResult:
    """Upper bound (exact where known) on P(n, d, w), the maximum permutation
    array of n points with pairwise distance >= d and every member of weight
    exactly w.

    Arguments follow the P(n, d, w) rule, ``_check_cw_pa``, so weight 1,
    which no permutation has, is rejected. Rules, tried in order:

    - II:  d > 2w forces a single member (w != 1).
    - III: (d, w) = (2k, k) with 2 <= k <= floor(n/2) gives exactly
           floor(n/k), met by disjoint k-cycles.
    - IV:  (d, w) = (2k+1, k+1) with k <= floor((n-1)/2) equals
           A(n, 2k, k+1), which the Johnson rules always answer; the kind
           and the inner tag mirror the constant-weight answer.
    - VI:  (d, w) = (4, 3) with n >= 4 gives floor(2 * C(n, 2) / 3).
    - I:   d > w gives P(n, d, w) <= A(n, 2d - 2w, w).
    """
    _check_cw_pa(n, d, w)
    if d > 2 * w:
        return _exact(1, "cw-pa-II")
    if d % 2 == 0:
        k = d // 2
        if w == k and 2 <= k <= n // 2:
            return _exact(n // k, "cw-pa-III")
    else:
        k = (d - 1) // 2
        if w == k + 1 and 1 <= k <= (n - 1) // 2:
            inner = cw_binary_bound(n, 2 * k, k + 1)
            return replace(inner, derivation=("cw-pa-IV", *inner.derivation))
    if (d, w) == (4, 3) and n >= 4:
        return _upper(2 * binomial(n, 2) // 3, "cw-pa-VI")
    if d > w:
        inner = cw_binary_bound(n, 2 * d - 2 * w, w)
        if not inner.applicable:
            return _not_applicable("cw-pa-I")
        return _upper(inner.value, "cw-pa-I", *inner.derivation)
    return _not_applicable("cw-pa")


def candidate_bounds(
    n: int, d: int, table: "CwTable | None" = None
) -> list[tuple[str, BoundResult]]:
    """The rules ``best_upper_bound`` chooses from, as (name, result) rows:
    DV, SP, then ME for even d or MO for odd d. Rows that do not apply at
    (n, d) are kept and report not-applicable."""
    rows = [("DV", dv_bound(n, d)), ("SP", sp_bound(n, d))]
    if d % 2 == 0:
        rows.append(("ME", me_bound(n, d // 2)))
    else:
        rows.append(("MO", mo_bound(n, (d - 1) // 2, table)))
    return rows


def best_upper_bound(n: int, d: int, table: "CwTable | None" = None) -> BoundResult:
    """The smallest applicable upper bound on P(n, d) among DV, SP, ME (even
    d) and MO (odd d). Ties go to the rule order just given. Distance 1 is
    rewritten as distance 2 when n >= 2, since distinct permutations always
    differ in at least two positions; on one point P(1, 1) = 1 is bounded
    directly. Each candidate's derivation is a single tag, so the winning
    rule is always the last tag of the result's derivation."""
    tags: tuple[str, ...] = ()
    if d == 1 and n >= 2:
        tags = ("d1-as-d2",)
        d = 2
    _check_distance(n, d)
    best = min(
        (c for _, c in candidate_bounds(n, d, table) if c.applicable), key=lambda c: c.value
    )
    if tags:
        return replace(best, derivation=tags + best.derivation)
    return best


def _is_prime_power(q: int) -> bool:
    # q is a power of its least factor p when dividing p out leaves 1
    p = _least_factor(q)
    if p is None:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def known_perfect(n: int, d: int) -> bool:
    """Whether (n, d) is on the list of parameters where the quotient bound
    n!/(d-1)! is known to be met with equality.

    Covers the families that ``constructions`` builds (extended to
    prime-power fields, where the same constructions work but are not built
    there) and the two sporadic multiply-transitive families at (11, 8) and
    (12, 8).
    """
    if not 1 <= d <= n:
        return False
    if d == n or d <= 2:  # S_n meets n!/0! and n!/1!
        return True
    if d == 3 and n >= 3:
        return True
    if d == n - 1 and _is_prime_power(n):
        return True
    if d == n - 2 and _is_prime_power(n - 1):
        return True
    return (n, d) in ((11, 8), (12, 8))


def perfect_size(n: int, d: int) -> int | None:
    """Size n!/(d-1)! when (n, d) is on the known-perfect list, else None."""
    if not known_perfect(n, d):
        return None
    return factorial(n) // factorial(d - 1)


class CwTable:
    """Known sizes and bounds for binary constant-weight codes, keyed by
    (n, d, w).

    ``mo_bound`` is the one reader, and it reads only "exact" rows; no rule
    reads an "upper" or "lower" row, which the table validates and keeps.
    Entries are validated on insert against the structural identities, as
    ``cw_binary_bound`` answers them, so a stored value can never
    contradict them: when d > 2w the only code is a single word, when d =
    2w the maximum is exactly floor(n/w), and when d = 2k, w = k+1 nothing
    exceeds the Johnson bound (the smaller of the two rules).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int, int], BoundResult] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(sorted(self._entries.items()))

    def get(self, n: int, d: int, w: int) -> BoundResult | None:
        return self._entries.get((n, d, w))

    def insert(self, n: int, d: int, w: int, value: int, kind: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown bound kind: {kind!r}")
        # what the identities alone say about A(n, d, w); this also applies
        # the A(n, d, w) argument rule
        known = cw_binary_bound(n, d, w)
        if value < 1:
            raise ValueError(f"a constant-weight code always has at least one word: {value}")
        if kind in (KIND_EXACT, KIND_LOWER) and value > binomial(n, w):
            raise ValueError(f"value {value} exceeds the C({n},{w}) words available")
        if known.kind == KIND_EXACT:
            if kind == KIND_EXACT and value != known.value:
                raise ValueError(
                    f"entry ({n},{d},{w})={value} contradicts the exact value {known.value}"
                )
            if kind == KIND_UPPER and value < known.value:
                raise ValueError(
                    f"upper entry ({n},{d},{w})={value} is below the exact value {known.value}"
                )
            if kind == KIND_LOWER and value > known.value:
                raise ValueError(
                    f"lower entry ({n},{d},{w})={value} is above the exact value {known.value}"
                )
        elif known.applicable and kind != KIND_UPPER and value > known.value:
            raise ValueError(
                f"entry ({n},{d},{w})={value} exceeds the Johnson bound {known.value}"
            )
        self._entries[(n, d, w)] = BoundResult(value, kind, ("cw-table",))

    @classmethod
    def loads(cls, text: str) -> "CwTable":
        """Parse a table from text: one entry per line, five whitespace-
        separated fields "n d w value kind", with '#' comments and blank
        lines ignored."""
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ValueError(f"line {lineno}: expected 'n d w value kind', got {raw!r}")
            try:
                n, d, w, value = (int(f) for f in fields[:4])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from exc
            try:
                table.insert(n, d, w, value, fields[4])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        return table

    @classmethod
    def load(cls, path: str | Path) -> "CwTable":
        """Read a table from a file in the ``loads`` format; a leading
        byte-order mark is dropped."""
        return cls.loads(Path(path).read_text(encoding="utf-8-sig"))

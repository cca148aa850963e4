"""Constructions of permutation arrays and the constant-weight codes that
feed them.

The named families here ("perfect" families) meet the quotient bound
n!/(d-1)! with equality: translations of a cyclic group at distance n, the
full symmetric group at distance 2, the even permutations at distance 3, the
affine maps x -> ax + b over a prime field at distance p - 1, and the
fractional-linear maps over a prime field acting on the projective line at
distance p - 1. Block k-cycles and support lifting build constant-weight
arrays matching the exact values the bounds module reports.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations
from math import comb, isqrt

import numpy as np

from .exactmath import factorial
from .perm import (Permutation, _check_points, _least_distance, _row_dtype, pairs_below,
                   permutation_rows)


# Entries per slab of the bijection check in PermutationArray: a sorted
# copy of at most 2 MB, at int64
_CHECK_ENTRIES = 1 << 18


class PermutationArray:
    """A set of distinct permutations of a common length, kept sorted in
    lexicographic image order as ``rows``, the read-only (m, n) integer
    matrix the distance kernel reads. ``members``, the same rows as a tuple
    of ``Permutation``, is built from ``rows`` on first read: length,
    equality, ``min_distance`` and a verification that finds no bad pair
    never build it. The pairwise minimum distance is measured on every
    request, never stored, so no claimed distance can stand in for it.

    ``members`` may be an (m, n) integer matrix, which is read as it is and
    is what every builder in the package passes, or any iterable of integer
    sequences, the path that serves input from outside the package. A
    member whose length is not n raises ``ValueError``; otherwise the first
    member that is no bijection on 0..n-1 raises the ``ValueError`` that
    ``Permutation`` gives for it. The check and the sort run on the whole
    matrix at once; duplicates are dropped."""

    def __init__(self, n: int, members: Iterable[Sequence[int]] | np.ndarray) -> None:
        matrix = isinstance(members, np.ndarray) and members.ndim == 2 and len(members) > 0
        if matrix and members.dtype.kind in "iu":
            if members.shape[1] != n:
                raise ValueError(f"member of length {members.shape[1]} in an array on {n} points")
            rows = members
        else:
            members = list(members)
            for length in map(len, members):
                if length != n:
                    raise ValueError(f"member of length {length} in an array on {n} points")
            rows = np.array(list(chain.from_iterable(members)))
            if rows.dtype.kind not in "iu":
                # floats, strings, bools, integers beyond int64, or no entries
                # at all: Permutation judges each member as given
                for p in members:
                    Permutation(p)
                rows = rows.astype(np.int64)
            rows = rows.reshape(len(members), max(n, 0))  # n < 0 comes only with no members
        # the check sorts the rows in their own dtype before they narrow, a
        # slab of at most _CHECK_ENTRIES entries at a time: a sort of int8
        # rows widened to int32 is 0.1-0.2 ms faster for S_7 and pgl2 11,
        # but the wide copy raises the peak RSS of building S_7 by 128 KB
        # and of S_8 by 1.5 MB
        bad = np.empty(len(rows), dtype=bool)
        step = max(1, _CHECK_ENTRIES // max(n, 1))
        for start in range(0, len(rows), step):
            slab = rows[start:start + step]
            bad[start:start + step] = (np.sort(slab, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            Permutation(rows[bad.argmax()].tolist())  # raises for the first bad row
        # np.lexsort is fastest on the narrowest rows; the selections below
        # copy, so rows given narrow are not copied here
        rows = rows.astype(_row_dtype(n), copy=False)
        if n > 0:  # a sort needs a key; with none, every row is the empty one
            rows = rows[np.lexsort(rows.T[::-1])]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        self.n = n
        self.rows = rows[keep]
        self.rows.flags.writeable = False

    @cached_property
    def members(self) -> tuple[Permutation, ...]:
        # the rows are checked bijections, so skip Permutation's own check
        return tuple(map(partial(tuple.__new__, Permutation), self.rows.tolist()))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, p: object) -> bool:
        if not isinstance(p, Permutation) or len(p) != self.n:
            return False
        i = bisect_left(self.members, p)
        return i < len(self.members) and self.members[i] == p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermutationArray):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return f"PermutationArray(n={self.n}, size={len(self)})"

    def min_distance(self) -> int:
        """Exact pairwise minimum Hamming distance; needs >= 2 members."""
        if len(self) < 2:
            raise ValueError("minimum distance needs at least two members")
        return _least_distance(self.rows)


@dataclass(frozen=True)
class BinaryCwCode:
    """A binary constant-weight code stored as sorted support tuples, with
    the distance its builder promises (indicator distance between two words
    is 2 * (weight - overlap), always even)."""

    n: int
    weight: int
    words: tuple[tuple[int, ...], ...]
    distance: int

    def __post_init__(self) -> None:
        seen = set()
        for word in self.words:
            if tuple(sorted(word)) != word or len(set(word)) != len(word):
                raise ValueError(f"word {word!r} is not a sorted duplicate-free tuple")
            if len(word) != self.weight:
                raise ValueError(f"word {word!r} does not have weight {self.weight}")
            if word and not (0 <= word[0] and word[-1] < self.n):
                raise ValueError(f"word {word!r} outside 0..{self.n - 1}")
            if word in seen:
                raise ValueError(f"duplicate word {word!r}")
            seen.add(word)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def violations(self, d: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """All word pairs at indicator distance below d, in the order of
        ``itertools.combinations``. The indicator vectors' Hamming distance is
        2 * (weight - overlap)."""
        words = self.words
        return [(words[i], words[j], dist)
                for i, j, dist in pairs_below(indicator_rows(self.n, self._supports()), d)]

    def _supports(self) -> np.ndarray:
        """The words as the rows of an (m, weight) index matrix."""
        return np.array(self.words, dtype=np.intp).reshape(len(self.words), self.weight)


def indicator_rows(n: int, supports: np.ndarray) -> np.ndarray:
    """The int8 0/1 rows of length n marking the points of each row of an
    (m, w) support matrix."""
    rows = np.zeros((len(supports), n), dtype=np.int8)
    np.put_along_axis(rows, supports, 1, axis=1)
    return rows


def _cycle_rows(n: int, supports: np.ndarray) -> np.ndarray:
    """The permutations of n points that each cycle the points of one row of
    an (m, w) support matrix, every point to the next in the row and the
    last to the first, and fix everything else."""
    rows = np.tile(np.arange(n, dtype=_row_dtype(n)), (len(supports), 1))
    np.put_along_axis(rows, supports, np.roll(supports, -1, axis=1), axis=1)
    return rows


# The most entries, members times points, that a gated builder makes. The
# largest array each family admits peaks at 0.41-0.58 GB with int16 rows
# (cyclic 8192 and block-cycle 11585 2 at 0.41 GB, agl 401, whose products
# need int32, at 0.58 GB) and at 0.1-0.2 GB with int8 rows (symmetric and
# alternating 10, pgl2 89), each measured as one process's peak RSS.
_BUILD_ENTRIES = 1 << 26


def _check_size(points: int, factors: Iterable[int]) -> None:
    """The size rule the named families, block cycles and the greedy
    Steiner packing apply before they allocate: the member count, the
    product of ``factors``, times ``points`` is at most ``_BUILD_ENTRIES``.
    The product stops once past it, so n! is never worked out for a large
    n."""
    entries = points
    for factor in factors:
        entries *= factor
        if entries > _BUILD_ENTRIES:
            raise ValueError(f"array too large to build: more than {_BUILD_ENTRIES:,} "
                             f"entries (members x points)")


def _check_block(n: int, k: int) -> None:
    """The rule on blocks of k of n points: 2 <= k <= n."""
    if k < 2:
        raise ValueError(f"block size must be at least 2: {k}")
    if n < k:
        raise ValueError(f"need n >= block size; got n={n}, block size={k}")


def block_cycle_cwpa(n: int, k: int) -> PermutationArray:
    """The floor(n/k) permutations of n points that each cycle one block
    [ik, ik + k - 1] of k consecutive points and fix everything else.

    Supports are disjoint, so with at least two members the pairwise distance
    is exactly 2k; every member has weight exactly k. Meets the exact value
    floor(n/k) for weight-k arrays at distance 2k.
    """
    _check_block(n, k)
    _check_size(n, (n // k,))
    return PermutationArray(n, _cycle_rows(n, np.arange(n // k * k).reshape(n // k, k)))


def greedy_partial_steiner(n: int, blocksize: int) -> BinaryCwCode:
    """Greedy lexicographic partial Steiner packing: scan the size-
    ``blocksize`` subsets of {0..n-1} in lexicographic order, keeping each
    block that meets every kept block in at most one point.

    Two blocks meet in two or more points exactly when they share a pair, so
    the scan keeps one covered-pair bitmask per point (bit b of
    ``covered[a]``, a < b, is set when {a, b} lies in a kept block): a block
    is kept when none of its pairs is covered, and keeping it covers them.
    The cost is C(blocksize, 2) bit tests per subset, whatever the number
    of kept blocks.

    The result is a constant-weight code with indicator distance at least
    2 * (blocksize - 1). Greedy is not always maximum, but at (7, 3) it does
    reach the full 7-block packing.
    """
    _check_block(n, blocksize)
    # the kept blocks share no pair, so they number at most the packing
    # bound C(n, 2) / C(blocksize, 2)
    _check_size(n, (comb(n, 2) // comb(blocksize, 2),))
    covered = [0] * n
    words = []
    for block in combinations(range(n), blocksize):
        for a, b in combinations(block, 2):
            if covered[a] >> b & 1:
                break
        else:
            for a, b in combinations(block, 2):
                covered[a] |= 1 << b
            words.append(block)
    return BinaryCwCode(n, blocksize, tuple(words), 2 * (blocksize - 1))


def lift_binary_cw_code(code: BinaryCwCode, k: int) -> PermutationArray:
    """Turn a weight-(k+1) binary code with pairwise support overlap at most
    one point into a permutation array of weight k+1 and distance >= 2k + 1:
    each word becomes the cycle sending every support point to the next in
    sorted order (the largest wraps to the smallest).

    Two lifted members disagree on every point where exactly one support is
    present (>= 2k of them) and on at least one shared point when the
    supports meet, which is where the odd extra position comes from; disjoint
    supports give distance 2k + 2.
    """
    if k < 1:
        raise ValueError(f"need k >= 1: {k}")
    if code.weight != k + 1:
        raise ValueError(f"lift needs weight {k + 1} words, code has weight {code.weight}")
    supports = code._supports()
    # weight-(k+1) supports sharing s points are at indicator distance
    # 2 * (k + 1 - s), so the pairs sharing two or more are those below 2k;
    # the first block that holds one gives the pair to name
    bad = next(pairs_below(indicator_rows(code.n, supports), 2 * k), None)
    if bad is not None:
        i, j, dist = bad
        raise ValueError(f"supports {code.words[i]!r} and {code.words[j]!r} share "
                         f"{k + 1 - dist // 2} points; at most 1 allowed")
    return PermutationArray(code.n, _cycle_rows(code.n, supports))


def _least_factor(q: int) -> int | None:
    """The least factor above 1 of q, which is prime, or None when q < 2;
    so q is prime when it is its own least factor."""
    if q < 2:
        return None
    return next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)


def _is_prime_power(q: int) -> bool:
    # q is a power of its least factor p when dividing p out leaves 1
    p = _least_factor(q)
    if p is None:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def _cyclic(n: int) -> PermutationArray:
    _check_size(n, (n,))
    x = np.arange(n, dtype=_row_dtype(2 * n))  # sums reach 2n - 2
    rows = x + x[:, None]
    rows %= n
    return PermutationArray(n, rows)


def _symmetric(n: int) -> PermutationArray:
    _check_size(n, range(2, n + 1))
    return PermutationArray(n, np.concatenate(list(permutation_rows(n, 0))))


def _alternating(n: int) -> PermutationArray:
    _check_size(n, range(3, n + 1))  # n!/2 members, one for n < 3
    # a permutation is even when its inversions, the pairs i < j with
    # p(i) > p(j), are even in number
    i, j = np.triu_indices(n, 1)
    return PermutationArray(n, np.concatenate([
        rows[np.count_nonzero(rows[:, i] > rows[:, j], axis=1) % 2 == 0]
        for rows in permutation_rows(n, 0)]))


def _affine_rows(p: int) -> np.ndarray:
    """The maps x -> ax + b, a != 0, over the field of prime order p, as the
    rows of a (p(p-1), p) matrix, in the narrowest dtype that holds the
    products ax + b, which stay below p * p."""
    # each a in 1..p-1 with each b in 0..p-1
    a, b = np.divmod(np.arange(p, p * p, dtype=_row_dtype(p * p)), p)
    rows = a[:, None] * np.arange(p, dtype=a.dtype)
    rows += b[:, None]
    rows %= p
    return rows


def _affine(p: int) -> PermutationArray:
    """All maps x -> ax + b over the field of prime order p: p(p-1)
    permutations, pairwise distance p - 1 (two distinct affine maps agree on
    at most one point)."""
    if _least_factor(p) != p:
        raise ValueError(f"affine family needs a prime modulus: {p}")
    _check_size(p, (p, p - 1))
    return PermutationArray(p, _affine_rows(p))


def _projective(p: int) -> PermutationArray:
    """All fractional-linear maps x -> (ax + b)/(cx + d), ad - bc != 0 over
    the field of prime order p, acting on the projective line {0..p-1, inf}
    with inf encoded as index p: (p+1)p(p-1) permutations of p + 1 points at
    pairwise distance p - 1 (two distinct maps agree on at most two points).

    Scaling (a, b, c, d) by a nonzero constant gives the same map, so each
    map has one normalised matrix: c = 0 and d = 1, the affine maps, which
    fix inf; or c = 1, where (ax + b)/(x + d) = a + (b - ad)/(x + d) is the
    affine map y -> (b - ad)y + a after y = 1/(x + d), which sends the pole
    -d to inf and inf to 0. So each c = 1 map is an affine row read at the
    points 1/(x + d), one shift per d.
    """
    if _least_factor(p) != p:
        raise ValueError(f"projective family needs a prime modulus: {p}")
    _check_size(p + 1, (p + 1, p, p - 1))
    # the affine maps fix inf; narrowed first, as the shifts copy them p times
    affine = _affine_rows(p)
    affine = np.c_[affine, np.full(len(affine), p, dtype=affine.dtype)].astype(_row_dtype(p + 1))
    x = np.arange(p)
    inverses = (np.outer(x, x) % p == 1).argmax(axis=1)  # 0 has none: its entry is 0
    # row d of shifts is y = 1/(x + d) on the line: the pole -d to inf, inf to 0
    shifts = np.c_[inverses[(x + x[:, None]) % p], np.zeros(p, dtype=np.intp)]
    shifts[x, -x % p] = p
    return PermutationArray(p + 1, np.concatenate([affine, affine[:, shifts].reshape(-1, p + 1)]))


# family name -> builder
_PERFECT_FAMILIES = {
    "cyclic": _cyclic,
    "symmetric": _symmetric,
    "alternating": _alternating,
    "agl": _affine,
    "pgl2": _projective,
}


def perfect_families() -> tuple[str, ...]:
    """Names accepted by ``perfect_pa``."""
    return tuple(_PERFECT_FAMILIES)


def perfect_pa(family: str, param: int) -> PermutationArray:
    """Build a member of one of the distance-optimal families by name:
    "cyclic", "symmetric" or "alternating" (param = number of points, at
    least 1), or "agl" / "pgl2" (param = a prime modulus; composite moduli
    are rejected, prime-power fields are out of scope)."""
    try:
        builder = _PERFECT_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(_PERFECT_FAMILIES)}"
        ) from None
    if builder not in (_affine, _projective):
        _check_points(param)
    return builder(param)


def known_perfect(n: int, d: int) -> bool:
    """Whether (n, d) is on the list of parameters where the quotient bound
    n!/(d-1)! is known to be met with equality.

    Covers the constructible families above (extended to prime-power fields,
    where the same constructions work but are not built here) and the two
    sporadic multiply-transitive families at (11, 8) and (12, 8).
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

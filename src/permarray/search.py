"""Exhaustive search oracles for small permutation arrays and constant-weight
codes, via branch-and-bound maximum-clique search.

Each oracle counts its vertices in closed form, then hands one pipeline,
``_solve``, its vertices in their fixed enumeration order (see ``perm``) as
a stream of small-integer row blocks, a group of maps that keep their
distances (two vertices are adjacent when their distance clears the
target), and a builder that makes its witness from the chosen rows;
``_solve`` returns the ``SearchOutcome``. The blocks come from
``perm.permutation_rows`` (chunks of ``itertools.permutations`` read into
numpy, with the weight filter applied to the whole chunk),
``perm.weight_rows`` (each support's derangements by index arithmetic) and
``_word_rows`` (0/1 words placed by their supports), so no per-vertex
object is made. If the budget, or the memory the conflict bitsets would
take, rules out a real search, the vertices are never listed:
the "lower-bound-only" witness is the lowest-index greedy clique, read from
each block 256 rows at a time: ``_greedy_clique``, the one greedy rule,
picks among the rows of a slice that ``perm.distances``, the distance
kernel's cross form, finds far from every row kept so far. Otherwise the
blocks are joined into one matrix, reversed, and the same greedy clique
seeds a search that keeps each open node's candidates and color order
(packed as ``color << 17 | vertex`` in an ``array("q")``) on an explicit
stack instead of recursing; one loop opens and branches every node, the
root as node 1. At every node the candidates get the
first-fit coloring in index order (classes with no internal edge; a
clique takes at most one vertex per class), built one class at a time on
bitsets as in BBMC (San Segundo et al. 2011), and branching walks them in
descending color order so the color number doubles as a per-branch bound.
Vertices whose color cannot lift the node past the incumbent are colored but
never listed, since the branch loop would stop before them. Everything is
a deterministic function of the input, so identical inputs and node limits
always reproduce the same witness. For full-array searches the identity can be
assumed to be a member (composing every member with one member's inverse
preserves all distances), so the search runs over permutations at distance
>= d from the identity and adds the identity back to the witness.

The graph is stored as conflict masks: bit u of ``conflicts[v]`` is set when
u and v are at distance below the target (v itself excluded), so a color
class keeps, vertex by vertex, the candidates in conflict with every member
so far (``q &= conflicts[v]``), and a branch keeps the candidates out of
conflict (``cand ^ (cand & conflicts[v])``). The search lists the vertices
in reverse and always takes the highest index first, which on the reversed
list is the lowest index of the enumeration order: every coloring, branch,
node count and witness is the one the enumeration order gives. Python ints
shrink to their highest set bit, so clearing from the top makes each ``&``
and ``^`` cheaper as a class fills, and no operand is negative (a negative
int costs a two's-complement pass per operation). A vertex v leaves a set
through its single-bit int ``1 << v``, made once per search (about
m^2 / 16 bytes, half the conflict masks, and counted with them against the
memory gate), so no coloring or branching step allocates a bit of its own.
The coloring and the branch step read these ints and the conflict masks
in lists indexed by ``bit_length()``, v at v + 1, so the highest
candidate's ``bit_length()`` indexes them as it is, and a colored vertex
past 256 (the largest int CPython keeps cached) costs one new int, not
two. The witness is read off the reversed matrix as rows.

Every node prunes whole orbits, in the spirit of orbital branching
(Ostrowski et al. 2011). The group is one of distance-preserving maps of
the vertex set onto itself: for permutations, x -> g x g^-1 and
x -> g x^-1 g^-1 for g in S_n (they fix the identity and keep weights and
distances; the whole group's orbits are the cycle types), and for
constant-weight words, S_n permuting coordinates (it takes any word to any
other, so the root has one orbit). When the loop returns to a node whose
clique is C, the node's branch on v is done, and v's orbit under the
pointwise stabiliser of C leaves the node's candidates; the root is the
case C = {} (for full arrays, C = {identity}). This is sound because a
node's candidates are always a union of its stabiliser's orbits: a clique
among them that meets v's orbit is mapped by the stabiliser onto a clique
of the same size through v, still among them, which v's branch has
searched. Each stabiliser is worked out from its parent's on the first
return to its node, so a node's first branch is always unpruned and a run
that stops before returning to a node never computes its group; the search
keeps None for a trivial stabiliser, and below it asks the group nothing
more. Symmetries share one base class, ``_Symmetry``, whose ``fix`` gives
the trivial subgroup unless a group knows better. S_n is listed as a matrix
up to 8 points; past that, only the whole group's orbits are used. A
constant-weight search needs one root branch; the stabiliser of its words
is the Young subgroup of the atoms their supports cut the coordinates into.

The limits are one budget, taken when the search starts, before any vertex
is listed: a node cap, which is deterministic, and a deadline, which covers
listing the vertices, building the conflict masks, the search and the greedy
witness alike. The clock is read every 256 nodes, or, in the streamed
greedy, after each slice of at most 256 vertices it reads and each 256
kept rows it checks them against, so the deadline is best-effort; past it
the best clique found so far is the witness. Each phase's wall time, on
``time.perf_counter`` (the deadline keeps ``time.monotonic``), is reported
in ``SearchOutcome.seconds``.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain, combinations, islice

import numpy as np

from .bounds import _check_cw_code, _check_cw_pa, _check_distance
from .constructions import BinaryCwCode, PermutationArray, _name_pairs, indicator_rows
from .exactmath import ball_volume, binomial, derangement_count, factorial
from .perm import (
    _LIST_ROWS,
    Permutation,
    cycle_type,
    distance_blocks,
    distances,
    pairs_below,
    permutation_rows,
    weight_rows,
)

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND_ONLY = "lower-bound-only"
STATUS_INCOMPLETE = "incomplete"

# A color-order code is color << 17 | vertex; the adjacency gate keeps both
# below 2^17
_VERTEX = (1 << 17) - 1

# Largest graph, in bytes of conflict masks and single-bit table, that a
# search may build: S_8 (40,320 vertices, about 203 + 102 MB) fits, S_9
# (about 16.5 + 8.2 GB) does not.
_ADJACENCY_BYTES = 1 << 30


@dataclass(frozen=True)
class SearchLimits:
    """Budget for one search; None disables that limit. A limit is a
    number >= 0 (zero rules out any search node, inf never stops it), so a
    negative or NaN limit raises ``ValueError``."""

    max_nodes: int | None = 100_000_000
    max_seconds: float | None = 300.0

    def __post_init__(self) -> None:
        for name, limit in (("node", self.max_nodes), ("time", self.max_seconds)):
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} limit must be >= 0 or None: {limit}")


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: ``value``, the witness size, is exact when
    ``status`` is "exact", otherwise a witnessed lower bound ("incomplete"
    means the search was interrupted mid-run; "lower-bound-only" means the
    limits, or the memory the adjacency would take, ruled out any search
    node, so only a greedy witness was built).
    ``witness`` always verifies at the target distance.

    ``seconds`` holds the wall time of each phase the call went through:
    "listing" (the vertex matrix), "conflict_masks" and "search" when a
    search ran, "greedy" when only the greedy witness was built. It is
    measured, so it takes no part in comparisons."""

    status: str
    witness: PermutationArray | BinaryCwCode
    nodes: int = 0
    pruned: tuple[int, ...] = ()
    seconds: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def value(self) -> int:
        return len(self.witness)


def _greedy_clique(conflicts: list[int]) -> list[int]:
    """Clique built by repeatedly taking the highest-index vertex that
    conflicts with no vertex taken so far; ``conflicts[v]`` is v's conflict
    bitmask. On the reversed vertex list this is the lowest-index greedy
    clique of the listing order."""
    chosen: list[int] = []
    allowed = (1 << len(conflicts)) - 1
    while allowed:
        v = allowed.bit_length() - 1
        chosen.append(v)
        allowed ^= 1 << v
        allowed ^= allowed & conflicts[v]
    return chosen


def _greedy_stream(blocks: Iterable[np.ndarray], d: int, deadline: float) -> np.ndarray:
    """The same lowest-index greedy clique, read from a stream of row
    blocks (at least one, possibly empty) 256 rows at a time: the rows of a
    slice at distance >= d from every row kept so far, checked against the
    kept rows 256 at a time with ``distances``, are its candidates, and
    ``_greedy_clique`` on their conflict masks, reversed, keeps its share of
    the clique. Memory scales with the clique, not with the stream. The
    clock is read after each check and after each slice, so one check's
    work bounds the overrun; past the deadline the rows kept so far are
    returned, as the rows of a matrix."""
    blocks = iter(blocks)
    first = next(blocks)
    kept = first[:0]
    for block in chain([first], blocks):
        for start in range(0, len(block), 256):
            rows = block[start:start + 256]
            far = np.ones(len(rows), dtype=bool)
            for top in range(0, len(kept), 256):
                far &= (distances(rows, kept[top:top + 256]) >= d).all(axis=1)
                if time.monotonic() > deadline:
                    return kept
            rows = rows[far][::-1]
            kept = np.concatenate([kept, rows[_greedy_clique(_conflict_masks(rows, d))]])
            if time.monotonic() > deadline:
                return kept
    return kept


def _color_order(cand: int, conflict_at: list[int], bit_at: list[int], kmin: int) -> array:
    """Greedy first-fit coloring of the candidate set in descending index
    order, built one class at a time: each class takes the highest remaining
    vertex, keeps only the vertices in conflict with it, and repeats until
    nothing is left to add.

    Both tables are indexed by ``bit_length()``, vertex v at v + 1, with
    entry 0 unused: ``conflict_at[v + 1]`` is v's conflict mask and
    ``bit_at[v + 1]`` is ``1 << v``, made once per search, so a colored
    vertex costs its ``bit_length()`` and no other int.

    Returns the codes ``color << 17 | vertex`` in the order colored, colors
    ascending and vertices descending within a class, leaving out vertices
    whose color is below ``kmin`` (their classes are still built, so later
    colors are unchanged); the color of a vertex bounds any clique drawn
    from it and the vertices colored before it. The adjacency gate keeps
    every vertex, and so every color, below 2^17."""
    order = array("q")
    k = 0
    while cand and k + 1 < kmin:
        k += 1
        q = cand
        while q:
            b = q.bit_length()
            cand ^= bit_at[b]
            q &= conflict_at[b]
    while cand:
        k += 1
        # (k << 17) - 1 + b is k << 17 | b - 1, the code of vertex b - 1
        color = (k << 17) - 1
        q = cand
        while q:
            b = q.bit_length()
            cand ^= bit_at[b]
            q &= conflict_at[b]
            order.append(color + b)
    return order


def _max_clique(
    conflicts: list[int], group: _Symmetry, max_nodes: float, deadline: float
) -> tuple[list[int], bool, int, tuple[int, ...]]:
    """Largest clique among vertices 0..m-1 with the given conflict bitmasks
    (two vertices are adjacent when neither is in the other's mask).

    One loop opens every node, the root as node 1: it pushes the parent's
    candidates and color order, colors the new node's candidates, and
    branches on them in descending color order. ``group`` is a group of
    automorphisms of the graph. When the loop returns to a node whose
    clique is C, that node's branch on v is done, and the orbit of v under
    the pointwise stabiliser of C leaves the node's candidates and color
    order. The node's candidates stay a union of those orbits, so any clique
    among them that meets v's orbit maps onto one through v, which v's
    branch has covered; a child's candidates, the parent's that avoid v's
    conflicts, are then a union of orbits of the smaller stabiliser that
    also fixes v. Each open node's stabiliser waits in a list beside the
    node, None when it is trivial, and is worked out on the first return to
    the node from its parent's (None below None); a search that stops before
    it returns to a node never computes that node's group, and nodes below a
    trivial stabiliser ask the group nothing.

    Returns (vertex indices in the order they were added, exhausted, nodes,
    pruned), where ``pruned[k]`` counts the vertices that orbits removed
    from nodes whose clique has k vertices. Past ``max_nodes`` nodes, or
    past the deadline (read at nodes 1, 257, 513, ...), the best clique
    found so far is returned with exhausted False.
    """
    best = _greedy_clique(conflicts)
    # indexed by bit_length(), vertex v at v + 1: v's conflict mask and 1 << v
    conflict_at, bit_at = [0, *conflicts], [0, *(1 << v for v in range(len(conflicts)))]
    nodes = 0
    pruned: list[int] = []
    # the open node's candidates and color order are held in cand/order, and
    # each open ancestor's pair waits on the stack above the empty pair the
    # root pushed, so len(stack) == len(current) + 1 while a node is open;
    # stabs[k] is the stabiliser of the open node at depth k, None when it is
    # trivial, and the list stops short at nodes not yet returned to
    stack: list[tuple[int, array]] = []
    stabs: list = []
    current: list[int] = []
    cand, order = 0, array("q")
    sub = (1 << len(conflicts)) - 1
    while True:
        if sub:
            nodes += 1
            if nodes > max_nodes or (nodes & 255 == 1 and time.monotonic() > deadline):
                return best, False, nodes, tuple(pruned)
            stack.append((cand, order))
            kmin = len(best) - len(current) + 1
            # too few candidates to beat the incumbent: nothing to color
            cand = sub
            order = (_color_order(sub, conflict_at, bit_at, kmin) if sub.bit_count() >= kmin
                     else array("q"))
            sub = 0
            continue
        # every unprocessed candidate has color <= the last one, so the node
        # cannot beat the incumbent once the check fails
        if order and len(current) + (order[-1] >> 17) > len(best):
            v = order.pop() & _VERTEX
            cand ^= bit_at[v + 1]
            current.append(v)
            sub = cand ^ (cand & conflict_at[v + 1])
            if sub:
                continue
            if len(current) > len(best):
                best = current.copy()
        elif current:
            cand, order = stack.pop()
        else:
            return best, True, nodes, tuple(pruned)
        # a leaf or a finished node: back at its parent, drop its vertex's orbit
        v = current.pop()
        depth = len(current)
        # entries past depth belong to closed nodes, and below None all is None
        if not stabs:
            stabs.append(group.whole())
        del stabs[depth + 1:]
        while len(stabs) <= depth:
            parent = stabs[-1]
            stabs.append(None if parent is None else group.fix(parent, current[len(stabs) - 1]))
        if stabs[depth] is not None:
            gone = cand & group.orbit(stabs[depth], v)
            if gone:
                cand ^= gone
                pruned.extend([0] * (depth + 1 - len(pruned)))
                pruned[depth] += gone.bit_count()
                order = array("q", [c for c in order if cand >> (c & _VERTEX) & 1])


def _conflict_masks(vectors: Sequence[Sequence[int]] | np.ndarray, d: int) -> list[int]:
    """Conflict bitmasks for "coordinate-wise distance >= d" on equal-length
    integer vectors: bit u of v's mask is set when u != v and the two are at
    distance < d, so no clique holds both."""
    conflicts: list[int] = []
    for start, _, block in distance_blocks(vectors):
        close = block < d
        np.fill_diagonal(close[:, start:], False)
        packed = np.packbits(close, axis=1, bitorder="little")
        conflicts.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return conflicts


def _over_budget_upfront(m: int, limits: SearchLimits) -> bool:
    """Whether the search must not start: more vertices than nodes allowed,
    no time at all, or a graph too big to hold: conflict masks (m rows of m
    bits) and the single-bit ints (``1 << v`` for each vertex v, about
    m^2 / 16 bytes). The two lists that index them by ``bit_length()``
    hold these same ints, so they add only references."""
    if limits.max_nodes is not None and m > limits.max_nodes:
        return True
    if m * ((m + 7) // 8) + m * m // 16 > _ADJACENCY_BYTES:
        return True
    return limits.max_seconds is not None and limits.max_seconds <= 0


def _mask(bits: np.ndarray) -> int:
    """The bitmask with bit i set where ``bits[i]`` is true."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class _Symmetry:
    """A group of distance-preserving maps of a vertex set onto itself, and
    its subgroups, for ``_max_clique``; ``rows`` holds the vertices in
    search order. A group is whatever object the subclass chooses, or None
    for the trivial group, below which the search asks nothing more. Each
    subclass gives ``whole`` and ``orbit``; ``fix`` may return any subgroup
    of the stabiliser, since the trivial one is always sound, and returns
    that one unless a subclass knows better."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def whole(self) -> object | None:
        """The whole group."""

    def fix(self, group: object, v: int) -> object | None:
        """The subgroup of ``group`` that fixes vertex v."""
        return None

    def orbit(self, group: object, v: int) -> int:
        """The bitmask of v's orbit under ``group``."""


# S_n is listed as an (n!, n) matrix up to n = 8 (40,320 rows, 2.6 MB)
_LISTED_DEGREE = 8


@cache
def _symmetric_group(n: int) -> np.ndarray:
    """The permutations of n <= ``_LISTED_DEGREE`` points as the rows of a
    read-only matrix, listed once per n, since searches with node caps may
    otherwise spend a large share of their time listing them."""
    g = np.concatenate(list(permutation_rows(n, 0)), dtype=np.intp)
    g.flags.writeable = False
    return g


class _Conjugation(_Symmetry):
    """The maps x -> g x g^-1 and x -> g x^-1 g^-1 of S_n, on a vertex set of
    permutations that is closed under them (every set of the permutations of
    given weights is): they keep weights and distances and fix the identity.
    A group is the pair of (k, n) matrices that list its g of each kind;
    when every vertex is an involution, inversion acts as the identity and
    the second kind is left out. A vertex's images are found by integer
    code, the base-n number its images spell."""

    def whole(self) -> object | None:
        m, n = self.rows.shape
        g = _symmetric_group(n)
        involutions = (self.rows[np.arange(m)[:, None], self.rows] == np.arange(n)).all()
        return self._group(g, g[:0] if involutions else g)

    def fix(self, group: object, v: int) -> object | None:
        x = self.rows[v]
        plain, flipped = group
        # g x g^-1 = x when g x = x g, and g x^-1 g^-1 = x when g x^-1 = x g
        return self._group(plain[(plain[:, x] == x[plain]).all(axis=1)],
                           flipped[(flipped[:, np.argsort(x)] == x[flipped]).all(axis=1)])

    def orbit(self, group: object, v: int) -> int:
        power, sorter, codes = self._lookup
        x = self.rows[v]
        # the image y = g x g^-1 has y[g[j]] = g[x[j]], so its code is the
        # sum over j of g[x[j]] * n^g[j]; likewise with x^-1 for flipped g
        images = [(g[:, p] * power[g]).sum(axis=1) for g, p in zip(group, (x, np.argsort(x)))]
        bits = np.zeros(len(self.rows), dtype=bool)
        bits[sorter[np.searchsorted(codes, np.concatenate(images))]] = True
        return _mask(bits)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The powers of n, and the vertex codes' sorting order and values."""
        power = self.rows.shape[1] ** np.arange(self.rows.shape[1])
        codes = self.rows @ power
        sorter = np.argsort(codes)
        return power, sorter, codes[sorter]

    @staticmethod
    def _group(plain: np.ndarray, flipped: np.ndarray) -> object | None:
        return None if len(plain) + len(flipped) <= 1 else (plain, flipped)


class _CycleTypes(_Symmetry):
    """Conjugation on permutations of more than ``_LISTED_DEGREE`` points,
    whose S_n is too big to list: the whole group's orbits are the cycle
    types, and no stabiliser below it is kept."""

    def whole(self) -> object | None:
        labels: dict[tuple[int, ...], int] = {}
        return np.array([labels.setdefault(cycle_type(x), len(labels)) for x in self.rows.tolist()])

    def orbit(self, group: object, v: int) -> int:
        return _mask(group == group[v])


def _conjugation(n: int) -> Callable[[np.ndarray], _Symmetry]:
    """The conjugation group of permutations of n points."""
    return _Conjugation if n <= _LISTED_DEGREE else _CycleTypes


class _Young(_Symmetry):
    """Coordinate permutations acting on 0/1 words of one weight. The words
    a permutation fixes are those whose supports it maps onto themselves, so
    the pointwise stabiliser of a set of words is the Young subgroup of the
    atoms their supports cut the coordinates into, and a word's orbit under
    it is every word with the same number of ones in each atom. A group is
    (atom of each coordinate, each word's count of ones per atom)."""

    def whole(self) -> object | None:
        return self._group(np.zeros(self.rows.shape[1], dtype=np.intp))

    def fix(self, group: object, v: int) -> object | None:
        _, atoms = np.unique(group[0] * 2 + self.rows[v], return_inverse=True)
        return self._group(atoms)

    def orbit(self, group: object, v: int) -> int:
        counts = group[1]
        return _mask((counts == counts[v]).all(axis=1))

    def _group(self, atoms: np.ndarray) -> object | None:
        k = atoms.max(initial=-1) + 1
        if k == len(atoms):  # every atom is one coordinate
            return None
        return atoms, self.rows @ (atoms[:, None] == np.arange(k))


def _solve(
    m: int, blocks: Iterable[np.ndarray], d: int, limits: SearchLimits,
    symmetry: Callable[[np.ndarray], _Symmetry],
    witness: Callable[[np.ndarray], PermutationArray | BinaryCwCode],
) -> SearchOutcome:
    """Largest set of the m vectors that ``blocks`` yields, as the rows of
    one or more integer matrices, with pairwise coordinate-wise distance
    >= d, as the outcome whose witness is ``witness(chosen)``, the chosen
    vectors given as the rows of a matrix. ``symmetry(rows)`` gives a group
    of distance-preserving maps of the vertex set onto itself, given the
    vectors as the rows of a matrix in search order. The clock starts here
    and the gate acts on m before the vertices are read, so listing them
    spends the same time budget as the search. When the budget rules out a
    real search, the greedy clique is streamed, so the vertices are never
    listed. Otherwise they are listed in reverse, so that the search, which
    takes the highest index first, walks them in stream order.
    """
    start = time.perf_counter()
    max_nodes = math.inf if limits.max_nodes is None else limits.max_nodes
    deadline = math.inf if limits.max_seconds is None else time.monotonic() + limits.max_seconds
    if _over_budget_upfront(m, limits):
        kept = _greedy_stream(blocks, d, deadline)
        seconds = {"greedy": time.perf_counter() - start}
        return SearchOutcome(STATUS_LOWER_BOUND_ONLY, witness(kept), seconds=seconds)
    rows = np.concatenate(list(blocks))[::-1]
    listed = time.perf_counter()
    conflicts = _conflict_masks(rows, d)
    masked = time.perf_counter()
    clique, exhausted, nodes, pruned = _max_clique(conflicts, symmetry(rows), max_nodes, deadline)
    seconds = {"listing": listed - start, "conflict_masks": masked - listed,
               "search": time.perf_counter() - masked}
    status = STATUS_EXACT if exhausted else STATUS_INCOMPLETE
    return SearchOutcome(status, witness(rows[clique]), nodes, pruned, seconds)


def _word_rows(n: int, w: int) -> Iterator[np.ndarray]:
    """The 0/1 words of length n and weight w, supports in lexicographic
    order, as the rows of consecutive int8 matrices of at most
    ``perm._LIST_ROWS`` rows (at least one)."""
    supports = combinations(range(n), w)
    while group := list(islice(supports, _LIST_ROWS)):
        yield indicator_rows(n, np.array(group, dtype=np.intp).reshape(len(group), w))


def exact_p(n: int, d: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d, by clique search with the identity forced in. Practical up
    to n = 7 (and small distances only below n = 6) under default limits.

    Conjugation and inversion fix the identity and keep weights and
    distances, so the search prunes the orbits of their stabilisers."""
    _check_distance(n, d)
    m = factorial(n) - ball_volume(n, d - 1)
    return _solve(m, permutation_rows(n, d), d, limits, _conjugation(n),
                  lambda chosen: PermutationArray(n, np.concatenate([np.arange(n)[None], chosen])))


def exact_p_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d and every member of weight exactly w. The identity is not a
    member (its weight is 0), so the clique runs over all the weight-w
    permutations. Conjugation and inversion keep weights and distances, so
    the search prunes the orbits of their stabilisers. The arguments follow
    the P(n, d, w) rule that ``bounds.cw_pa_bound`` applies."""
    _check_cw_pa(n, d, w)
    m = binomial(n, w) * derangement_count(w)
    return _solve(m, weight_rows(n, w), d, limits, _conjugation(n), partial(PermutationArray, n))


def exact_a_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a binary code of length n, constant weight w,
    minimum distance d (even: distances between equal-weight words are always
    even). Permuting coordinates keeps distances and takes any word to any
    other, so the search needs one root branch, and below it prunes the
    orbits of the Young subgroups that fix the words chosen so far. The
    arguments follow the A(n, d, w) rule that ``bounds.cw_binary_bound``
    applies."""
    _check_cw_code(n, d, w)
    return _solve(binomial(n, w), _word_rows(n, w), d, limits, _Young,
                  lambda chosen: BinaryCwCode(
                      n, w, tuple(tuple(np.flatnonzero(row).tolist()) for row in chosen), d))


def verify_pa(array: PermutationArray, d: int) -> list[tuple[Permutation, Permutation, int]]:
    """All member pairs at distance below d, in row-major pair order; an empty
    list means the array verifies at distance d."""
    pairs = pairs_below(array.rows, d)
    # the members are not built when there is nothing to report
    return _name_pairs(pairs, array.members) if pairs else pairs

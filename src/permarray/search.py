"""Exhaustive search oracles for small permutation arrays and constant-weight
codes, via branch-and-bound maximum-clique search.

Each oracle counts its vertices in closed form, then hands one pipeline,
``_solve``, its vertices in their fixed enumeration order (see ``perm``) as
a stream of small-integer row blocks, a group of maps that keep their
distances (two vertices are adjacent when their distance clears the
target), and a builder that makes its witness from the chosen rows;
``_solve`` returns the ``SearchOutcome``. The blocks come from
``perm.permutation_rows`` (one prefix per block, followed by the tails
listed once as S_k, by index arithmetic, with the weight filter applied to
the whole block), ``perm.weight_rows`` (each support's derangements by
index arithmetic) and ``_word_rows`` (0/1 words placed by their supports),
so no per-vertex object is made. If the budget, or the memory the conflict
bitsets would take, rules out a real search, the vertices are never listed:
the "lower-bound-only" witness is the lowest-index greedy clique, read from
each block 256 rows at a time: ``_greedy_clique``, the one greedy rule,
picks among the rows of a slice that ``perm.distances``, the distance
kernel's cross form, finds far from every row kept so far. Otherwise the
blocks are joined into one matrix, reversed, and the root's symmetry group
(below) is built up front. One greedy dive starts from the highest-index
vertex of each of its orbits; the first dive is the plain greedy clique,
and it seeds the search as its incumbent.

Each oracle passes ``_solve`` an upper bound on its clique: P(n, d) from
``bounds.best_upper_bound`` less one (the identity is forced in), P(n, d, w)
from ``bounds.cw_pa_bound`` and A(n, d, w) from ``bounds.cw_binary_bound``,
or None where the rule does not apply. A witness that reaches it is a
certificate: when a dive does, the root node is closed without a tree or
further dives, and the outcome is exact after 1 node (P(5,4), P(6,4), P(7,6),
A(12,6,4), P(9,6,3), and on Johnson's 1962 bound A(11,6,4) and P(9,7,4),
close so), and a streamed greedy witness that does is exact with no node.
Otherwise the search runs the same tree from the same incumbent as without
the dives, and ends as soon as its incumbent reaches the bound: every later
incumbent would be larger, and none can pass the bound, so the witness is
the one the whole tree returns, after fewer nodes (A(10,4,3) 151 -> 13,
P(9,5,3) 4,005 -> 26). A run cut short returns the longest dive where it
beats the search's own witness, as a floor (P(7,4) after 5,000 nodes: 272
by the search, 298 by a dive). The dive is never made the incumbent: a
larger one turns capped trees toward costlier shallow nodes.

The search keeps each open node's candidates and color order
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

The graph is stored as conflict masks, which ``perm._conflict_masks`` reads
off the distance kernel's full rows: bit u of ``conflicts[v]`` is set when
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
searched. A group is an object that answers ``fix(v)``, the subgroup that
fixes vertex v (any subgroup of it is sound), and ``orbit(v)``, v's orbit as
a bitmask; None stands for the trivial group. The oracle hands ``_solve``
the root group's class, which takes the vertex matrix: ``_CycleTypes`` for
permutations and ``_Young`` for words. Both read their orbits as the level
sets of one invariant row per vertex, computed once in numpy: each point's
cycle length, sorted (found by one gather per power of every vertex at
once), or a word's count of ones in each atom. Every other stabiliser is
worked out from its parent's on the first return to its node, so a node's
first branch is always unpruned and a run that stops before returning to a
node never computes its group; the search keeps None for a trivial
stabiliser, and below it asks nothing more. Below the root, conjugation
lists the maps that fix the clique (``_Centraliser``, filtered from S_n,
which is listed as a matrix up to 8 points; past that, the stabiliser is
taken as trivial). A constant-weight search needs one root branch; the
stabiliser of its words is the Young subgroup of the atoms their supports
cut the coordinates into.

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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, combinations, islice
from typing import Protocol

import numpy as np

from .bounds import best_upper_bound, cw_binary_bound, cw_pa_bound
from .constructions import BinaryCwCode, PermutationArray, indicator_rows
from .exactmath import ball_volume, binomial, derangement_count, factorial
from .perm import (
    _LIST_ROWS,
    Permutation,
    _conflict_masks,
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
    negative or NaN limit raises ``ValueError``. A node cap below the
    number of vertices rules out the search and its root dives alike, so
    only the greedy witness is built: ``exact_p(8, 6,
    SearchLimits(max_nodes=10))`` is lower-bound-only at 77, where the
    default limits certify 336 at the root."""

    max_nodes: int | None = 100_000_000
    max_seconds: float | None = 300.0

    def __post_init__(self) -> None:
        for name, limit in (("node", self.max_nodes), ("time", self.max_seconds)):
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} limit must be >= 0 or None: {limit}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: ``value``, the witness size, is exact when
    ``status`` is "exact", otherwise a witnessed lower bound ("incomplete"
    means the search was interrupted mid-run; "lower-bound-only" means the
    limits, or the memory the adjacency would take, ruled out any search
    node, so only a greedy witness was built).
    "exact" comes from a search run to the end, or from a witness that meets
    the oracle's upper bound: a greedy dive at the root (1 node), the
    search's incumbent at any node, which ends the search there, or the
    greedy witness alone (0 nodes). ``witness`` always verifies at the
    target distance.

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


def _greedy_clique(conflicts: list[int], start: int | None = None) -> list[int]:
    """Clique built by taking ``start`` (by default the highest-index
    vertex), then repeatedly the highest-index vertex that conflicts with no
    vertex taken so far; ``conflicts[v]`` is v's conflict bitmask. On the
    reversed vertex list the default is the lowest-index greedy clique of
    the listing order."""
    chosen: list[int] = []
    allowed = (1 << len(conflicts)) - 1
    v = len(conflicts) - 1 if start is None else start
    while allowed:
        chosen.append(v)
        allowed ^= 1 << v
        allowed ^= allowed & conflicts[v]
        v = allowed.bit_length() - 1
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
    conflicts: list[int], root: _Group | None, max_nodes: float, deadline: float,
    upper: int | None = None,
) -> tuple[list[int], bool, int, tuple[int, ...]]:
    """Largest clique among vertices 0..m-1 with the given conflict bitmasks
    (two vertices are adjacent when neither is in the other's mask).

    ``root`` is a group of automorphisms of the graph (see ``_Group``), or
    None for the trivial group, and is the root's stabiliser. One greedy
    dive starts from the highest-index vertex of each of its orbits (a
    trivial root group gives one dive); the first dive is the plain greedy
    clique, and it is the incumbent. When a dive reaches ``upper``, an upper
    bound on the clique size, the root node is closed by that certificate,
    no more dives are made, and the dive is returned as exact; when a new
    incumbent reaches it, the search ends there and returns it as exact,
    the clique the whole tree would return, with the nodes and ``pruned``
    counted so far.

    Otherwise one loop opens every node, the root as node 1: it pushes the
    parent's candidates and color order, colors the new node's candidates,
    and branches on them in descending color order. When the loop returns
    to a node whose clique is C, that node's branch on v is done, and the
    orbit of v under the pointwise stabiliser of C leaves the node's
    candidates and color order. The node's candidates stay a union of those
    orbits, so any clique among them that meets v's orbit maps onto one
    through v, which v's branch has covered; a child's candidates, the
    parent's that avoid v's conflicts, are then a union of orbits of the
    smaller stabiliser that also fixes v. Each open node's stabiliser waits
    in a list beside the node, None when it is trivial, and is worked out on
    the first return to the node as its parent's ``fix`` (None below None);
    a search that stops before it returns to a node never computes that
    node's group, and nodes below a trivial stabiliser ask no group
    anything.

    Returns (vertex indices in the order they were added, exhausted, nodes,
    pruned), where ``pruned[k]`` counts the vertices that orbits removed
    from nodes whose clique has k vertices. Past ``max_nodes`` nodes, or
    past the deadline (read at nodes 1, 257, 513, ...), the best clique
    found so far is returned with exhausted False: the search's own, or the
    longest dive where that is larger, as a floor.
    """
    goal = math.inf if upper is None else upper
    dives = []
    rest = (1 << len(conflicts)) - 1
    while rest:
        v = rest.bit_length() - 1
        dive = _greedy_clique(conflicts, v)
        if len(dive) >= goal:
            return dive, True, 1, ()
        dives.append(dive)
        rest = 0 if root is None else rest ^ (rest & root.orbit(v))
    best = dives[0] if dives else []
    floor = max(dives, key=len, default=best)
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
    stabs: list = [root]
    current: list[int] = []
    cand, order = 0, array("q")
    sub = (1 << len(conflicts)) - 1
    while True:
        if sub:
            nodes += 1
            if nodes > max_nodes or (nodes & 255 == 1 and time.monotonic() > deadline):
                return max(best, floor, key=len), False, nodes, tuple(pruned)
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
                # every later incumbent would be larger, and none can pass
                # the bound: the full tree returns this one
                if len(best) >= goal:
                    return best, True, nodes, tuple(pruned)
        elif current:
            cand, order = stack.pop()
        else:
            return best, True, nodes, tuple(pruned)
        # a leaf or a finished node: back at its parent, drop its vertex's orbit
        v = current.pop()
        depth = len(current)
        # entries past depth belong to closed nodes, and below None all is None
        del stabs[depth + 1:]
        while len(stabs) <= depth:
            parent = stabs[-1]
            stabs.append(None if parent is None else parent.fix(current[len(stabs) - 1]))
        if stabs[depth] is not None:
            gone = cand & stabs[depth].orbit(v)
            if gone:
                cand ^= gone
                pruned.extend([0] * (depth + 1 - len(pruned)))
                pruned[depth] += gone.bit_count()
                order = array("q", [c for c in order if cand >> (c & _VERTEX) & 1])


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


class _Group(Protocol):
    """A group of distance-preserving maps of a vertex set onto itself, for
    ``_max_clique``; None stands for the trivial group, below which the
    search asks nothing more. ``fix`` may return any subgroup of the
    stabiliser, since the trivial one is always sound."""

    def fix(self, v: int) -> _Group | None: ...  # the subgroup that fixes vertex v

    def orbit(self, v: int) -> int: ...  # the bitmask of v's orbit


class _LevelSets:
    """A group whose orbits are the level sets of an invariant row per
    vertex, given as the rows of ``labels``, a new C-ordered matrix: v's
    orbit is every vertex whose row equals v's."""

    def __init__(self, labels: np.ndarray) -> None:
        # each row as one opaque scalar, so that an orbit is one compare
        self.keys = labels.view(np.dtype((np.void, labels.itemsize * labels.shape[1]))).ravel()

    def orbit(self, v: int) -> int:
        return _mask(self.keys == self.keys[v])


# S_n is listed as an (n!, n) matrix up to n = 8 (40,320 rows, 2.6 MB)
_LISTED_DEGREE = 8


class _CycleTypes(_LevelSets):
    """The maps x -> g x g^-1 and x -> g x^-1 g^-1 of S_n, on a vertex set
    of permutations, ``rows`` in search order, that is closed under them
    (every set of the permutations of given weights is): they keep weights
    and distances and fix the identity. Their orbits are the cycle types,
    whose invariant row is each point's cycle length, sorted. A vertex's
    stabiliser is a ``_Centraliser`` up to ``_LISTED_DEGREE`` points; past
    that S_n is too big to list, and the stabiliser is taken as trivial."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        m, n = rows.shape
        # step[i * n + j] is the flat position of x(j) for the row x = rows[i];
        # each pass moves every point on by x and counts those not yet home
        home = np.arange(m * n)
        step = (rows + home[::n, None]).ravel()
        lengths = np.zeros(m * n, dtype=np.min_scalar_type(n))
        at, away = step, np.ones(m * n, dtype=bool)
        while away.any():
            lengths += away
            away &= at != home
            at = step[at]
        self.longest = lengths.max(initial=0)
        super().__init__(np.sort(lengths.reshape(m, n), axis=1))

    def fix(self, v: int) -> _Group | None:
        return None if self.rows.shape[1] > _LISTED_DEGREE else self._whole.fix(v)

    @cached_property
    def _whole(self) -> _Centraliser:
        """The whole group as listed maps, built on the first ``fix``. A
        vertex's images are found by integer code, the base-n number its
        images spell: the lookup holds the powers of n, and the vertex
        codes' sorting order and values."""
        n = self.rows.shape[1]
        power = n ** np.arange(n)
        codes = self.rows @ power
        sorter = np.argsort(codes)
        g = np.concatenate(list(permutation_rows(n, 0)), dtype=np.intp)
        # when every vertex is an involution, inversion acts as the identity
        return _Centraliser(self.rows, (power, sorter, codes[sorter]),
                            [g, g[:0] if self.longest <= 2 else g])


class _Centraliser:
    """The maps of a ``_CycleTypes`` group that fix some vertices: ``maps``
    lists its g of each kind, x -> g x g^-1 and x -> g x^-1 g^-1, as the
    rows of two matrices, and ``lookup`` is the root's vertex code lookup."""

    def __init__(self, rows: np.ndarray, lookup: tuple, maps: list[np.ndarray]) -> None:
        self.rows, self.lookup, self.maps = rows, lookup, maps

    def fix(self, v: int) -> _Group | None:
        x = self.rows[v]
        # g x g^-1 = x when g x = x g, and g x^-1 g^-1 = x when g x^-1 = x g
        maps = [g[(g[:, p] == x[g]).all(axis=1)] for g, p in zip(self.maps, (x, np.argsort(x)))]
        return None if sum(map(len, maps)) <= 1 else _Centraliser(self.rows, self.lookup, maps)

    def orbit(self, v: int) -> int:
        power, sorter, codes = self.lookup
        x = self.rows[v]
        # the image y = g x g^-1 has y[g[j]] = g[x[j]], so its code is the
        # sum over j of g[x[j]] * n^g[j]; likewise with x^-1 for flipped g
        images = [(g[:, p] * power[g]).sum(axis=1) for g, p in zip(self.maps, (x, np.argsort(x)))]
        bits = np.zeros(len(self.rows), dtype=bool)
        bits[sorter[np.searchsorted(codes, np.concatenate(images))]] = True
        return _mask(bits)


class _Young(_LevelSets):
    """Coordinate permutations acting on 0/1 words of one weight, ``rows``
    in search order: the Young subgroup of ``atoms``, each coordinate's atom
    (by default one atom, so all of S_n, which takes any word to any
    other). The words a permutation fixes are those whose supports it maps
    onto themselves, so the pointwise stabiliser of a set of words is the
    Young subgroup of the atoms their supports cut the coordinates into, and
    a word's orbit under it is every word with the same number of ones in
    each atom: that count per atom is its invariant row."""

    def __init__(self, rows: np.ndarray, atoms: np.ndarray | None = None) -> None:
        self.rows = rows
        self.atoms = np.zeros(rows.shape[1], dtype=np.intp) if atoms is None else atoms
        super().__init__(rows @ (self.atoms[:, None] == np.arange(self.atoms.max(initial=-1) + 1)))

    def fix(self, v: int) -> _Group | None:
        _, atoms = np.unique(self.atoms * 2 + self.rows[v], return_inverse=True)
        # every atom is one coordinate: the trivial group
        return None if atoms.max(initial=-1) + 1 == len(atoms) else _Young(self.rows, atoms)


def _solve(
    m: int, blocks: Iterable[np.ndarray], d: int, limits: SearchLimits,
    symmetry: Callable[[np.ndarray], _Group | None],
    witness: Callable[[np.ndarray], PermutationArray | BinaryCwCode],
    upper: int | None = None,
) -> SearchOutcome:
    """Largest set of the m vectors that ``blocks`` yields, as the rows of
    one or more integer matrices, with pairwise coordinate-wise distance
    >= d, as the outcome whose witness is ``witness(chosen)``, the chosen
    vectors given as the rows of a matrix. ``symmetry(rows)`` gives the
    root's group of distance-preserving maps of the vertex set onto itself
    (a ``_Group``, or None for the trivial group), given the vectors as the
    rows of a matrix in search order, and ``upper``, when not
    None, bounds how many vectors can be chosen. The clock starts here
    and the gate acts on m before the vertices are read, so listing them
    spends the same time budget as the search. When the budget rules out a
    real search, the greedy clique is streamed, so the vertices are never
    listed; it is exact when it reaches ``upper``. Otherwise they are listed
    in reverse, so that the search, which takes the highest index first,
    walks them in stream order.
    """
    start = time.perf_counter()
    max_nodes = math.inf if limits.max_nodes is None else limits.max_nodes
    deadline = math.inf if limits.max_seconds is None else time.monotonic() + limits.max_seconds
    if _over_budget_upfront(m, limits):
        kept = _greedy_stream(blocks, d, deadline)
        seconds = {"greedy": time.perf_counter() - start}
        met = upper is not None and len(kept) >= upper
        return SearchOutcome(STATUS_EXACT if met else STATUS_LOWER_BOUND_ONLY, witness(kept),
                             seconds=seconds)
    rows = np.concatenate(list(blocks))[::-1]
    listed = time.perf_counter()
    conflicts = _conflict_masks(rows, d)
    masked = time.perf_counter()
    clique, exhausted, nodes, pruned = _max_clique(
        conflicts, symmetry(rows), max_nodes, deadline, upper)
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


def exact_p(n: int, d: int, limits: SearchLimits = SearchLimits()) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d, by clique search with the identity forced in. Under
    default limits it is practical up to n = 7 for small or near-full
    distances and up to (6, 4) in between, and on 8 points where a root
    dive meets the bound: P(8,6) = 336 and P(8,8) = 8 certify in 1 node, in
    the time their conflict masks take (about 1.4 s and 0.26 s in a fresh
    process on a 2-core Xeon).

    Conjugation and inversion fix the identity and keep weights and
    distances, so the search prunes the orbits of their stabilisers."""
    upper = best_upper_bound(n, d).value - 1  # the identity is forced in
    m = factorial(n) - ball_volume(n, d - 1)
    return _solve(m, permutation_rows(n, d), d, limits, _CycleTypes,
                  lambda chosen: PermutationArray(n, np.concatenate([np.arange(n)[None], chosen])),
                  upper=upper)


def exact_p_cw(n: int, d: int, w: int, limits: SearchLimits = SearchLimits()) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d and every member of weight exactly w. The identity is not a
    member (its weight is 0), so the clique runs over all the weight-w
    permutations. Conjugation and inversion keep weights and distances, so
    the search prunes the orbits of their stabilisers. The arguments follow
    the P(n, d, w) rule that ``bounds.cw_pa_bound`` applies."""
    upper = cw_pa_bound(n, d, w).value
    m = binomial(n, w) * derangement_count(w)
    return _solve(m, weight_rows(n, w), d, limits, _CycleTypes, partial(PermutationArray, n),
                  upper=upper)


def exact_a_cw(n: int, d: int, w: int, limits: SearchLimits = SearchLimits()) -> SearchOutcome:
    """Exact maximum size of a binary code of length n, constant weight w,
    minimum distance d (even: distances between equal-weight words are always
    even). Permuting coordinates keeps distances and takes any word to any
    other, so the search needs one root branch, and below it prunes the
    orbits of the Young subgroups that fix the words chosen so far. The
    arguments follow the A(n, d, w) rule that ``bounds.cw_binary_bound``
    applies."""
    upper = cw_binary_bound(n, d, w).value
    return _solve(binomial(n, w), _word_rows(n, w), d, limits, _Young,
                  lambda chosen: BinaryCwCode(
                      n, w, tuple(tuple(np.flatnonzero(row).tolist()) for row in chosen), d),
                  upper=upper)


def verify_pa(array: PermutationArray, d: int) -> list[tuple[Permutation, Permutation, int]]:
    """All member pairs at distance below d, in row-major pair order; an empty
    list means the array verifies at distance d."""
    pairs = list(pairs_below(array.rows, d))
    # the members are built only to name a pair; naming in place frees an
    # index triple for each member triple made, which keeps the cyclic
    # collector idle: a new list of pgl2 11's 392,040 pairs at d = 11 took
    # about twice as long
    members = array.members if pairs else ()
    for k, (i, j, dist) in enumerate(pairs):
        pairs[k] = (members[i], members[j], dist)
    return pairs

"""Exhaustive search oracles for small permutation arrays and constant-weight
codes, via branch-and-bound maximum-clique search.

Each oracle counts its vertices in closed form, then hands one pipeline,
``_solve``, the stream of eligible objects in their fixed enumeration order
(see ``perm``) and an orbit label for each: two vertices are adjacent when
their distance clears the target. If the budget, or the memory the conflict
bitsets would take, rules out a real search, the vertices are never listed:
the "lower-bound-only" witness is the lowest-index greedy clique, read from
the stream in blocks. Otherwise the same
greedy clique seeds a search that keeps each open node's candidates and color
order on an explicit stack instead of recursing; one loop opens and branches
every node, the root as node 1. At every node the candidates get the
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
int costs a two's-complement pass per operation).

The root prunes whole orbits. A label names the vertex's orbit under a group
of distance-preserving maps of the vertex set onto itself: conjugation by
S_n for permutations (it fixes the identity and keeps weights and
distances; its orbits are the cycle types), and S_n permuting coordinates
for constant-weight words (it takes any word to any other, so there is one
orbit). When the loop pops back to depth 0, the root's branch on v is
done, and v's whole orbit leaves the root's candidates. This is sound
because those candidates are always a union of orbits: a clique among them
that meets v's orbit is mapped by the group onto a clique of the same size
through v, still among them, and v's branch has searched all of those. The
first root branch is the unpruned one, so a run that stops inside it keeps
its tree (and never computes the labels); only searches that come back to
the root shrink, and a constant-weight search needs one root branch.

The limits are one budget, taken when the search starts, before any vertex
is listed: a node cap, which is deterministic, and a deadline, which covers
listing the vertices, building the conflict masks, the search and the greedy
witness alike. The clock is read every 256 nodes, or, in the streamed
greedy, after each 256 vertices it reads and each 256 kept rows it checks
them against, so the deadline is best-effort; past it the best clique found
so far is the witness.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .constructions import BinaryCwCode, PermutationArray, indicator_vectors
from .exactmath import ball_volume, binomial, derangement_count, factorial
from .perm import (
    Permutation,
    cycle_type,
    distance_blocks,
    identity,
    iterate_all,
    iterate_weight,
    pairs_below,
    weight,
)

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND_ONLY = "lower-bound-only"
STATUS_INCOMPLETE = "incomplete"

# Largest set of conflict masks, in bytes of conflict bits, that a search may
# build: S_8 (40,320 vertices, about 203 MB) fits, S_9 (about 16.5 GB) does not.
_ADJACENCY_BYTES = 1 << 30


@dataclass(frozen=True)
class SearchLimits:
    """Budget for one search; None disables that limit."""

    max_nodes: int | None = 100_000_000
    max_seconds: float | None = 300.0


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: ``value``, the witness size, is exact when
    ``status`` is "exact", otherwise a witnessed lower bound ("incomplete"
    means the search was interrupted mid-run; "lower-bound-only" means the
    limits, or the memory the adjacency would take, ruled out any search
    node, so only a greedy witness was built).
    ``witness`` always verifies at the target distance."""

    status: str
    witness: PermutationArray | BinaryCwCode
    nodes: int = 0

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


def _greedy_stream(vertices: Iterable[Sequence[int]], d: int, deadline: float) -> list:
    """The same lowest-index greedy clique, read from a stream of vectors:
    each vector is kept when it is at distance >= d from every vector kept
    before it. The stream is read 256 vectors at a time and checked against
    the kept ones 256 rows at a time, so memory scales with the clique, not
    with the stream. The clock is read after each of those checks and after
    each block, so one check's work bounds the overrun; past the deadline
    the vectors kept so far are returned."""
    kept: list = []
    kept_rows = np.empty((0, 0), dtype=np.int16)  # the kept vectors, as rows
    stream = iter(vertices)
    while block := list(islice(stream, 256)):
        rows = np.asarray(block, dtype=np.int16)
        far = np.ones(len(block), dtype=bool)
        for start in range(0, len(kept), 256):
            apart = np.count_nonzero(rows[:, None] != kept_rows[None, start:start + 256], axis=2)
            far &= (apart >= d).all(axis=1)
            if time.monotonic() > deadline:
                return kept
        taken = []
        for i in range(len(block)):
            if far[i]:
                taken.append(i)
                far[i + 1:] &= np.count_nonzero(rows[i + 1:] != rows[i], axis=1) >= d
        if taken:
            kept.extend(block[i] for i in taken)
            kept_rows = np.concatenate([kept_rows, rows[taken]]) if len(kept_rows) else rows[taken]
        if time.monotonic() > deadline:
            break
    return kept


def _color_order(cand: int, conflicts: list[int], kmin: int) -> list[tuple[int, int]]:
    """Greedy first-fit coloring of the candidate set in descending index
    order, built one class at a time: each class takes the highest remaining
    vertex, keeps only the vertices in conflict with it, and repeats until
    nothing is left to add.

    Returns (color, vertex) pairs in the order colored, colors ascending and
    vertices descending within a class, leaving out vertices whose color is
    below ``kmin`` (their classes are still built, so later colors are
    unchanged); the color of a vertex bounds any clique drawn from it and
    the vertices colored before it."""
    order: list[tuple[int, int]] = []
    k = 0
    while cand and k + 1 < kmin:
        k += 1
        q = cand
        while q:
            v = q.bit_length() - 1
            cand ^= 1 << v
            q &= conflicts[v]
    while cand:
        k += 1
        q = cand
        while q:
            v = q.bit_length() - 1
            cand ^= 1 << v
            q &= conflicts[v]
            order.append((k, v))
    return order


def _max_clique(
    conflicts: list[int], orbit_masks: Callable[[], list[int]], max_nodes: float, deadline: float
) -> tuple[list[int], bool, int]:
    """Largest clique among vertices 0..m-1 with the given conflict bitmasks
    (two vertices are adjacent when neither is in the other's mask).

    One loop opens every node, the root as node 1: it pushes the parent's
    candidates and color order, colors the new node's candidates, and
    branches on them in descending color order. ``orbit_masks()[v]`` is the
    bitmask of v's orbit under a group of automorphisms of the graph. When
    the loop pops back to depth 0, the root's branch on v is done, and v's
    whole orbit leaves the root's candidates and color order: the root's
    candidates stay a union of orbits, so any clique among them that meets
    v's orbit maps onto one through v, which v's branch has covered. Below
    the root nothing is pruned. The masks are asked for on the first return
    to the root, so a search that stops inside its first branch never
    builds them.

    Returns (vertex indices in the order they were added, exhausted, nodes).
    Past ``max_nodes`` nodes, or past the deadline (read at nodes 1, 257,
    513, ...), the best clique found so far is returned with exhausted False.
    """
    best = _greedy_clique(conflicts)
    orbit: list[int] = []
    nodes = 0
    # the open node's candidates and color order are held in cand/order, and
    # each open ancestor's pair waits on the stack above the empty pair the
    # root pushed, so len(stack) == len(current) + 1 while a node is open
    stack: list[tuple[int, list[tuple[int, int]]]] = []
    current: list[int] = []
    cand, order = 0, []
    sub = (1 << len(conflicts)) - 1
    while True:
        if sub:
            nodes += 1
            if nodes > max_nodes or (nodes & 255 == 1 and time.monotonic() > deadline):
                return best, False, nodes
            stack.append((cand, order))
            kmin = len(best) - len(current) + 1
            # too few candidates to beat the incumbent: nothing to color
            cand, order = sub, _color_order(sub, conflicts, kmin) if sub.bit_count() >= kmin else []
            sub = 0
            continue
        # every unprocessed candidate has color <= the last one, so the node
        # cannot beat the incumbent once the check fails
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
        # a leaf or a finished node: drop its vertex, and at depth 0 its orbit
        v = current.pop()
        if not current:
            orbit = orbit or orbit_masks()
            cand ^= cand & orbit[v]
            order = [(k, u) for k, u in order if cand >> u & 1]


def _conflict_masks(vectors: list, d: int) -> list[int]:
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
    no time at all, or conflict masks (m rows of m bits) too big to hold."""
    if limits.max_nodes is not None and m > limits.max_nodes:
        return True
    if m * ((m + 7) // 8) > _ADJACENCY_BYTES:
        return True
    return limits.max_seconds is not None and limits.max_seconds <= 0


def _solve(
    m: int, vertices: Iterable[Sequence[int]], d: int, limits: SearchLimits,
    orbit: Callable[[Sequence[int]], Hashable],
) -> tuple[str, list, int]:
    """Largest set of the m vectors that ``vertices`` yields with pairwise
    coordinate-wise distance >= d.

    Returns (status, chosen vectors, nodes). ``orbit(vector)`` labels the
    vector's orbit under a group of distance-preserving maps of the vertex
    set onto itself. The clock starts here and the gate acts on m before
    the vertices are read, so listing them spends the same time budget as
    the search. When the budget rules out a real search, the greedy clique
    is streamed, so the vertices are never listed. Otherwise they are listed
    in reverse, so that the search, which takes the highest index first,
    walks them in stream order.
    """
    max_nodes = math.inf if limits.max_nodes is None else limits.max_nodes
    deadline = math.inf if limits.max_seconds is None else time.monotonic() + limits.max_seconds
    if _over_budget_upfront(m, limits):
        return STATUS_LOWER_BOUND_ONLY, _greedy_stream(vertices, d, deadline), 0
    vectors = list(vertices)
    vectors.reverse()

    def orbit_masks() -> list[int]:
        labels = [orbit(vector) for vector in vectors]
        masks: dict[Hashable, int] = {}
        for i, label in enumerate(labels):
            masks[label] = masks.get(label, 0) | 1 << i
        return [masks[label] for label in labels]

    clique, exhausted, nodes = _max_clique(
        _conflict_masks(vectors, d), orbit_masks, max_nodes, deadline
    )
    return (STATUS_EXACT if exhausted else STATUS_INCOMPLETE), [vectors[i] for i in clique], nodes


def exact_p(n: int, d: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d, by clique search with the identity forced in. Practical up
    to n = 7 (and small distances only below n = 6) under default limits.

    Conjugation fixes the identity and keeps weights and distances, so each
    vertex's orbit is its cycle type."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if not 1 <= d <= n:
        raise ValueError(f"distance {d} outside valid range 1..{n}")
    m = factorial(n) - ball_volume(n, d - 1)
    vertices = (p for p in iterate_all(n) if weight(p) >= d)
    status, chosen, nodes = _solve(m, vertices, d, limits, cycle_type)
    witness = PermutationArray(n, [identity(n)] + chosen)
    return SearchOutcome(status, witness, nodes)


def exact_p_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d and every member of weight exactly w. The identity is not a
    member (its weight is 0), so the clique runs over the whole weight-w
    stream. Conjugation keeps weights and distances, so each vertex's orbit
    is its cycle type."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if d < 1:
        raise ValueError(f"distance must be positive: {d}")
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    m = binomial(n, w) * derangement_count(w)
    status, chosen, nodes = _solve(m, iterate_weight(n, w), d, limits, cycle_type)
    witness = PermutationArray(n, chosen)
    return SearchOutcome(status, witness, nodes)


def exact_a_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a binary code of length n, constant weight w,
    minimum distance d (even: distances between equal-weight words are always
    even). Permuting coordinates keeps distances and takes any word to any
    other, so all words share one orbit and the search needs one root
    branch."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"constant-weight distance must be a positive even integer: {d}")
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    vectors = indicator_vectors(n, combinations(range(n), w))
    status, chosen, nodes = _solve(binomial(n, w), vectors, d, limits, lambda vector: 0)
    words = tuple(tuple(i for i, bit in enumerate(vector) if bit) for vector in chosen)
    witness = BinaryCwCode(n, w, words, d)
    return SearchOutcome(status, witness, nodes)


def verify_pa(array: PermutationArray, d: int) -> list[tuple[Permutation, Permutation, int]]:
    """All member pairs at distance below d, in row-major pair order; an empty
    list means the array verifies at distance d."""
    members = array.members
    return [(members[i], members[j], dist) for i, j, dist in pairs_below(array.rows, d)]

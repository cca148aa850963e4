"""Exhaustive search oracles for small permutation arrays and constant-weight
codes, via branch-and-bound maximum-clique search.

Each oracle lists its vertices, the eligible objects in their fixed
enumeration order (see ``perm``), and runs one pipeline, ``_solve``: two
vertices are adjacent when their distance clears the target. If the budget,
or the memory the adjacency bitsets would take, rules out a real search, the
"lower-bound-only" witness is the lowest-index greedy clique, built one
distance row per chosen vertex. Otherwise the same
greedy clique seeds a search that keeps each open node's candidates and color
order on an explicit stack instead of recursing. At every node the candidates
get the first-fit coloring in index order (classes with no internal edge; a
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

The limits are one budget, taken when the search starts: a node cap, which is
deterministic, and a deadline, which covers building the adjacency, the
search and the greedy witness alike. The clock is read every 256 nodes, or
every 256 greedy members, so the deadline is best-effort; past it the best
clique found so far is the witness.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constructions import BinaryCwCode, PermutationArray, indicator_vectors
from .perm import (
    Permutation,
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

# Largest adjacency list, in bytes of neighbor bits, that a search may build:
# S_8 (40,320 vertices, about 203 MB) fits, S_9 (about 16.5 GB) does not.
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


def _greedy_clique(m: int, row: Callable[[int], int], deadline: float = math.inf) -> list[int]:
    """Clique on vertices 0..m-1 built by repeatedly taking the lowest-index
    vertex adjacent to every vertex taken so far; ``row(v)`` is v's neighbor
    bitmask. The clock is read after every 256 vertices taken, and past the
    deadline the clique built so far is returned."""
    chosen: list[int] = []
    allowed = (1 << m) - 1
    while allowed:
        if chosen and len(chosen) & 255 == 0 and time.monotonic() > deadline:
            break
        v = (allowed & -allowed).bit_length() - 1
        chosen.append(v)
        allowed &= row(v)
    return chosen


def _color_order(cand: int, adjacency: list[int], kmin: int) -> list[tuple[int, int]]:
    """Greedy first-fit coloring of the candidate set in index order, built
    one class at a time: each class takes the lowest remaining vertex, drops
    its neighbors, and repeats until nothing is left to add.

    Returns (color, vertex) pairs sorted ascending, leaving out vertices whose
    color is below ``kmin`` (their classes are still built, so later colors
    are unchanged); the color of a vertex bounds any clique drawn from it and
    the vertices colored before it."""
    order: list[tuple[int, int]] = []
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


def _max_clique(
    adjacency: list[int], max_nodes: float, deadline: float
) -> tuple[list[int], bool, int]:
    """Largest clique among vertices 0..m-1 with the given neighbor bitmasks.

    Returns (vertex indices in the order they were added, exhausted, nodes).
    Every node opened counts, the root as node 1; past ``max_nodes`` nodes,
    or past the deadline (read at nodes 1, 257, 513, ...), the best clique
    found so far is returned with exhausted False.
    """
    m = len(adjacency)
    best = _greedy_clique(m, adjacency.__getitem__)
    nodes = 0
    current: list[int] = []
    # the open node's candidates and color order are held in cand/order; each
    # open ancestor's pair waits on the stack above a placeholder for the
    # root's parent, so len(stack) == len(current) + 1
    stack: list[tuple[int, list[tuple[int, int]]]] = []
    cand, order = 0, []
    sub = (1 << m) - 1  # candidates of the node to open next, the root first
    while True:
        if sub:
            nodes += 1
            if nodes > max_nodes or (nodes & 255 == 1 and time.monotonic() > deadline):
                return best, False, nodes
            stack.append((cand, order))
            kmin = len(best) - len(current) + 1
            # too few candidates to beat the incumbent: nothing to color
            cand, order = sub, _color_order(sub, adjacency, kmin) if sub.bit_count() >= kmin else []
            sub = 0
        # every unprocessed candidate has color <= the last one, so the node
        # cannot beat the incumbent once the check fails
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
            return best, True, nodes


def _adjacency_at_distance(vectors: list, d: int) -> list[int]:
    """Neighbor bitmasks for "coordinate-wise distance >= d" on equal-length
    integer vectors."""
    adjacency: list[int] = []
    for start, _, block in distance_blocks(vectors):
        ok = block >= d
        np.fill_diagonal(ok[:, start:], False)
        packed = np.packbits(ok, axis=1, bitorder="little")
        adjacency.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return adjacency


def _over_budget_upfront(m: int, limits: SearchLimits) -> bool:
    """Whether the search must not start: more vertices than nodes allowed,
    no time at all, or an adjacency list (m rows of m bits) too big to hold."""
    if limits.max_nodes is not None and m > limits.max_nodes:
        return True
    if m * ((m + 7) // 8) > _ADJACENCY_BYTES:
        return True
    return limits.max_seconds is not None and limits.max_seconds <= 0


def _solve(vectors: list, d: int, limits: SearchLimits) -> tuple[str, list[int], int]:
    """Largest set of vectors with pairwise coordinate-wise distance >= d.

    Returns (status, chosen vector indices, nodes). The clock starts here, so
    building the adjacency spends the same time budget as the search. When
    the budget rules out a real search, the greedy clique is built one
    distance row per chosen vector, so the full graph is never materialised.
    """
    max_nodes = math.inf if limits.max_nodes is None else limits.max_nodes
    deadline = math.inf if limits.max_seconds is None else time.monotonic() + limits.max_seconds
    if _over_budget_upfront(len(vectors), limits):
        arr = np.asarray(vectors, dtype=np.int16)

        def row(v: int) -> int:
            far = np.count_nonzero(arr != arr[v], axis=1) >= d
            return int.from_bytes(np.packbits(far, bitorder="little").tobytes(), "little")

        return STATUS_LOWER_BOUND_ONLY, _greedy_clique(len(vectors), row, deadline), 0
    clique, exhausted, nodes = _max_clique(_adjacency_at_distance(vectors, d), max_nodes, deadline)
    return (STATUS_EXACT if exhausted else STATUS_INCOMPLETE), clique, nodes


def exact_p(n: int, d: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d, by clique search with the identity forced in. Practical up
    to n = 7 (and small distances only below n = 6) under default limits."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if not 1 <= d <= n:
        raise ValueError(f"distance {d} outside valid range 1..{n}")
    vertices = [p for p in iterate_all(n) if weight(p) >= d]
    status, chosen, nodes = _solve(vertices, d, limits)
    witness = PermutationArray(n, [identity(n)] + [vertices[i] for i in chosen])
    return SearchOutcome(status, witness, nodes)


def exact_p_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a permutation array on n points with pairwise
    distance >= d and every member of weight exactly w. The identity is not a
    member (its weight is 0), so the clique runs over the whole weight-w
    stream."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if d < 1:
        raise ValueError(f"distance must be positive: {d}")
    vertices = list(iterate_weight(n, w))
    status, chosen, nodes = _solve(vertices, d, limits)
    witness = PermutationArray(n, [vertices[i] for i in chosen])
    return SearchOutcome(status, witness, nodes)


def exact_a_cw(n: int, d: int, w: int, limits: SearchLimits = DEFAULT_LIMITS) -> SearchOutcome:
    """Exact maximum size of a binary code of length n, constant weight w,
    minimum distance d (even: distances between equal-weight words are always
    even)."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"constant-weight distance must be a positive even integer: {d}")
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    words = list(combinations(range(n), w))
    status, chosen, nodes = _solve(indicator_vectors(n, words), d, limits)
    witness = BinaryCwCode(n, w, tuple(words[i] for i in chosen), d)
    return SearchOutcome(status, witness, nodes)


def verify_pa(array: PermutationArray, d: int) -> list[tuple[Permutation, Permutation, int]]:
    """All member pairs at distance below d, in row-major pair order; an empty
    list means the array verifies at distance d."""
    members = array.members
    return [(members[i], members[j], dist) for i, j, dist in pairs_below(members, d)]

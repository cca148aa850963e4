"""Permutations of {0..n-1} as image tuples, with the Hamming metric,
fixed-order enumeration streams and the one bulk distance kernel. The
kernel reads any (m, n) integer matrix or sequence of equal-length vectors;
``PermutationArray.rows`` is the matrix it reads for arrays.

The distance between two permutations is the number of positions where their
images differ; the weight of a permutation is its distance from the identity,
i.e. the number of points it moves. Distinct permutations always differ in at
least two positions, so no permutation has weight 1.

The enumeration streams list permutations as the rows of small-integer
matrices, a block at a time, with no per-member objects; the search reads
its vertices from them. ``permutation_rows`` lists the permutations that
move at least a given number of points in lexicographic image order, each
block one prefix followed by every tail, the tails listed once per call by
index arithmetic.
``weight_rows`` lists one weight class support-first: supports ascend
lexicographically, then the derangements of each support ascend
lexicographically. The search relies on both orders for reproducible
witnesses.

The kernel has a self form, which walks all pairwise distances of one set
in row blocks of bounded size, and a cross form, ``distances``, which
measures each vector of one small set against each of another. This module
alone knows how the self form's blocks are laid out: its readers walk them
here, and hand out what they read, not the blocks. A distance is the
length minus the positions that agree, and the blocks hold the agreements:
each reader compares them against the length minus d, and only
``distances`` and the distances a reader hands out are ever subtracted.
Both forms narrow the columns to one dtype, int8 when every entry fits in
8 bits, int16 when in 16, and run one column loop, which adds the columns'
agreements to the counts. The path follows the entry width and the table
size: with int8 columns whose table fits ``_TABLE_BYTES``, the agreements
are rows gathered from a table built once per call, one row per pair of
entry values of two columns where that pair table fits ``_TABLE_BYTES``
too, so that one gather reads two columns, else one row per entry value of
a column; every other input compares a slab of columns per step by
broadcasting, as many as fit ``_BLOCK_BYTES``, so that long vectors in few
rows take few steps.

The pairs of one set closer than a distance d come from the self form's
upper blocks in two calls: ``pairs_below`` streams them as (i, j,
distance) triples of Python ints, i < j, in row-major order, computing a
block as it is read; ``count_pairs_below`` counts them in one pass and
returns the same stream, which recomputes only the blocks that hold one.
Two private readers serve the package: ``_least_distance``, the minimum
distance of a set from its upper blocks (``PermutationArray.min_distance``
of a set that is no coset of a group), and ``_conflict_masks``, the clique
search's conflict bitmasks from full rows.

A coset of a group needs no pairs: ``_group_weights`` proves a set of
permutations one by closure, from m rows, and hands out its weight
distribution, which is the distance distribution from each member.
``PermutationArray`` is its only caller: ``min_distance`` and
``_pairs_below``, whose count and pairs ``search.verify_pa`` and the CLI's
``verify`` read, ask it first and read the kernel only when it refuses the
set, or, for ``_pairs_below``, to list the pairs of a coset that fails.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .exactmath import _check_weight, derangement_count

# Distances per block of the self form at most, and compares per slab in
# _distance_rows. _spans sizes the blocks from the input: a whole
# matrix within a quarter of this is one block, a larger one is cut into
# blocks of whole rows that hold an eighth of it but no less than that
# quarter, and no block passes this bound, so memory stays bounded. What
# sets the small sizes is the C heap, not the cache: glibc serves a request
# above 128 KiB with fresh pages, and gives the heap's free top back to the
# OS once it passes twice the largest such request freed, so a call whose
# blocks and their temporaries pass that faults its pages in again on every
# call. P(6,4)'s 664 vertices in two 261 KB blocks took about 214 minor
# faults per exact_p(6, 4) capped at 700 nodes; in seven blocks of 65 KB,
# none.
# The bound itself suits the large inputs: best of two sets of interleaved
# runs on a 2-core Xeon, 64 / 128 / 256 / 512 KiB, S_7 at d = 3 34 / 27 /
# 25 / 29 ms and P(7,4) conflict masks 31 / 27 / 25 / 38 ms.
_BLOCK_BYTES = 1 << 18

# Bytes of each agreement table that _gathers builds from int8 columns:
# the one-column table (one byte per column, entry value and vector), and
# the pair table made from it (one per pair of columns, pair of entry
# values and vector), which halves the gathers and adds. Each is built
# whenever it fits, and wider entries or larger tables take the compare.
# Best of 3 on a 2-core Xeon (2 MiB L2 per core), upper blocks, compare ->
# table: S_8 (a 2.6 MB table) 889 -> 772 ms, 2,000 random 45-point vectors
# (4 MB) 19.7 -> 14.4 ms; past the bound, 2,048 64-point vectors (8 MB)
# 18.2 -> 20.3 ms. The pair tables of pgl2 11 (1.14 MB), S_7 (741 KB),
# P(7,4)'s vertices (727 KB) and P(8,8)'s (3.8 MB) fit; P(8,6)'s (9.5 MB)
# does not, so it reads one column a gather. A pair table past glibc's
# 128 KiB mmap threshold is mapped afresh on each call: against one column
# a gather, pgl2 11's `verify` in a fresh process took 331 -> 471 minor
# faults and 5.9 -> 6.1 ms, and S_7's at d = 3 3,254 -> 1,589 faults and
# 67.8 -> 56.1 ms (medians of 15 alternating processes on a 2-core Xeon).
_TABLE_BYTES = 1 << 22

# Rows per block of permutation_rows before its weight filter, and of
# weight_rows, at most: blocks of a few KiB, so a caller that stops early
# has listed little past what it read. permutation_rows lists k! rows per
# block for the largest such k, 720 here. Against 8,192 (tails of 7
# points, 5,040 rows a block), best of 5 in each of 3 processes on a
# 2-core Xeon, 4,096 -> 8,192: P(7,4)'s vertices 0.20 -> 0.47 ms, P(8,6)'s
# 1.15 -> 1.18 ms and S_9 12.5 -> 10.2 ms; the searches list 7 points or
# fewer.
_LIST_ROWS = 1 << 12


class Permutation(tuple):
    """A bijection on {0..n-1} stored as its tuple of images.

    Ordering and hashing are inherited from ``tuple``, so sorting a collection
    of permutations sorts lexicographically on images. The constructor checks
    one member at a time; ``PermutationArray`` checks a whole array as one
    matrix and calls this constructor only on the first bad row, so the
    message below is the one definition of a non-bijection's error.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        self = super().__new__(cls, images)
        n = len(self)
        seen = bytearray(n)
        for v in self:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {tuple(self)!r}")
            seen[v] = 1
        return self


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Return the number of positions where a and b differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def weight(a: Sequence[int]) -> int:
    """Return the number of points a moves (its distance from the identity)."""
    return sum(v != i for i, v in enumerate(a))


def support(a: Sequence[int]) -> tuple[int, ...]:
    """Return the moved points of a as a sorted tuple."""
    return tuple(i for i, v in enumerate(a) if v != i)


def cycle_type(a: Sequence[int]) -> tuple[int, ...]:
    """Return the cycle lengths of a, longest first, with each fixed point a
    cycle of length 1, so the lengths partition len(a). Two permutations
    have the same cycle type exactly when they are conjugate."""
    seen = bytearray(len(a))
    lengths = []
    for start in range(len(a)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = a[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _row_dtype(n: int) -> np.dtype:
    """The smallest signed dtype that holds 0..n-1: int8 up to 128 points."""
    return np.min_scalar_type(-max(n, 1))


def _symmetric_rows(k: int) -> np.ndarray:
    """The permutations of k points as the rows of a (k!, k) index matrix,
    in lexicographic image order. Level j + 1 is built from level j by index
    arithmetic: for each first image f, f followed by the permutations of j
    points with every image >= f moved up by one. Each level is held as
    columns, one per position, so that every step runs along whole columns
    (S_6 in 38 us against 59 us as rows, on a 2-core Xeon)."""
    columns = np.zeros((0, 1), dtype=np.intp)
    for j in range(1, k + 1):
        # grown[position, f, i]: position's image in permutation i of those
        # with first image f
        grown = np.empty((j, j, columns.shape[1]), dtype=np.intp)
        grown[0] = np.arange(j)[:, None]
        np.add(columns[:, None], columns[:, None] >= grown[0], out=grown[1:])
        columns = grown.reshape(j, -1)
    return columns.T


def permutation_rows(n: int, min_weight: int) -> Iterator[np.ndarray]:
    """Yield the permutations of n points that move at least ``min_weight``
    points, in lexicographic image order (``itertools.permutations``'s,
    filtered by weight), as the rows of consecutive integer matrices.

    Each block is one prefix, the images of the first n - k points, followed
    by every tail, where k is the largest with k! within ``_LIST_ROWS``:
    the tails are S_k, listed once per call and read as indices into the
    points the prefix leaves, in ascending order, so a block is one gather.
    Prefixes come in ``itertools.permutations``'s order. A block holds the
    survivors of its k! rows, so it may be empty, and the stream yields at
    least one block.
    """
    if n < 0:
        raise ValueError(f"negative length: {n}")
    dtype = _row_dtype(n)
    fixed = np.arange(n, dtype=dtype)
    k = 0
    while k < n and math.factorial(k + 1) <= _LIST_ROWS:
        k += 1
    tails = _symmetric_rows(k)
    # row i of a block is the prefix, then the remaining points in order tails[i]
    index = np.hstack([np.tile(np.arange(n - k), (len(tails), 1)), tails + (n - k)])
    # the moved points per row, summed by a product: count_nonzero along
    # rows this short costs about five times as much
    ones = np.ones(n, dtype=np.min_scalar_type(n))
    for prefix in itertools.permutations(range(n), n - k):
        order = np.array(prefix + tuple(sorted(set(range(n)).difference(prefix))), dtype=dtype)
        rows = order[index]
        yield rows.compress((rows != fixed).view(np.uint8) @ ones >= min_weight, axis=0)


def weight_rows(n: int, w: int) -> Iterator[np.ndarray]:
    """Yield the permutations of n points with weight exactly w, support
    first: supports in lexicographic order, then each support's derangements
    in lexicographic image order. They come as the rows of consecutive
    integer matrices of at most ``_LIST_ROWS`` rows each: groups of
    supports whose derangements fit, or, where one support's derangements
    outnumber that, that support's in the blocks of ``permutation_rows``.
    A weight that ``_check_weight`` refuses raises ``ValueError``.

    A block is built by index arithmetic: each support's derangements are
    the derangements of 0..w-1, listed once, read as indices into the
    support's points. The stream yields at least one block.
    """
    _check_weight(n, w)
    dtype = _row_dtype(n)
    count = derangement_count(w)
    listed = np.concatenate(list(permutation_rows(w, w))) if count <= _LIST_ROWS else None
    supports = itertools.combinations(range(n), w)
    while group := list(itertools.islice(supports, max(1, _LIST_ROWS // count))):
        points = np.array(group, dtype=dtype)
        for local in (listed,) if listed is not None else permutation_rows(w, w):
            # row (i, j) is the identity with support i's points moved to
            # the points that derangement j names
            rows = np.broadcast_to(np.arange(n, dtype=dtype), (len(group), len(local), n)).copy()
            where = np.broadcast_to(points[:, None], (len(group), len(local), w))
            np.put_along_axis(rows, where, points[:, local], axis=2)
            yield rows.reshape(len(group) * len(local), n)


def _columns(*sets: Sequence[Sequence[int]]) -> tuple[int, int, list[np.ndarray]]:
    """The least and greatest entry of all the sets of vectors, and their
    columns, as contiguous rows, in the narrowest integer dtype that holds
    every entry (int8 compares faster than int16, and int16 up to twice as
    fast as int64), else object: a narrower copy, or a float one such as
    ``np.result_type(int64, uint64)``, could make unequal entries equal.

    It holds the kernel's one input rule: each set is an integer matrix or
    a sequence of vectors, every vector of one length and every entry an
    integer (bools and Python ints past int64 too), else ``ValueError``."""
    try:
        matrices = [np.asarray(vectors) for vectors in sets]
    except ValueError:  # numpy refuses ragged nesting
        matrices = [np.empty(0)]
    if any(m.ndim != 2 for m in matrices) or len({m.shape[1] for m in matrices}) > 1:
        raise ValueError("vectors must share a common length")
    filled = [matrix for matrix in matrices if matrix.size]
    if not all(matrix.dtype.kind in "biu" or (matrix.dtype == object and all(
            isinstance(v, (numbers.Integral, np.bool_)) for v in matrix.flat))
            for matrix in filled):
        raise ValueError("vector entries must be integers")
    # numpy compares np.True_ with an int past int64 as a C long: Python ints only
    matrices = [np.frompyfunc(int, 1, 1)(m) if m.dtype == object else m for m in matrices]
    low = min((int(matrix.min()) for matrix in matrices if matrix.size), default=0)
    high = max((int(matrix.max()) for matrix in matrices if matrix.size), default=0)
    dtype = next((t for t in (np.int8, np.int16, np.int32, np.int64, np.uint64)
                  if np.iinfo(t).min <= low and high <= np.iinfo(t).max), object)
    return low, high, [np.ascontiguousarray(matrix.T, dtype=dtype) for matrix in matrices]


def _gathers(
    low: int, high: int, a: np.ndarray, b: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The agreement gathers of ``_distance_rows`` on the columns a and b,
    whose entries lie in low..high, as (table, codes) pairs: row
    ``codes[i]`` of table holds row i of a's agreements with b in the
    gather's columns, one column or two. The list is empty where the
    compare runs instead: when the columns are not int8, the one-column
    table passes ``_TABLE_BYTES``, or there is no column.

    ``table[k][s, j]`` is 1 when ``b[k, j]`` is ``low + s``, so code
    ``a[k, i] - low`` reads column k. Where the pair table fits
    ``_TABLE_BYTES`` too, columns 2k and 2k + 1 are read at once: with
    alpha entry values, row ``s * alpha + t`` of pair k is the sum of row s
    of column 2k and row t of column 2k + 1, and the code is
    ``(a[2k, i] - low) * alpha + a[2k + 1, i] - low``. A trailing odd
    column stays single, as a copy, so that the one-column table is freed
    once the pairs are built."""
    n, alpha = len(a), high - low + 1
    if not n or b.dtype != np.int8 or b.size * alpha > _TABLE_BYTES:
        return []
    values = np.arange(low, high + 1).astype(np.int8)
    table = np.equal(b[:, None, :], values[:, None]).view(np.uint8)
    # a - low mod 256 is a - low, which lies in 0..255: a narrow code
    codes = a.view(np.uint8) - np.uint8(low % 256)
    half = n // 2
    if half * alpha * alpha * b.shape[1] > _TABLE_BYTES:
        return list(zip(table, codes))
    first, second = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
    pairs = table[first, :, None] + table[second, None]
    pairs = pairs.reshape(half, alpha * alpha, b.shape[1])
    pair_codes = codes[first].astype(np.uint16) * alpha + codes[second]
    gathers = list(zip(pairs, pair_codes.astype(np.min_scalar_type(alpha * alpha - 1))))
    if n % 2:
        gathers.append((table[-1].copy(), codes[-1].copy()))
    return gathers


def _distance_rows(
    sets: tuple[Sequence[Sequence[int]], ...], spans: Iterable[tuple[int, int, int]],
    below: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """For each span (start, stop, first), the vector length n and the
    agreements, the positions where two vectors agree, between the rows
    start..stop-1 of a and the rows from first on of b, where sets is
    (a, b), or (a,) for b = a, each a fresh array in the smallest unsigned
    dtype that holds n. A distance is n minus the agreements, so the
    readers compare agreements against n - d and form a distance only where
    they hand one out. With ``below``, each block is instead the bool
    matrix of the distances below it, the agreements above n - ``below``:
    the readers that need no more than that hold no agreement block while
    the next is computed, which in a fresh process kept P(7,4)'s conflict
    masks at 1,721 minor faults, against 6,631 when the reader compared.

    The agreements are counted by the table's row gathers that
    ``_gathers`` lists, the first of which is a fresh array that the
    counts start from. Where it lists none, each step compares a slab of
    columns by broadcasting, as many as keep rows x columns x slab within
    ``_BLOCK_BYTES`` (one for a full block), into a bool scratch read
    through a uint8 view, and adds the slab's sum in the counts' dtype, so
    no add needs a cast."""
    low, high, columns = _columns(*sets)
    a, b = columns[0], columns[-1]
    n = len(a)
    dtype = np.min_scalar_type(n)
    gathers = _gathers(low, high, a, b)
    for start, stop, first in spans:
        if gathers:
            (table, codes), *rest = gathers
            agree = table[codes[start:stop], first:].astype(dtype, copy=False)
            for table, codes in rest:
                agree += table[codes[start:stop], first:]
        else:
            agree = np.zeros((stop - start, b.shape[1] - first), dtype=dtype)
            # a slab of columns per compare, within _BLOCK_BYTES of scratch
            step = max(1, _BLOCK_BYTES // max(1, agree.size))
            scratch = np.empty((min(step, n), *agree.shape), dtype=bool)
            for k in range(0, n, step):
                slab = scratch[:n - k]
                np.equal(a[k:k + step, start:stop, None], b[k:k + step, None, first:], out=slab)
                ones = slab.view(np.uint8)
                # one column adds as it is: a sum would copy it first
                agree += ones[0] if len(ones) == 1 else ones.sum(axis=0, dtype=dtype)
        yield n, (agree if below is None else agree > n - below)


def distances(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> np.ndarray:
    """The kernel's cross form: the (len(a), len(b)) Hamming distances
    between the vectors of a and of b, each an integer matrix or a sequence
    of vectors, all of one length, as one block."""
    (n, agree), = _distance_rows((a, b), [(0, len(a), 0)])
    return np.subtract(n, agree, out=agree)


def _spans(m: int, upper: bool) -> list[tuple[int, int, int]]:
    """The (start, stop, first_column) of each row block of the kernel's
    self form on m vectors: rows start..stop-1 against the columns from
    first_column on. Full rows start at column 0; ``upper`` blocks start at
    their own first row's column, which covers every pair i <= j once at
    half the work. The rows per block follow m as ``_BLOCK_BYTES``
    describes, so no block holds more than ``_BLOCK_BYTES`` distances (or
    one row, where a row holds more) whatever m is."""
    rows = max(1, min(_BLOCK_BYTES, max(_BLOCK_BYTES // 4, m * m // 8)) // max(1, m))
    return [(start, min(start + rows, m), start if upper else 0) for start in range(0, m, rows)]


def _conflict_masks(vectors: Sequence[Sequence[int]], d: int) -> list[int]:
    """Conflict bitmasks for "coordinate-wise distance >= d" on equal-length
    integer vectors: bit u of v's mask is set when u != v and the two are at
    distance < d, so no clique holds both. Each mask is read from a full
    row: masks mirrored from upper blocks through a transposed ``packbits``
    took 1.8-3x as long, P(8,6)'s 37,085 masks 6.0 s against 2.0 s on a
    2-core Xeon. The rows hold agreements, compared against the length
    minus d, so no subtract pass runs, and a block's packed bits are split
    into one bytes object per row at C speed, through a view that makes
    each row one opaque scalar. With the pair gathers, P(6,4)'s masks went
    0.71 -> 0.45 ms against reading one numpy row at a time; splitting and
    reading its packed blocks took 0.15 ms sliced from one ``tobytes``
    buffer each, and 0.11 ms so (best of 5 on a 2-core Xeon)."""
    conflicts: list[int] = []
    spans = _spans(len(vectors), False)
    for (start, _, _), (_, close) in zip(spans, _distance_rows((vectors,), spans, d)):
        np.fill_diagonal(close[:, start:], False)
        packed = np.packbits(close, axis=1, bitorder="little")
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        conflicts.extend(map(int.from_bytes, rows, itertools.repeat("little")))
    return conflicts


def _least_distance(vectors: Sequence[Sequence[int]]) -> int:
    """The least distance between two of the vectors, read from the upper
    blocks as the length minus the most agreements; there must be at least
    two."""
    least = []
    for n, agree in _distance_rows((vectors,), _spans(len(vectors), True)):
        # the block's own square holds each pair twice and the diagonal
        # once; mask all but its strict upper triangle with 0 agreements,
        # a count no pair falls below
        b = len(agree)
        agree[:, :b][np.tri(b, dtype=bool)] = 0
        least.append(n - int(agree.max()))
    return min(least)


def _group_weights(rows: np.ndarray) -> tuple[list[int], int] | None:
    """The weight distribution of x0⁻¹S, where S is the set of the distinct
    permutations ``rows`` and x0 its first row, and the number of
    generators that proved x0⁻¹S a group; None when S is empty or is no
    coset x0·H of a group H. For a coset, d(x0·a, x0·b) is the weight of
    a⁻¹b, which runs over H as b does, so entry w is the number of members
    at distance w from each member: m rows prove what the kernel reads from
    m² pairs. Every isometric image τGπ of a group G is such a coset.

    H is never formed: for g in H, S∘g is x0·(H∘g), so S∘g = S exactly when
    H∘g = H, and a member's weight in H is its distance from x0. Each
    generator g = x0⁻¹s is checked by one column gather, S∘g, whose rows
    are matched to S's through one sort of 64-bit keys and then compared
    whole, so a key collision can only refuse a coset, never accept another
    set. A checked g gives the transition that takes row i to the row
    s_i∘g. The reached rows, x0 at first, take every transition's images
    until their count stops growing: a finite group holds each inverse as a
    positive power, so forward steps alone reach x0·K, K the group the
    generators so far generate. While that stops short of some row, the
    middle one of the unreached rows, in row order, gives the next
    generator. It lies outside K, so each generator at least doubles K, and
    there are at most log2(m)."""
    m, n = rows.shape
    if not m:
        return None
    # the rows padded to whole 64-bit words, read as words for their keys
    # and their comparison; the gather leaves the padding's columns in place
    width = -(-n * rows.itemsize // 8) * 8 // rows.itemsize
    padded = np.zeros((m, width), dtype=rows.dtype)
    padded[:, :n] = rows
    words = padded.view(np.uint64)
    # fixed odd multipliers from the standard library's generator, which
    # numpy loads anyway; numpy.random would cost a fresh process about 10
    # ms and 6 MB of RSS
    bits = random.Random(0).getrandbits(64 * words.shape[1])
    multipliers = np.frombuffer(bits.to_bytes(8 * words.shape[1], "little"),
                                dtype=np.uint64) | np.uint64(1)
    order = np.argsort(words @ multipliers)  # the keys wrap mod 2^64
    inverse = np.empty(n, dtype=np.intp)
    inverse[rows[0]] = np.arange(n)
    columns = np.arange(width)
    reached = np.zeros(m, dtype=bool)
    reached[0] = True
    steps: list[np.ndarray] = []
    while not reached.all():
        unreached = np.flatnonzero(~reached)
        columns[:n] = inverse[rows[unreached[len(unreached) // 2]]]
        product = padded.take(columns, axis=1).view(np.uint64)
        step = np.empty(m, dtype=np.intp)
        step[np.argsort(product @ multipliers)] = order
        if not np.array_equal(words[step], product):
            return None
        steps.append(step)
        # until a pass over every transition reaches no new row
        count = 0
        while count < (count := np.count_nonzero(reached)):
            for s in steps:
                reached[s[reached]] = True
    # the moved points per row, summed by a product as in permutation_rows
    weights = (rows != rows[0]).view(np.uint8) @ np.ones(n, dtype=np.min_scalar_type(n))
    return np.bincount(weights, minlength=n + 1).tolist(), len(steps)


def _pairs(
    vectors: Sequence[Sequence[int]], d: int, spans: list[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int]]:
    """The pairs (i, j, distance) with i < j and distance below d that the
    upper blocks ``spans`` hold, as Python ints in row-major order, one
    block computed at a time as the stream is read. A pair is a hit where
    the agreements pass the length minus d, and its distance is formed at
    the hits alone. Each block's pairs are flattened at C speed, one zip of
    its columns' lists, with no Python step per pair."""
    def blocks() -> Iterator[Iterator[tuple[int, int, int]]]:
        for (start, _, first), (n, agree) in zip(spans, _distance_rows((vectors,), spans)):
            close = agree > n - d
            # the block's own square is symmetric with every agreement on
            # its diagonal, so its hits are the diagonal alone when none
            # lies above it
            if np.count_nonzero(close) == len(agree):
                continue
            # flat indices: a 2-D np.nonzero costs ten times as much per block
            hits = np.flatnonzero(close)
            rows, cols = np.divmod(hits, agree.shape[1])
            above = first + cols > start + rows
            yield zip((start + rows[above]).tolist(), (first + cols[above]).tolist(),
                      (n - agree.ravel()[hits[above]]).tolist())
    return itertools.chain.from_iterable(blocks())


def pairs_below(vectors: Sequence[Sequence[int]], d: int) -> Iterator[tuple[int, int, int]]:
    """The index pairs (i, j, distance) with i < j whose vectors lie at
    distance below d, as Python ints in row-major order (the order of
    ``itertools.combinations``): a lazy stream that computes one upper
    distance block at a time as it is read, so a reader that stops at the
    first pair computes only the first block that holds one, and no more
    than one block's pairs are held at once."""
    return _pairs(vectors, d, _spans(len(vectors), True))


def count_pairs_below(
    vectors: Sequence[Sequence[int]], d: int
) -> tuple[int, Iterator[tuple[int, int, int]]]:
    """The number of index pairs i < j whose vectors lie at distance below
    d, counted in one pass over the upper blocks' agreements without
    listing a pair, and the stream of those pairs that ``pairs_below``
    gives, which when read recomputes only the blocks that hold one."""
    count, hit = 0, []
    spans = _spans(len(vectors), True)
    for span, (_, close) in zip(spans, _distance_rows((vectors,), spans, d)):
        # the block's own square holds each pair twice and, below any d
        # above 0, its diagonal of n agreements once
        b = len(close)
        found = int((np.count_nonzero(close[:, :b]) - b * (d > 0)) // 2
                    + np.count_nonzero(close[:, b:]))
        count += found
        if found:
            hit.append(span)
    return count, _pairs(vectors, d, hit)

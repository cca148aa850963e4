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
move at least a given number of points in lexicographic image order.
``weight_rows`` lists one weight class support-first: supports ascend
lexicographically, then the derangements of each support ascend
lexicographically. The search relies on both orders for reproducible
witnesses.

The kernel has a self form, ``distance_blocks``, which walks all pairwise
distances of one set in row blocks of bounded size, and a cross form,
``distances``, which measures each vector of one small set against each of
another. A distance is the length minus the positions that agree. Both
forms narrow the columns to one dtype, int8 when every entry fits in 8
bits, int16 when in 16, and run one column loop, which adds the columns'
0/1 agreements to the counts. The path follows the entry width and the
table size: with int8 columns whose table fits ``_TABLE_BYTES``, a
column's agreements are rows gathered from a 0/1 table built once per
call, one row per entry value; every other input compares a slab of
columns per step by broadcasting, as many as fit ``_BLOCK_BYTES``, so that
long vectors in few rows take few steps.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .exactmath import derangement_count

# Distances per block in distance_blocks, and compares per slab in
# _distance_rows. Smaller blocks follow the upper triangle more closely:
# on 1,320 rows they compute 1.00 M distances at 256 KiB against 1.32 M at
# 1 MiB. With the agreement table, best of two sets of interleaved runs on
# a 2-core Xeon, 64 / 128 / 256 / 512 KiB: pairs_below on pgl2 11
# 1.8 / 1.4 / 1.7 / 2.4 ms, S_7 at d = 3 34 / 27 / 25 / 29 ms, P(7,4)
# conflict masks 31 / 27 / 25 / 38 ms. The whole `verify` of pgl2 11 still
# favours 256 KiB: the benchmark's tools probe read 6.1-6.4 ms against
# 6.4-6.5 ms at 128 KiB in 4 alternating pairs.
_BLOCK_BYTES = 1 << 18

# Bytes of the agreement table that _distance_rows builds from int8 columns
# (one per column, entry value and vector): the table is built whenever it
# fits, and wider entries or larger tables take the compare.
# Best of 3 on a 2-core Xeon (2 MiB L2 per core), upper blocks, compare ->
# table: S_8 (a 2.6 MB table) 889 -> 772 ms, 2,000 random 45-point vectors
# (4 MB) 19.7 -> 14.4 ms; past the bound, 2,048 64-point vectors (8 MB)
# 18.2 -> 20.3 ms.
_TABLE_BYTES = 1 << 22

# Permutations read per block by permutation_rows, and rows per block of
# weight_rows at most: blocks of a few KiB, so a caller that stops early has
# listed little past what it read
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


def _check_points(n: int) -> None:
    """The rule on n, the number of points, that every bound, oracle and
    family on n points shares: n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")


def _check_weight(n: int, w: int, moved: bool = True) -> None:
    """The weight rule on n points: w lies in 0..n, and when it counts the
    points a permutation moves (``moved``) it is never 1."""
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    if moved and w == 1:
        raise ValueError("weight 1 is impossible: a single moved point has nowhere to go")


def _row_dtype(n: int) -> np.dtype:
    """The smallest signed dtype that holds 0..n-1: int8 up to 128 points."""
    return np.min_scalar_type(-max(n, 1))


def permutation_rows(n: int, min_weight: int) -> Iterator[np.ndarray]:
    """Yield the permutations of n points that move at least ``min_weight``
    points, in lexicographic image order (``itertools.permutations``'s,
    filtered by weight), as the rows of consecutive integer matrices.

    Each block is the survivors of the next ``_LIST_ROWS`` permutations, so
    a block may be empty, and the stream yields at least one block.
    """
    if n < 0:
        raise ValueError(f"negative length: {n}")
    dtype = _row_dtype(n)
    fixed = np.arange(n, dtype=dtype)
    perms = itertools.permutations(range(n))
    while chunk := list(itertools.islice(perms, _LIST_ROWS)):
        rows = np.fromiter(itertools.chain.from_iterable(chunk), dtype=dtype,
                           count=len(chunk) * n).reshape(len(chunk), n)
        yield rows[np.count_nonzero(rows != fixed, axis=1) >= min_weight]


def weight_rows(n: int, w: int) -> Iterator[np.ndarray]:
    """Yield the permutations of n points with weight exactly w, support
    first: supports in lexicographic order, then each support's derangements
    in lexicographic image order. They come as the rows of consecutive
    integer matrices of at most ``_LIST_ROWS`` rows each, or one support's
    at a time when its derangements outnumber that. A weight that
    ``_check_weight`` refuses raises ``ValueError``.

    A block is built by index arithmetic: each support's derangements are
    the derangements of 0..w-1, listed once, read as indices into the
    support's points. The stream yields at least one block.
    """
    _check_weight(n, w)
    dtype = _row_dtype(n)
    if w == 0:
        yield np.arange(n, dtype=dtype)[None]
        return
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
            yield rows.reshape(-1, n)


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


def _distance_rows(
    sets: tuple[Sequence[Sequence[int]], ...], spans: Iterable[tuple[int, int, int]]
) -> Iterator[np.ndarray]:
    """For each span (start, stop, first), the distances between the rows
    start..stop-1 of a and the rows from first on of b, where sets is
    (a, b), or (a,) for b = a, each a fresh array in the smallest unsigned
    dtype that holds the vector length.

    One column loop adds the columns' 0/1 agreements to the counts. When
    the entries fit in int8 and the table fits ``_TABLE_BYTES``, a column's
    agreements are a row gather from a table built once from b:
    ``table[k][s, j]`` is 1 when ``b[j, k]`` is ``low + s``, so row
    ``a[i, k] - low`` holds row i's agreements in column k. Otherwise each
    step compares a slab of columns by broadcasting, as many as keep rows
    x columns x slab within ``_BLOCK_BYTES`` (one for a full block), into a
    bool scratch read through a uint8 view, and adds the slab's sum in the
    counts' dtype, so no add needs a cast."""
    low, high, columns = _columns(*sets)
    a, b = columns[0], columns[-1]
    n = len(a)
    table = index = None
    step = 1
    if b.dtype == np.int8 and b.size * (high - low + 1) <= _TABLE_BYTES:
        values = np.arange(low, high + 1).astype(np.int8)
        table = np.equal(b[:, None, :], values[:, None]).view(np.uint8)
        # a - low mod 256 is a - low, which lies in 0..255: a narrow index
        index = a.view(np.uint8) - np.uint8(low % 256)
    for start, stop, first in spans:
        agree = np.zeros((stop - start, b.shape[1] - first), dtype=np.min_scalar_type(n))
        if table is None:
            # a slab of columns per compare, within _BLOCK_BYTES of scratch
            step = max(1, _BLOCK_BYTES // max(1, agree.size))
            scratch = np.empty((min(step, n), *agree.shape), dtype=bool)
        for k in range(0, n, step):
            if table is None:
                slab = scratch[:n - k]
                np.equal(a[k:k + step, start:stop, None], b[k:k + step, None, first:], out=slab)
                ones = slab.view(np.uint8)
                # one column adds as it is: a sum would copy it first
                ones = ones[0] if len(ones) == 1 else ones.sum(axis=0, dtype=agree.dtype)
            else:
                ones = table[k][index[k, start:stop], first:]
            agree += ones
        yield np.subtract(n, agree, out=agree)


def distances(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> np.ndarray:
    """The kernel's cross form: the (len(a), len(b)) Hamming distances
    between the vectors of a and of b, each an integer matrix or a sequence
    of vectors, all of one length, as one block."""
    block, = _distance_rows((a, b), [(0, len(a), 0)])
    return block


def distance_blocks(
    vectors: Sequence[Sequence[int]], upper: bool = False,
    spans: list[tuple[int, int, int]] | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The kernel's self form: the pairwise Hamming distances between
    equal-length integer vectors as consecutive row blocks
    ``(start, first_column, block)``, where ``block[r, c]`` is the distance
    between ``vectors[start + r]`` and ``vectors[first_column + c]``.

    Full rows start at column 0; with ``upper`` each block starts at its own
    first row's column, which covers every pair i <= j once at half the work.
    A block holds about ``_BLOCK_BYTES`` distances, so memory stays bounded
    whatever the number of vectors; each block is a fresh array of the
    smallest unsigned dtype that holds the vector length. ``vectors`` may be
    an (m, n) integer matrix or a sequence of equal-length integer vectors.
    ``spans``, some of the blocks' (start, stop, first_column) in order, as
    ``block_counts`` gives them, limits the walk to those blocks.
    """
    if spans is None:
        m = len(vectors)
        rows = max(1, _BLOCK_BYTES // max(1, m))
        spans = [(start, min(start + rows, m), start if upper else 0)
                 for start in range(0, m, rows)]
    for (start, _, first), block in zip(spans, _distance_rows((vectors,), spans)):
        yield start, first, block


def block_counts(
    vectors: Sequence[Sequence[int]], d: int
) -> list[tuple[tuple[int, int, int], int]]:
    """For each block of ``distance_blocks(vectors, upper=True)``, its
    (start, stop, first_column) and the number of index pairs i < j in it
    whose vectors lie at distance below d, counted without listing a pair."""
    counts = []
    for start, first, block in distance_blocks(vectors, upper=True):
        # the block's own square holds each pair twice and, below any d
        # above 0, its zero diagonal once
        b = len(block)
        square = np.count_nonzero(block[:, :b] < d) - b * (d > 0)
        counts.append(((start, start + b, first),
                       int(square // 2 + np.count_nonzero(block[:, b:] < d))))
    return counts


def pair_blocks(
    vectors: Sequence[Sequence[int]], d: int, spans: list[tuple[int, int, int]] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The index pairs (i, j) with i < j whose vectors lie at distance below
    d, one distance block at a time: for each block of ``distance_blocks``
    that holds such a pair, the arrays (i, j, distance) of its pairs. Read
    in turn, the blocks give the pairs in row-major order (the order of
    ``itertools.combinations``), and no more than one block's pairs are
    held at once. ``spans``, as ``distance_blocks`` takes them, limits the
    blocks computed, for example to those ``block_counts`` found a pair in."""
    for start, first, block in distance_blocks(vectors, upper=True, spans=spans):
        close = block < d
        # the block's own square is symmetric with a zero diagonal, so its
        # hits are the diagonal alone when none lies above it
        if np.count_nonzero(close) == len(block):
            continue
        # flat indices: a 2-D np.nonzero costs ten times as much per block
        hits = np.flatnonzero(close)
        rows, cols = np.divmod(hits, block.shape[1])
        above = first + cols > start + rows
        yield start + rows[above], first + cols[above], block.ravel()[hits[above]]


def pairs_below(vectors: Sequence[Sequence[int]], d: int) -> list[tuple[int, int, int]]:
    """Index pairs (i, j, distance) with i < j and distance below d, in
    row-major order (the order of ``itertools.combinations``): the pairs of
    ``pair_blocks`` as one list of Python ints."""
    return [pair for block in pair_blocks(vectors, d)
            for pair in zip(*(column.tolist() for column in block))]

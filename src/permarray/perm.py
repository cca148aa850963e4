"""Permutations of {0..n-1} as image tuples, with the Hamming metric,
fixed-order enumeration streams and the one bulk distance kernel. The
kernel reads any (m, n) integer matrix or sequence of equal-length vectors;
``PermutationArray.rows`` is the matrix it reads for arrays.

The distance between two permutations is the number of positions where their
images differ; the weight of a permutation is its distance from the identity,
i.e. the number of points it moves. Distinct permutations always differ in at
least two positions, so weight 1 is impossible.

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
another. Both compare columns narrowed to one dtype, int8 when every entry
fits in 8 bits, int16 when in 16, and run one column loop, which adds each
column's bool comparison to the agreement counts through a uint8 view, so
the add needs no cast.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .exactmath import derangement_count

# Distances per block in distance_blocks. Smaller blocks follow the upper
# triangle more closely: on 1,320 rows they compute 1.00 M distances at
# 256 KiB against 1.32 M at 1 MiB. Medians of 12 interleaved runs on a 2-core
# Xeon with int16 columns, 1 MiB -> 256 KiB: pairs_below on pgl2 11 14.1 ->
# 9.8 ms, S_7 at d = 3 101 -> 97 ms, P(7,4) conflict masks 76 -> 70 ms,
# P(6,4) masks 3.3 -> 2.9 ms. int8 columns and the uint8 add keep this size;
# best of 7 on the same machine, int16 -> int8: the upper-triangle blocks
# of pgl2 11 3.7-4.9 -> 2.6-2.7 ms, P(7,4) conflict masks 50-56 -> 38 ms.
_BLOCK_BYTES = 1 << 18

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
    at a time when its derangements outnumber that. Weight 1 is impossible
    for a permutation and is rejected, as is a weight outside 0..n.

    A block is built by index arithmetic: each support's derangements are
    the derangements of 0..w-1, listed once, read as indices into the
    support's points. The stream yields at least one block.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside valid range 0..{n}")
    if w == 1:
        raise ValueError("weight 1 is impossible: a single moved point has nowhere to go")
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


def _columns(*matrices: np.ndarray) -> list[np.ndarray]:
    """The matrices' columns, as contiguous rows, in the narrowest integer
    dtype that holds every entry of all of them (int8 compares faster than
    int16, and int16 up to twice as fast as int64), else object: a narrower
    copy, or a float one such as ``np.result_type(int64, uint64)``, could
    make unequal entries equal."""
    filled = [matrix for matrix in matrices if matrix.size]
    low = min((int(matrix.min()) for matrix in filled), default=0)
    high = max((int(matrix.max()) for matrix in filled), default=0)
    dtype = next((t for t in (np.int8, np.int16, np.int32, np.int64, np.uint64)
                  if np.iinfo(t).min <= low and high <= np.iinfo(t).max), object)
    return [np.ascontiguousarray(matrix.T, dtype=dtype) for matrix in matrices]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distances between the vectors whose ``_columns`` are a and b, in
    the smallest unsigned dtype that holds the vector length."""
    n = len(a)
    agree = np.zeros((a.shape[1], b.shape[1]), dtype=np.min_scalar_type(n))
    scratch = np.empty(agree.shape, dtype=bool)
    ones = scratch.view(np.uint8)  # the comparisons as 0/1 counts, added with no cast
    for k in range(n):
        np.equal(a[k, :, None], b[k, None, :], out=scratch)
        agree += ones
    return np.subtract(n, agree, out=agree)


def distances(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> np.ndarray:
    """The kernel's cross form: the (len(a), len(b)) Hamming distances
    between the vectors of a and of b, each an integer matrix or a sequence
    of vectors, all of one length, as one block."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("vectors must share a common length")
    return _distances(*_columns(a, b))


def distance_blocks(
    vectors: Sequence[Sequence[int]], upper: bool = False
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
    """
    m = len(vectors)
    if m == 0:
        return
    arr = np.asarray(vectors)
    if arr.ndim != 2:
        raise ValueError("vectors must share a common length")
    columns, = _columns(arr)
    rows = max(1, _BLOCK_BYTES // m)
    for start in range(0, m, rows):
        first = start if upper else 0
        yield start, first, _distances(columns[:, start:start + rows], columns[:, first:])


def pairs_below(vectors: Sequence[Sequence[int]], d: int) -> list[tuple[int, int, int]]:
    """Index pairs (i, j, distance) with i < j and distance below d, in
    row-major order (the order of ``itertools.combinations``)."""
    pairs = []
    for start, first, block in distance_blocks(vectors, upper=True):
        # flat indices: a 2-D np.nonzero costs ten times as much per block
        hits = np.flatnonzero(block < d)
        rows, cols = np.divmod(hits, block.shape[1])
        above = first + cols > start + rows
        rows, cols, hits = rows[above], cols[above], hits[above]
        pairs.extend(zip((start + rows).tolist(), (first + cols).tolist(),
                         block.ravel()[hits].tolist()))
    return pairs

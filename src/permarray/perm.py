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

The kernel has a self form, which walks all pairwise distances of one set
in row blocks of bounded size, and a cross form, ``distances``, which
measures each vector of one small set against each of another. This module
alone knows how the self form's blocks are laid out: its readers walk them
here, and hand out what they read, not the blocks. A distance is the
length minus the positions that agree. Both forms narrow the columns to
one dtype, int8 when every entry fits in 8 bits, int16 when in 16, and run
one column loop, which adds the columns' agreements to the counts.
The path follows the entry width and the table size: with int8 columns
whose table fits ``_TABLE_BYTES``, the agreements are rows gathered from a
table built once per call, one row per entry value of a column, or per pair
of values of two columns where that pair table stays under ``_PAIR_BYTES``,
so that one gather reads two columns; every other input compares a slab of
columns per step by broadcasting, as many as fit ``_BLOCK_BYTES``, so that
long vectors in few rows take few steps.

The pairs of one set closer than a distance d come from the self form's
upper blocks in two calls: ``pairs_below`` streams them as (i, j,
distance) triples of Python ints, i < j, in row-major order, computing a
block as it is read; ``count_pairs_below`` counts them in one pass and
returns the same stream, which recomputes only the blocks that hold one.
Two private readers serve the package: ``_least_distance``, the minimum
distance of a set from its upper blocks (``PermutationArray.min_distance``),
and ``_conflict_masks``, the clique search's conflict bitmasks from full
rows, which compares the agreements against the length minus d and so
never forms the distances.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .exactmath import _check_points, _check_weight, derangement_count

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

# Bytes of the agreement table that _gathers builds from int8 columns (one
# per column, entry value and vector): the table is built whenever it fits,
# and wider entries or larger tables take the compare. The pair table that
# may be built from it is bounded by _PAIR_BYTES, not by this.
# Best of 3 on a 2-core Xeon (2 MiB L2 per core), upper blocks, compare ->
# table: S_8 (a 2.6 MB table) 889 -> 772 ms, 2,000 random 45-point vectors
# (4 MB) 19.7 -> 14.4 ms; past the bound, 2,048 64-point vectors (8 MB)
# 18.2 -> 20.3 ms.
_TABLE_BYTES = 1 << 22

# Bytes of the pair table (one per pair of columns, pair of entry values
# and vector), which halves the gathers and adds, below which _gathers
# builds it: glibc's 128 KiB mmap threshold (see _BLOCK_BYTES), so the
# table comes from the heap and is not mapped afresh on every call.
# P(6,4)'s 664 vertices take 72 KB and P(6,5)'s 529 take 57 KB; pgl2 11's
# would take 1.14 MB, so it gathers one column at a time: its `verify` in
# a fresh process, medians of 8 on a 2-core Xeon, took 6.2 ms and 311
# minor faults so, and 6.5 ms and 539 faults with no bound on the table.
_PAIR_BYTES = 1 << 17

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
    ``a[k, i] - low`` reads column k. Where the pair table stays under
    ``_PAIR_BYTES``, columns 2k and 2k + 1 are read at once: with alpha
    entry values, row ``s * alpha + t`` of pair k is the sum of row s of
    column 2k and row t of column 2k + 1, and the code is
    ``(a[2k, i] - low) * alpha + a[2k + 1, i] - low``. A trailing odd
    column stays single."""
    n, alpha = len(a), high - low + 1
    if not n or b.dtype != np.int8 or b.size * alpha > _TABLE_BYTES:
        return []
    values = np.arange(low, high + 1).astype(np.int8)
    table = np.equal(b[:, None, :], values[:, None]).view(np.uint8)
    # a - low mod 256 is a - low, which lies in 0..255: a narrow code
    codes = a.view(np.uint8) - np.uint8(low % 256)
    gathers = list(zip(table, codes))
    half = n // 2
    if half * alpha * alpha * b.shape[1] < _PAIR_BYTES:
        first, second = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
        pairs = table[first, :, None] + table[second, None]
        pairs = pairs.reshape(half, alpha * alpha, b.shape[1])
        pair_codes = codes[first].astype(np.uint16) * alpha + codes[second]
        gathers[:2 * half] = zip(pairs, pair_codes.astype(np.min_scalar_type(alpha * alpha - 1)))
    return gathers


def _distance_rows(
    sets: tuple[Sequence[Sequence[int]], ...], spans: Iterable[tuple[int, int, int]],
    below: int | None = None,
) -> Iterator[np.ndarray]:
    """For each span (start, stop, first), the distances between the rows
    start..stop-1 of a and the rows from first on of b, where sets is
    (a, b), or (a,) for b = a, each a fresh array in the smallest unsigned
    dtype that holds the vector length. With ``below``, each block is
    instead the bool matrix of the distances below it, read as the
    agreements above the length minus ``below``, so no subtract pass runs.

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
        yield np.subtract(n, agree, out=agree) if below is None else agree > n - below


def distances(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> np.ndarray:
    """The kernel's cross form: the (len(a), len(b)) Hamming distances
    between the vectors of a and of b, each an integer matrix or a sequence
    of vectors, all of one length, as one block."""
    block, = _distance_rows((a, b), [(0, len(a), 0)])
    return block


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
    minus d, so no subtract pass runs, and a block's masks are sliced from
    one ``tobytes`` buffer of its packed bits, not read one numpy row at a
    time: with the pair gathers, P(6,4)'s masks went 0.71 -> 0.45 ms."""
    conflicts: list[int] = []
    spans = _spans(len(vectors), False)
    for (start, _, _), close in zip(spans, _distance_rows((vectors,), spans, d)):
        np.fill_diagonal(close[:, start:], False)
        packed = np.packbits(close, axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        rows = [data[i:i + width] for i in range(0, len(data), width)]
        conflicts.extend(map(int.from_bytes, rows, itertools.repeat("little")))
    return conflicts


def _least_distance(vectors: Sequence[Sequence[int]]) -> int:
    """The least distance between two of the vectors, read from the upper
    blocks; there must be at least two."""
    least = []
    for block in _distance_rows((vectors,), _spans(len(vectors), True)):
        # the block's own square holds each pair twice and the diagonal
        # once; mask all but its strict upper triangle with a value no
        # distance exceeds
        b = len(block)
        block[:, :b][np.tri(b, dtype=bool)] = np.iinfo(block.dtype).max
        least.append(int(block.min()))
    return min(least)


def _pairs(
    vectors: Sequence[Sequence[int]], d: int, spans: list[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int]]:
    """The pairs (i, j, distance) with i < j and distance below d that the
    upper blocks ``spans`` hold, as Python ints in row-major order, one
    block computed at a time as the stream is read. Each block's pairs are
    flattened at C speed, one zip of its columns' lists, with no Python
    step per pair."""
    def blocks() -> Iterator[Iterator[tuple[int, int, int]]]:
        for (start, _, first), block in zip(spans, _distance_rows((vectors,), spans)):
            close = block < d
            # the block's own square is symmetric with a zero diagonal, so
            # its hits are the diagonal alone when none lies above it
            if np.count_nonzero(close) == len(block):
                continue
            # flat indices: a 2-D np.nonzero costs ten times as much per block
            hits = np.flatnonzero(close)
            rows, cols = np.divmod(hits, block.shape[1])
            above = first + cols > start + rows
            yield zip((start + rows[above]).tolist(), (first + cols[above]).tolist(),
                      block.ravel()[hits[above]].tolist())
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
    d, counted in one pass over the upper distance blocks without listing a
    pair, and the stream of those pairs that ``pairs_below`` gives, which
    when read recomputes only the blocks that hold one."""
    count, hit = 0, []
    spans = _spans(len(vectors), True)
    for span, block in zip(spans, _distance_rows((vectors,), spans)):
        # the block's own square holds each pair twice and, below any d
        # above 0, its zero diagonal once
        b = len(block)
        found = int((np.count_nonzero(block[:, :b] < d) - b * (d > 0)) // 2
                    + np.count_nonzero(block[:, b:] < d))
        count += found
        if found:
            hit.append(span)
    return count, _pairs(vectors, d, hit)

"""Plain-text interchange format for permutation arrays and constant-weight
binary codes.

A file is a header line followed by one body line per member. The header is
whitespace-separated: a kind token ("pa" for permutation arrays, "cw" for
constant-weight binary codes) and key=value fields n, d, w, count, where w is
"-" for arrays without a fixed weight. Body lines are comma-separated
integers: the image tuple of a permutation, or the sorted support of a word.
Blank lines and '#' comments are ignored. Example::

    pa n=4 d=4 w=- count=4
    0,1,2,3
    1,0,3,2
    2,3,0,1
    3,2,1,0

The d field records the distance the writer claims; readers re-verify rather
than trust it.

Writers render the whole body with one format call. ``loads`` has two
readers that give the same result, payload or error, on every text. A text
that is ASCII, whose first line is the header, and that holds no ASCII
whitespace other than space, tab and newline (the guard) has its body read
by numpy's C text reader; this is every text the writers make. Any other
text, and any body that reader rejects or shapes otherwise than the header
promises, goes to the general reader, the source of every error message
about the body.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .constructions import BinaryCwCode, PermutationArray
from .perm import Permutation


class PaFormatError(ValueError):
    """Raised when a file does not parse as this format."""


@dataclass(frozen=True)
class PaHeader:
    """Parsed header line: object kind plus declared parameters."""

    kind: str
    n: int
    d: int
    w: int | None
    count: int


def _format_header(kind: str, n: int, d: int, w: int | None, count: int) -> str:
    w_text = "-" if w is None else str(w)
    return f"{kind} n={n} d={d} w={w_text} count={count}"


def _format_body(entries: list[int], width: int, count: int) -> str:
    """count lines of width comma-separated entries each, in one format call."""
    return (",".join(["%d"] * width) + "\n") * count % tuple(entries)


def dump_pa(array: PermutationArray, d: int, w: int | None = None) -> str:
    """Render an array to format text, claiming distance d (and weight w for
    constant-weight arrays)."""
    header = _format_header("pa", array.n, d, w, len(array))
    return header + "\n" + _format_body(array.rows.ravel().tolist(), array.n, len(array))


def dump_cw(code: BinaryCwCode) -> str:
    """Render a constant-weight binary code to format text."""
    header = _format_header("cw", code.n, code.distance, code.weight, len(code))
    supports = list(chain.from_iterable(code))
    return header + "\n" + _format_body(supports, code.weight, len(code))


def write_pa(array: PermutationArray, d: int, path: str | Path, w: int | None = None) -> None:
    Path(path).write_text(dump_pa(array, d, w), encoding="utf-8")


def write_cw(code: BinaryCwCode, path: str | Path) -> None:
    Path(path).write_text(dump_cw(code), encoding="utf-8")


def _parse_header(line: str, lineno: int) -> PaHeader:
    fields = line.split()
    if not fields or fields[0] not in ("pa", "cw"):
        raise PaFormatError(f"line {lineno}: header must start with 'pa' or 'cw': {line!r}")
    values: dict[str, str] = {}
    for field in fields[1:]:
        key, sep, value = field.partition("=")
        if not sep or key not in ("n", "d", "w", "count"):
            raise PaFormatError(f"line {lineno}: bad header field {field!r}")
        if key in values:
            raise PaFormatError(f"line {lineno}: repeated header field {key!r}")
        values[key] = value
    missing = {"n", "d", "w", "count"} - set(values)
    if missing:
        raise PaFormatError(f"line {lineno}: header missing {sorted(missing)}")
    try:
        w = None if values["w"] == "-" else int(values["w"])
        header = PaHeader(fields[0], int(values["n"]), int(values["d"]), w, int(values["count"]))
    except ValueError as exc:
        raise PaFormatError(f"line {lineno}: non-integer header value") from exc
    if fields[0] == "cw" and header.w is None:
        raise PaFormatError(f"line {lineno}: cw header requires an integer weight")
    return header


# ASCII whitespace other than space, tab and newline: str.splitlines breaks
# lines at \r, \v, \f and \x1c-\x1e, and np.loadtxt strips \x1f around an
# entry, where int() rejects it. One `in` test per character scans the
# 63 KB pgl2 11 file in 4 us, a regex character class in 0.3 ms.
_UNGUARDED = "\r\v\f\x1c\x1d\x1e\x1f"


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _ints(lineno: int, line: str) -> list[int]:
    try:
        return list(map(int, line.split(",")))
    except ValueError as exc:
        raise PaFormatError(f"line {lineno}: non-integer entry in {line!r}") from exc


def _canonical_body(text: str) -> tuple[PaHeader, np.ndarray] | None:
    """The header and the body as one (count, width) int64 matrix, read by
    numpy's C text reader; None when the text fails the guard or the reader
    rejects the body or shapes it otherwise than the header promises."""
    if not text.isascii() or any(c in text for c in _UNGUARDED):
        return None
    first, _, rest = text.partition("\n")
    line = first.split("#", 1)[0].strip()
    if not line:
        return None
    header = _parse_header(line, 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body without rows
            matrix = np.loadtxt(io.StringIO(rest), dtype=np.int64, delimiter=",",
                                comments="#", ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    width = header.n if header.kind == "pa" else header.w
    if matrix.shape != (header.count, width):
        return None
    return header, matrix


def _code(header: PaHeader, words: tuple[tuple[int, ...], ...]) -> BinaryCwCode:
    try:
        return BinaryCwCode(header.n, header.w, words, header.d)
    except ValueError as exc:
        raise PaFormatError(str(exc)) from exc


def _array(header: PaHeader, rows: np.ndarray | list[list[int]],
           misfit: tuple[int, ...] | None = None) -> PermutationArray:
    """The array of the body's rows, an int64 matrix or lists of ints; misfit
    is the first body line that does not hold n entries, if any, and rows
    holds the lines before it."""
    try:
        array = PermutationArray(header.n, rows)
        if misfit is not None:
            Permutation(misfit)  # a non-bijection reports that before its length
    except ValueError as exc:
        raise PaFormatError(str(exc)) from exc
    if misfit is not None:
        raise PaFormatError(f"member {misfit!r} does not have length {header.n}")
    if len(array) != header.count:
        raise PaFormatError("duplicate members in body")
    return array


def loads(text: str) -> tuple[PaHeader, PermutationArray | BinaryCwCode]:
    """Parse format text into its header and payload, validating the member
    count and (for permutations) bijectivity. The claimed distance is parsed
    but not checked here.

    Two readers give the same result, payload or error, on every text.

    The C reader takes a text that passes the guard: it is ASCII, its first
    line is the header, and it holds no ASCII whitespace but space, tab and
    newline, so its lines are the ones ``str.splitlines`` finds. numpy's
    ``loadtxt`` reads the body into one int64 matrix; an entry it accepts
    is one ``int()`` accepts, with the same value, as
    ``test_loadtxt_reads_an_entry_by_int_rules`` checks. When the matrix has
    the header's count of rows and n entries each (the weight, for a code),
    the payload is built from it as below. Any other text, any body the C
    reader rejects or warns on (non-integer or out-of-range entries, rows of
    unequal width, a whitespace-only line, no rows) and any other shape goes
    to the general reader.

    The general reader reads each body line with ``int()`` (surrounding
    spaces, a sign, digit underscores and Unicode digits are accepted, and
    no entry is too large). Errors come in line order: the first
    non-integer entry, then the member count, then the first line that is
    not a bijection on its own entries or does not have n of them.

    Either way a permutation body goes to ``PermutationArray``, an int64
    matrix from the C reader or lists from the general one, and is checked
    all at once; a code body goes to ``BinaryCwCode`` as tuples."""
    canonical = _canonical_body(text)
    if canonical is not None:
        header, matrix = canonical
        if header.kind == "cw":
            return header, _code(header, tuple(map(tuple, matrix.tolist())))
        return header, _array(header, matrix)
    lines = _content_lines(text)
    if not lines:
        raise PaFormatError("empty file")
    header = _parse_header(lines[0][1], lines[0][0])
    rows = [_ints(lineno, line) for lineno, line in lines[1:]]
    if len(rows) != header.count:
        raise PaFormatError(f"header promises {header.count} members, found {len(rows)}")
    if header.kind == "cw":
        return header, _code(header, tuple(map(tuple, rows)))
    # the lines before the first one of the wrong length hold n entries each
    k = next((i for i, row in enumerate(rows) if len(row) != header.n), len(rows))
    misfit = tuple(rows[k]) if k < len(rows) else None
    return header, _array(header, rows[:k], misfit)


def load(path: str | Path) -> tuple[PaHeader, PermutationArray | BinaryCwCode]:
    """Read and parse a file in this format."""
    return loads(Path(path).read_text(encoding="utf-8"))

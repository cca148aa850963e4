"""Plain-text interchange format for permutation arrays and constant-weight
binary codes.

A file is a header line followed by one body line per member. The header is
whitespace-separated: a kind token ("pa" for permutation arrays, "cw" for
constant-weight binary codes) and key=value fields n, d, w, count, where w is
"-" for arrays without a fixed weight. Body lines are comma-separated
integers: the image tuple of a permutation, or the sorted support of a word.
Blank lines and '#' comments are ignored, except in a body of width 0 (an
array on 0 points, or a code of weight 0), where the one possible member,
the empty tuple, is written as a blank line. Example::

    pa n=4 d=4 w=- count=4
    0,1,2,3
    1,0,3,2
    2,3,0,1
    3,2,1,0

The d field records the distance the writer claims; readers re-verify rather
than trust it. d must be at least 1, n and count must not be negative, and
w, when given, must lie in 0..n: every member of a "pa" body with a w moves
exactly w points. ``PaHeader`` holds that range rule; the writers raise
``ValueError`` rather than write a header the reader would refuse.

Writers render the whole body with one format call. ``loads`` has two
readers that give the same result, payload or error, on every text. Both
take their lines from ``str.splitlines``. A text that is ASCII, whose first
line is the header, and that holds no \x1f (the guard) has its body read by
numpy's C text reader; so is every text the writers make, and each of
them with CRLF line ends, except a body of width 0, which that reader
warns on. Any other text, and any body that reader rejects or shapes
otherwise than the header promises, goes to the general reader, the source
of every error message about the body.
"""

from __future__ import annotations

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
    """Parsed header line: object kind plus declared parameters. A header
    out of range raises ``ValueError``: the one range rule, which the
    reader applies to what it parses and the writers to what they write."""

    kind: str
    n: int
    d: int
    w: int | None
    count: int

    def __post_init__(self) -> None:
        if self.kind == "cw" and self.w is None:
            raise ValueError("cw header requires an integer weight")
        for key in ("n", "count"):
            if getattr(self, key) < 0:
                raise ValueError(f"negative {key}={getattr(self, key)}")
        if self.d < 1:
            raise ValueError(f"distance d={self.d} below 1")
        if self.w is not None and not 0 <= self.w <= self.n:
            raise ValueError(f"weight w={self.w} outside 0..{self.n}")

    def __str__(self) -> str:
        w_text = "-" if self.w is None else str(self.w)
        return f"{self.kind} n={self.n} d={self.d} w={w_text} count={self.count}"


def _format_body(entries: list[int], width: int, count: int) -> str:
    """count lines of width comma-separated entries each, in one format call."""
    return (",".join(["%d"] * width) + "\n") * count % tuple(entries)


def dump_pa(array: PermutationArray, d: int, w: int | None = None) -> str:
    """Render an array to format text, claiming distance d (and weight w for
    constant-weight arrays); ``ValueError`` for a header out of range."""
    header = str(PaHeader("pa", array.n, d, w, len(array)))
    return header + "\n" + _format_body(array.rows.ravel().tolist(), array.n, len(array))


def dump_cw(code: BinaryCwCode) -> str:
    """Render a constant-weight binary code to format text; ``ValueError``
    for a header out of range, such as a code of distance 0."""
    header = str(PaHeader("cw", code.n, code.distance, code.weight, len(code)))
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
        n, d, count = int(values["n"]), int(values["d"]), int(values["count"])
    except ValueError as exc:
        raise PaFormatError(f"line {lineno}: non-integer header value") from exc
    try:
        return PaHeader(fields[0], n, d, w, count)
    except ValueError as exc:
        raise PaFormatError(f"line {lineno}: {exc}") from None


# Both readers take their lines from str.splitlines, so every ASCII line
# break (\n, \r, \v, \f, \x1c-\x1e) splits both alike. That leaves \x1f, the
# one ASCII character np.loadtxt strips around an entry and int() rejects.
_UNGUARDED = "\x1f"


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _ints(lineno: int, line: str) -> list[int]:
    try:
        return list(map(int, line.split(","))) if line else []
    except ValueError as exc:
        raise PaFormatError(f"line {lineno}: non-integer entry in {line!r}") from exc


def _canonical_body(text: str) -> tuple[PaHeader, np.ndarray] | None:
    """The header and the body as one (count, width) int64 matrix, read by
    numpy's C text reader; None when the text fails the guard or the reader
    rejects the body or shapes it otherwise than the header promises."""
    if not text.isascii() or _UNGUARDED in text:
        return None
    lines = text.splitlines()
    line = lines[0].split("#", 1)[0].strip() if lines else ""
    if not line:
        return None
    header = _parse_header(line, 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body without rows
            matrix = np.loadtxt(lines[1:], dtype=np.int64, delimiter=",",
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
    holds the lines before it. With a header weight, every member must move
    that many points."""
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
    if header.w is not None:
        wrong = np.count_nonzero(array.rows != np.arange(header.n), axis=1) != header.w
        if wrong.any():
            member = tuple(array.rows[wrong.argmax()].tolist())
            raise PaFormatError(f"member {member!r} does not have weight {header.w}")
    return array


def loads(text: str) -> tuple[PaHeader, PermutationArray | BinaryCwCode]:
    """Parse format text into its header and payload, validating the member
    count, (for permutations) bijectivity and the weight the header gives.
    The claimed distance is parsed but not checked here.

    Two readers give the same result, payload or error, on every text.

    The C reader takes a text that passes the guard: it is ASCII, its first
    line is the header, and it holds no \x1f, which ``loadtxt`` strips
    around an entry and ``int()`` rejects. numpy's ``loadtxt`` reads the
    lines after the header that ``str.splitlines`` finds into one int64
    matrix (it warns on a body of width 0, which has no entries); an entry
    it accepts is one ``int()`` accepts, with the same value, as
    ``test_loadtxt_reads_an_entry_by_int_rules`` checks. When the matrix has
    the header's count of rows and n entries each (the weight, for a code),
    the payload is built from it as below. Any other text, any body the C
    reader rejects or warns on (non-integer or out-of-range entries, rows of
    unequal width, a whitespace-only line, no rows) and any other shape goes
    to the general reader.

    The general reader reads each body line with ``int()`` (surrounding
    spaces, a sign, digit underscores and Unicode digits are accepted, and
    no entry is too large); in a body of width 0 each blank line is an
    empty member, as the writers write one. Errors come in line order: the
    first non-integer entry, then the member count, then the first line
    that is not a bijection on its own entries or does not have n of them.

    Either way a permutation body goes to ``PermutationArray``, an int64
    matrix from the C reader or lists from the general one, and is checked
    all at once; last, when the header gives a weight, the first member in
    sorted order that does not move that many points is an error. A code
    body goes to ``BinaryCwCode`` as tuples."""
    canonical = _canonical_body(text)
    if canonical is not None:
        header, matrix = canonical
        if header.kind == "cw":
            return header, _code(header, tuple(map(tuple, matrix.tolist())))
        return header, _array(header, matrix)
    lines = _content_lines(text)
    if not lines:
        raise PaFormatError("empty file")
    start, line = lines[0]
    header = _parse_header(line, start)
    if (header.n if header.kind == "pa" else header.w) == 0:
        # the writers write a member with no entries as a blank line
        blank = [(lineno, "") for lineno, raw in enumerate(text.splitlines()[start:], start + 1)
                 if not raw.strip()]
        lines = sorted(lines + blank)
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

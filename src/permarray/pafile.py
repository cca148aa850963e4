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
exactly w points, which is checked only when the body has a member, so an
empty body costs nothing per point. ``PaHeader`` holds that range rule;
the writers raise ``ValueError`` rather than write a header the reader
would refuse.

Writers render the body a bounded run of rows at a time, one format call
per run, and write each run as it is made. ``loads`` finds the
header once, as the first line with content, and has two readers for the
lines after it that give the same result, payload or error, on every text.
Both take their lines from ``str.splitlines``. A text that is ASCII and
holds no \x1f (the guard) has its body read by numpy's C text reader; so
is every text the writers make, and each of them with CRLF line ends or
with comment and blank lines above the header, except a body of width 0,
which that reader warns on. Any other text, and any body that reader
rejects or shapes otherwise than the header promises, goes to the general
reader, which reads it in one pass and is the source of every error
message about the body. Either reader's rows reach the payload
constructors through one boundary in ``loads``, which turns a payload's own
``ValueError`` into ``PaFormatError`` with the same message, for both
readers alike. ``load`` drops a leading byte-order mark.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
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


# Entries a writer turns into text at a time: about 2.5 MB of Python ints
_WRITE_ENTRIES = 1 << 16


def _pieces(header: PaHeader, rows: np.ndarray) -> Iterator[str]:
    """The format text of a header and an integer matrix of body rows: the
    header line, then the body, as many whole rows at a time as keep to
    ``_WRITE_ENTRIES`` entries (at least one), each in one format call."""
    yield f"{header}\n"
    count, width = rows.shape
    step = max(1, _WRITE_ENTRIES // max(width, 1))
    line = ",".join(["%d"] * width) + "\n"
    for start in range(0, count, step):
        chunk = rows[start:start + step]
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _pa_pieces(array: PermutationArray, d: int, w: int | None = None) -> Iterator[str]:
    """``_pieces`` of an array, claiming distance d (and weight w for
    constant-weight arrays); ``ValueError`` for a header out of range, raised
    by the call before any text is made."""
    return _pieces(PaHeader("pa", array.n, d, w, len(array)), array.rows)


def _cw_pieces(code: BinaryCwCode) -> Iterator[str]:
    """``_pieces`` of a constant-weight binary code, its supports as rows;
    ``ValueError`` for a header out of range, such as a code of distance 0."""
    return _pieces(PaHeader("cw", code.n, code.distance, code.weight, len(code)), code.rows)


def _write(path: str | Path, pieces: Iterator[str]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(pieces)


def dump_pa(array: PermutationArray, d: int, w: int | None = None) -> str:
    """Render an array to format text, claiming distance d (and weight w for
    constant-weight arrays); ``ValueError`` for a header out of range."""
    return "".join(_pa_pieces(array, d, w))


def dump_cw(code: BinaryCwCode) -> str:
    """Render a constant-weight binary code to format text; ``ValueError``
    for a header out of range, such as a code of distance 0."""
    return "".join(_cw_pieces(code))


def write_pa(array: PermutationArray, d: int, path: str | Path, w: int | None = None) -> None:
    """Write ``dump_pa``'s text to path, a bounded piece at a time."""
    _write(path, _pa_pieces(array, d, w))


def write_cw(code: BinaryCwCode, path: str | Path) -> None:
    """Write ``dump_cw``'s text to path, a bounded piece at a time."""
    _write(path, _cw_pieces(code))


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


def _c_reader(text: str, header: PaHeader, body: list[str]) -> np.ndarray | list | None:
    """The body lines as one (count, width) int64 matrix read by numpy's C
    text reader, as lists for a code; None when the text fails the guard or
    the reader rejects the body or shapes it otherwise than the header
    promises."""
    if not text.isascii() or _UNGUARDED in text:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body without rows
            matrix = np.loadtxt(body, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    if matrix.shape != (header.count, header.n if header.kind == "pa" else header.w):
        return None
    return matrix if header.kind == "pa" else matrix.tolist()


def _general_reader(header: PaHeader, body: list[str], start: int) -> list[list[int]]:
    """The body lines, the first of them line start + 1, read in one pass
    with int(); raises the reader's errors about the body in their order,
    a non-bijection before a short row as the payload's own ``ValueError``,
    which ``loads`` turns into ``PaFormatError``."""
    width = header.n if header.kind == "pa" else header.w
    rows: list[list[int]] = []
    ragged = None  # the index of the first row that does not hold width entries
    for lineno, raw in enumerate(body, start + 1):
        line = raw.split("#", 1)[0].strip()
        # the writers write a member with no entries as a blank line
        if line or (width == 0 and not raw.strip()):
            try:
                rows.append(list(map(int, line.split(","))) if line else [])
            except ValueError as exc:
                raise PaFormatError(f"line {lineno}: non-integer entry in {line!r}") from exc
            if ragged is None and len(rows[-1]) != width:
                ragged = len(rows) - 1
    if len(rows) != header.count:
        raise PaFormatError(f"header promises {header.count} members, found {len(rows)}")
    if header.kind == "pa" and ragged is not None:
        PermutationArray(header.n, rows[:ragged])
        Permutation(rows[ragged])  # a non-bijection reports that before its length
        raise PaFormatError(f"member {tuple(rows[ragged])!r} does not have length {header.n}")
    return rows


def _array(header: PaHeader, rows: np.ndarray | list[list[int]]) -> PermutationArray:
    """The array of the body's rows, an int64 matrix or lists of n ints.
    With a header weight, every member must move that many points; an
    array with no members has none to check."""
    array = PermutationArray(header.n, rows)
    if len(array) != header.count:
        raise PaFormatError("duplicate members in body")
    if header.w is not None and len(array):
        wrong = np.count_nonzero(array.rows != np.arange(header.n), axis=1) != header.w
        if wrong.any():
            member = tuple(array.rows[wrong.argmax()].tolist())
            raise PaFormatError(f"member {member!r} does not have weight {header.w}")
    return array


def loads(text: str) -> tuple[PaHeader, PermutationArray | BinaryCwCode]:
    """Parse format text into its header and payload, validating the member
    count, (for permutations) bijectivity and the weight the header gives.
    The claimed distance is parsed but not checked here.

    The lines are those ``str.splitlines`` finds, and the header is the
    first of them with content, whatever comment or blank lines come
    before it. Two readers then read the lines after it, the body, and
    give the same result, payload or error, on every text.

    The C reader takes a text that passes the guard: it is ASCII and holds
    no \x1f, which ``loadtxt`` strips around an entry and ``int()``
    rejects. numpy's ``loadtxt`` reads the body into one int64 matrix (it
    warns on a body of width 0, which has no entries); an entry it accepts
    is one ``int()`` accepts, with the same value, as
    ``test_loadtxt_reads_an_entry_by_int_rules`` checks. When the matrix has
    the header's count of rows and n entries each (the weight, for a code),
    the payload is built from it as below. Any other text, any body the C
    reader rejects or warns on (non-integer or out-of-range entries, rows of
    unequal width, a whitespace-only line, no rows) and any other shape goes
    to the general reader.

    The general reader reads the body in one pass, each line with ``int()``
    (surrounding spaces, a sign, digit underscores and Unicode digits are
    accepted, and no entry is too large); in a body of width 0 each blank
    line is an empty member, as the writers write one. Errors come in line
    order: the first non-integer entry, then the member count, then the
    first line that is not a bijection on its own entries or does not have
    n of them.

    Either way a permutation body goes to ``PermutationArray``, an int64
    matrix from the C reader or lists from the general one, and is checked
    all at once; last, when the header gives a weight, the first member in
    sorted order that does not move that many points is an error. A code
    body goes to ``BinaryCwCode`` as tuples.

    A ``ValueError`` that ``PermutationArray``, ``Permutation`` or
    ``BinaryCwCode`` raises becomes, here alone, a ``PaFormatError`` with
    its message and with it as the cause."""
    lines = text.splitlines()
    for start, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            break
    else:
        raise PaFormatError("empty file")
    header = _parse_header(line, start)
    # the general reader's short-row check builds payloads too, so both
    # readers run inside the one boundary
    try:
        rows = _c_reader(text, header, lines[start:])
        if rows is None:
            rows = _general_reader(header, lines[start:], start)
        if header.kind == "cw":
            return header, BinaryCwCode(header.n, header.w, tuple(map(tuple, rows)), header.d)
        return header, _array(header, rows)
    except PaFormatError:
        raise
    except ValueError as exc:
        raise PaFormatError(str(exc)) from exc


def load(path: str | Path) -> tuple[PaHeader, PermutationArray | BinaryCwCode]:
    """Read and parse a file in this format; a leading byte-order mark is
    dropped."""
    return loads(Path(path).read_text(encoding="utf-8-sig"))

"""Interchange format: round-trips, header parsing, and rejection of
malformed or inconsistent files."""

import io
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permarray import pafile
from permarray.constructions import (
    BinaryCwCode,
    PermutationArray,
    block_cycle_cwpa,
    perfect_pa,
)
from permarray.pafile import (
    PaFormatError,
    _canonical_body,
    _content_lines,
    _parse_header,
    dump_cw,
    dump_pa,
    load,
    loads,
    write_cw,
    write_pa,
)
from permarray.perm import Permutation


def reference_dump_pa(array, d, w=None):
    """The writer as it was before one-call formatting: one line per member."""
    lines = [str(pafile.PaHeader("pa", array.n, d, w, len(array)))]
    lines.extend(",".join(str(v) for v in p) for p in array)
    return "\n".join(lines) + "\n"


def reference_dump_cw(code):
    lines = [str(pafile.PaHeader("cw", code.n, code.distance, code.weight, len(code)))]
    lines.extend(",".join(str(v) for v in word) for word in code)
    return "\n".join(lines) + "\n"


def reference_loads(text):
    """The loader as it was before bulk parsing: each line parsed on its own,
    and each permutation row checked as a Permutation, then for length."""
    lines = _content_lines(text)
    if not lines:
        raise PaFormatError("empty file")
    header = _parse_header(lines[0][1], lines[0][0])
    if (header.n if header.kind == "pa" else header.w) == 0:
        # a blank line in a body of width 0 is a member with no entries
        raw = text.splitlines()
        lines += [(i + 1, "") for i in range(lines[0][0], len(raw)) if not raw[i].strip()]
        lines.sort()
    rows = []
    for lineno, line in lines[1:]:
        try:
            rows.append(tuple(int(v) for v in line.split(",")) if line else ())
        except ValueError as exc:
            raise PaFormatError(f"line {lineno}: non-integer entry in {line!r}") from exc
    if len(rows) != header.count:
        raise PaFormatError(f"header promises {header.count} members, found {len(rows)}")
    if header.kind == "pa":
        members = []
        for row in rows:
            try:
                members.append(Permutation(row))
            except ValueError as exc:
                raise PaFormatError(str(exc)) from exc
            if len(row) != header.n:
                raise PaFormatError(f"member {row!r} does not have length {header.n}")
        payload = PermutationArray(header.n, members)
        if len(payload) != header.count:
            raise PaFormatError("duplicate members in body")
        for member in payload:
            if header.w is not None and sum(i != v for i, v in enumerate(member)) != header.w:
                raise PaFormatError(f"member {tuple(member)!r} does not have weight {header.w}")
    else:
        try:
            payload = BinaryCwCode(header.n, header.w, tuple(rows), header.d)
        except ValueError as exc:
            raise PaFormatError(str(exc)) from exc
    return header, payload


def outcome(loader, text):
    """What a loader gives for text: ("ok", header, payload) or ("error", message)."""
    try:
        return ("ok", *loader(text))
    except PaFormatError as exc:
        return ("error", str(exc))


FAULTS = ("non-integer", "wrong-length", "non-bijection", "out-of-range", "duplicate",
          "count", "misaligned", "spelling", "control")

# entries that int() reads, spelled with a sign, an underscore, a Unicode
# digit, a leading space, and one past int64
SPELLINGS = ("+1", "1_0", "\u0663", " 1", str(2**63))
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# characters str.splitlines breaks a line at, or int() and np.loadtxt read
# differently around an entry; the C reader must leave such a text alone
CONTROLS = ("\x0c", "\x0b", "\r", "\r\n", "\x1c", "\x1f", "\x85", "\u2028", "\t")


@st.composite
def format_texts(draw):
    """A valid pa or cw file with up to three faults injected, written with
    random spaces around entries, comments and blank lines."""
    kind = draw(st.sampled_from(["pa", "cw"]))
    n = draw(st.integers(1, 7))
    if kind == "pa":
        w = None
        pool = st.permutations(range(n))
    else:
        w = draw(st.integers(0, n))
        pool = st.sampled_from(list(combinations(range(n), w)))
    rows = [list(r) for r in draw(st.lists(pool, min_size=1, max_size=10, unique_by=tuple))]
    count = len(rows)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if fault == "non-integer" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(["x", "", "1.5", "0x1", "1.0", "1e3"]))
        elif fault == "wrong-length":
            # dropping the largest entry or appending the length keeps a
            # permutation a bijection on its own entries
            if row and draw(st.booleans()):
                row.remove(max(row, key=lambda v: (isinstance(v, int), v)))
            else:
                row.append(len(row))
        elif fault == "non-bijection" and len(row) >= 2:
            row[0], row[1] = row[1], row[1]
        elif fault == "out-of-range" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([-1, n, n + 3, 2**70]))
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), row.copy())
            count += 1
        elif fault == "count":
            count += draw(st.sampled_from([-1, 1]))
        elif fault == "misaligned" and i + 1 < len(rows) and row:
            rows[i + 1].insert(0, row.pop())
        elif fault == "spelling" and row:
            k = draw(st.integers(0, len(row) - 1))
            # the entry's own value spelled another way keeps a valid file valid
            own = str(row[k])
            row[k] = draw(st.sampled_from(
                (f"+{own}", f" {own}", own.translate(ARABIC_INDIC)) + SPELLINGS))
        elif fault == "control" and row:
            control = draw(st.sampled_from(CONTROLS))
            if len(row) >= 2 and draw(st.booleans()):
                # between two fields, before or after their comma
                k = draw(st.integers(0, len(row) - 2))
                if draw(st.booleans()):
                    row[k] = f"{row[k]}{control}"
                else:
                    row[k + 1] = f"{control}{row[k + 1]}"
            else:
                k = draw(st.integers(0, len(row) - 1))
                entry = str(row[k])
                at = draw(st.integers(0, len(entry)))
                row[k] = entry[:at] + control + entry[at:]
    text = [f"{kind} n={n} d=2 w={'-' if w is None else w} count={count}"]
    for row in rows:
        if draw(st.booleans()):
            text.append(draw(st.sampled_from(["", "   ", "\t", " \t ", "# a comment"])))
        entries = [draw(st.sampled_from(["", " ", "\t"])) + str(v)
                   + draw(st.sampled_from(["", " ", "\t"])) for v in row]
        text.append(",".join(entries) + draw(st.sampled_from(["", " # trailing"])))
    return "\n".join(text) + "\n"


class TestRoundTrips:
    def test_pa_text_round_trip(self):
        array = PermutationArray(4, [Permutation(range(4)), Permutation((1, 0, 3, 2))])
        text = dump_pa(array, 4)
        header, back = loads(text)
        assert (header.kind, header.n, header.d, header.w) == ("pa", 4, 4, None)
        assert header.count == 2
        assert back == array

    def test_pa_with_weight_round_trip(self):
        array = block_cycle_cwpa(6, 2)
        header, back = loads(dump_pa(array, 4, w=2))
        assert header.w == 2
        assert back == array

    def test_cw_round_trip(self):
        code = BinaryCwCode(6, 3, ((0, 1, 2), (3, 4, 5)), 6)
        header, back = loads(dump_cw(code))
        assert (header.kind, header.n, header.d, header.w) == ("cw", 6, 6, 3)
        assert back == code

    def test_file_round_trip(self, tmp_path):
        array = block_cycle_cwpa(8, 2)
        path = tmp_path / "array.pa"
        write_pa(array, 4, path, w=2)
        header, back = load(path)
        assert back == array
        assert header.count == 4

    def test_cw_file_round_trip(self, tmp_path):
        code = BinaryCwCode(5, 2, ((0, 1), (2, 3)), 4)
        path = tmp_path / "code.pa"
        write_cw(code, path)
        _, back = load(path)
        assert back == code

    @pytest.mark.parametrize("payload", [
        BinaryCwCode(5, 0, (), 2), BinaryCwCode(5, 0, ((),), 2), BinaryCwCode(0, 0, ((),), 1),
        PermutationArray(0, []), PermutationArray(0, [()])])
    def test_width_0_round_trip(self, payload):
        # the empty member is a blank body line; the C reader warns on such a
        # body, so the general reader reads it
        text = dump_cw(payload) if isinstance(payload, BinaryCwCode) else dump_pa(payload, 1)
        assert text.endswith("count=1\n\n" if len(payload) else "count=0\n")
        assert _canonical_body(text) is None
        assert loads(text)[1] == payload
        assert loads(text.replace("\n", "\r\n"))[1] == payload
        assert loads(text.replace("\n", "\n# note\n", 1))[1] == payload

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# produced by hand\n"
            "\n"
            "pa n=3 d=3 w=- count=2\n"
            "# the identity first\n"
            "0,1,2\n"
            "1,2,0\n"
            "\n"
        )
        _, array = loads(text)
        assert len(array) == 2


class TestWriters:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=30),
                            st.sampled_from([None, 0, min(3, n)]))))
    def test_pa_text_matches_the_per_member_writer(self, n_members_w):
        # a weight above n is a header the writers refuse
        n, members, w = n_members_w
        array = PermutationArray(n, members)
        assert dump_pa(array, 2, w) == reference_dump_pa(array, 2, w)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 8).flatmap(lambda n: st.integers(0, n).flatmap(
        lambda w: st.tuples(st.just(n), st.just(w),
                            st.lists(st.sampled_from(list(combinations(range(n), w))),
                                     max_size=20, unique=True)))))
    def test_cw_text_matches_the_per_word_writer(self, n_w_words):
        n, w, words = n_w_words
        code = BinaryCwCode(n, w, tuple(words), 2)
        assert dump_cw(code) == reference_dump_cw(code)

    @pytest.mark.parametrize("array", [
        PermutationArray(3, []), PermutationArray(1, [(0,)]), PermutationArray(0, [()])])
    def test_edge_arrays(self, array):
        assert dump_pa(array, 2) == reference_dump_pa(array, 2)

    def test_edge_codes(self):
        for code in (BinaryCwCode(5, 2, (), 4), BinaryCwCode(1, 1, ((0,),), 2)):
            assert dump_cw(code) == reference_dump_cw(code)

    @settings(max_examples=300)
    @given(st.sampled_from(["pa", "cw"]), st.integers(-2, 5), st.integers(-2, 5),
           st.none() | st.integers(-2, 7), st.integers(-2, 5))
    def test_writers_refuse_the_headers_the_reader_refuses(self, kind, n, d, w, count):
        # an accepted header round-trips; a rejected one raises in the
        # writers with the reader's message
        line = f"{kind} n={n} d={d} w={'-' if w is None else w} count={count}"
        try:
            parsed = _parse_header(line, 1)
        except PaFormatError as exc:
            with pytest.raises(ValueError) as excinfo:
                str(pafile.PaHeader(kind, n, d, w, count))
            assert str(exc) == f"line 1: {excinfo.value}"
        else:
            assert str(pafile.PaHeader(kind, n, d, w, count)) == line
            assert parsed == pafile.PaHeader(kind, n, d, w, count)

    @pytest.mark.parametrize("write, message", [
        (lambda path: write_pa(perfect_pa("cyclic", 3), 0, path), "distance d=0 below 1"),
        (lambda path: write_pa(perfect_pa("cyclic", 3), -3, path), "distance d=-3 below 1"),
        (lambda path: write_pa(perfect_pa("cyclic", 3), 3, path, w=7),
         "weight w=7 outside 0..3"),
        (lambda path: write_pa(PermutationArray(-1, []), 2, path), "negative n=-1"),
        (lambda path: write_cw(BinaryCwCode(5, 3, ((0, 1, 2),), 0), path),
         "distance d=0 below 1"),
    ])
    def test_writers_refuse_a_header_out_of_range(self, write, message, tmp_path):
        path = tmp_path / "out.pa"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write(path)
        assert not path.exists()

    def test_dump_pa_does_not_build_members(self):
        array = block_cycle_cwpa(8, 2)
        dump_pa(array, 4, w=2)
        assert "members" not in vars(array)


class TestReaders:
    def test_a_dumped_text_takes_the_c_reader(self, monkeypatch):
        array = block_cycle_cwpa(8, 2)
        code = BinaryCwCode(6, 3, ((0, 1, 2), (3, 4, 5)), 6)
        pa_text, cw_text = dump_pa(array, 4, w=2), dump_cw(code)

        def general_reader(text):
            raise AssertionError("the general reader ran")

        monkeypatch.setattr(pafile, "_content_lines", general_reader)
        assert loads(pa_text) == (pafile.PaHeader("pa", 8, 4, 2, len(array)), array)
        assert loads(cw_text)[1] == code

    @pytest.mark.parametrize("control", list("\r\x0b\x0c\x1c\x1d\x1e\x1f"))
    def test_a_guarded_character_takes_the_general_reader(self, control, monkeypatch):
        # between two fields: both readers break the line at \r, \x0b, \x0c
        # and \x1c-\x1e, leaving rows the C reader turns away, and the guard
        # keeps \x1f, which numpy strips and int() rejects beside a digit,
        # from the C reader
        text = f"pa n=2 d=2 w=- count=2\n0{control},1\n1,0\n"
        assert _canonical_body(text) is None
        with pytest.raises(PaFormatError) as expected:
            reference_loads(text)
        calls = []
        monkeypatch.setattr(pafile, "_content_lines",
                            lambda text: calls.append(text) or _content_lines(text))
        with pytest.raises(PaFormatError) as excinfo:
            loads(text)
        assert calls == [text]
        assert str(excinfo.value) == str(expected.value)


    def test_the_general_reader_loads_what_the_c_reader_loads(self):
        array = block_cycle_cwpa(8, 2)
        code = BinaryCwCode(6, 3, ((0, 1, 2), (3, 4, 5)), 6)
        for text in (dump_pa(array, 4, w=2), dump_cw(code)):
            header, body = text.split("\n", 1)
            spelled = header + "\n" + re.sub(
                r"\d+", lambda m: "+" + m.group().translate(ARABIC_INDIC), body)
            assert _canonical_body(spelled) is None
            for other in (text.replace("\n", "\r\n"), spelled):
                assert loads(other) == reference_loads(other) == loads(text)

    def test_a_crlf_text_takes_the_c_reader(self, monkeypatch):
        text = dump_pa(perfect_pa("pgl2", 11), 10)
        crlf = text.replace("\n", "\r\n")
        assert _canonical_body(crlf)[1].tolist() == _canonical_body(text)[1].tolist()
        expected = loads(text)
        monkeypatch.setattr(pafile, "_content_lines", None)  # the general reader fails
        assert loads(crlf) == expected

    @pytest.mark.parametrize("entry", [str(2**63), str(-2**63 - 1), str(10**30)])
    def test_an_entry_past_int64_takes_the_general_reader(self, entry):
        text = f"pa n=3 d=2 w=- count=2\n0,1,2\n{entry},0,1\n"
        assert _canonical_body(text) is None
        with pytest.raises(PaFormatError) as expected:
            reference_loads(text)
        with pytest.raises(PaFormatError) as excinfo:
            loads(text)
        assert str(excinfo.value) == str(expected.value)
        assert str(excinfo.value) == f"not a bijection on 0..2: ({entry}, 0, 1)"


class TestAgainstReference:
    @settings(deadline=None, max_examples=400)
    @given(format_texts())
    def test_matches_the_per_row_loader(self, text):
        try:
            expected = reference_loads(text)
        except PaFormatError as exc:
            with pytest.raises(PaFormatError) as excinfo:
                loads(text)
            assert str(excinfo.value) == str(exc)
        else:
            assert loads(text) == expected

    @pytest.mark.parametrize(
        "entry",
        ["0", "3", " 3", "3 ", "\t3", "3\t", " \t3\t ", "+3", "-3", "-0", "+0", "00", "007",
         "1_0", "_1", "1_", "x", "", " ", "\t", "1.0", "1.5", "1e3", "1E3", "0x1", "0b1", "0o1",
         "+", "-", "+-1", "--1", "++1", "+ 1", "- 1", "1 0", "1\t0", "inf", "nan", "1\x00",
         "\x001", "1\x7f", "'1'", '"1"', "1j", str(2**63 - 1), str(-2**63), str(2**63),
         str(-2**63 - 1), str(10**30)],
    )
    def test_loadtxt_reads_an_entry_by_int_rules(self, entry):
        # the C reader parses a body with these loadtxt arguments; an entry it
        # accepts must be one int() accepts, with the same value
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(io.StringIO(entry + "\n"), dtype=np.int64, delimiter=",",
                                    comments="#", ndmin=2)
        except (ValueError, OverflowError, Warning):
            return
        assert values.tolist() == [[int(entry)]]

    def test_the_c_reader_accepts_no_character_int_rejects(self):
        # every ASCII character before, inside and after an entry: the guard
        # and loadtxt together accept only what the per-line reader reads, as
        # it reads it (a line break inside an entry splits it for both)
        for c in map(chr, range(128)):
            if c in ",#\n":
                continue
            for entry in (c + "1", "1" + c, "1" + c + "0"):
                text = f"pa n=1 d=2 w=- count=1\n{entry}\n"
                canonical = _canonical_body(text)
                if canonical is not None:
                    rows = [[int(v) for v in line.split(",")]
                            for _, line in _content_lines(text)[1:]]
                    assert canonical[1].tolist() == rows, repr(entry)
                assert outcome(loads, text) == outcome(reference_loads, text), repr(entry)

    @pytest.mark.parametrize(
        "body, message",
        [
            # the first non-integer entry wins over an earlier wrong length
            ("0,1\n0,1,2\n0,x,2\n", "line 4: non-integer entry in '0,x,2'"),
            # a bijection error on a line comes before its wrong length
            ("0,1,2\n1,1\n2,1,0\n", "not a bijection on 0..1: (1, 1)"),
            ("0,1,2\n1,0\n2,1,0\n", "member (1, 0) does not have length 3"),
            # an earlier non-bijection wins over a later wrong length
            ("0,2,2\n1,0\n2,1,0\n", "not a bijection on 0..2: (0, 2, 2)"),
            # the right number of entries in total, split across lines wrongly
            ("0,1,0\n1\n2,1,0\n", "not a bijection on 0..2: (0, 1, 0)"),
            ("0,1,2,3\n0,2\n2,1,0\n", "member (0, 1, 2, 3) does not have length 3"),
        ],
    )
    def test_error_precedence(self, body, message):
        text = "pa n=3 d=2 w=- count=3\n" + body
        for loader in (loads, reference_loads):
            with pytest.raises(PaFormatError) as excinfo:
                loader(text)
            assert str(excinfo.value) == message


class TestRejections:
    @pytest.mark.parametrize("text, message", [
        ("cw n=5 d=2 w=0 count=2\n\n", "header promises 2 members, found 1"),
        ("cw n=5 d=2 w=0 count=2\n\n\n", "duplicate word ()"),
        ("pa n=0 d=2 w=- count=2\n\n\n", "duplicate members in body"),
        ("cw n=5 d=2 w=0 count=1\n", "header promises 1 members, found 0"),
        ("cw n=5 d=2 w=0 count=1\n1\n", "word (1,) does not have weight 0"),
    ])
    def test_width_0_body_rejections(self, text, message):
        for loader in (loads, reference_loads):
            with pytest.raises(PaFormatError, match=f"^{re.escape(message)}$"):
                loader(text)

    def test_empty_input(self):
        with pytest.raises(PaFormatError):
            loads("")
        with pytest.raises(PaFormatError):
            loads("# only a comment\n")

    def test_unknown_kind(self):
        with pytest.raises(PaFormatError):
            loads("qa n=3 d=2 w=- count=1\n0,1,2\n")

    def test_missing_header_field(self):
        with pytest.raises(PaFormatError):
            loads("pa n=3 d=2 count=1\n0,1,2\n")

    @pytest.mark.parametrize("field", ["n=2", "d=3", "w=-", "count=1"])
    def test_repeated_header_field(self, field):
        key = field.partition("=")[0]
        text = f"pa n=3 d=2 w=- count=1 {field}\n0,1,2\n"
        for loader in (loads, reference_loads):
            for t in (text, text.replace("\n", "\r\n")):
                with pytest.raises(PaFormatError) as excinfo:
                    loader(t)
                assert str(excinfo.value) == f"line 1: repeated header field {key!r}"

    @pytest.mark.parametrize("header, message", [
        ("pa n=-1 d=0 w=- count=0", "negative n=-1"),
        ("pa n=3 d=2 w=- count=-1", "negative count=-1"),
        ("cw n=3 d=2 w=-1 count=0", "weight w=-1 outside 0..3"),
        ("cw n=3 d=2 w=4 count=0", "weight w=4 outside 0..3"),
        ("pa n=3 d=2 w=-1 count=0", "weight w=-1 outside 0..3"),
        ("pa n=3 d=2 w=4 count=0", "weight w=4 outside 0..3"),
        ("pa n=3 d=-5 w=- count=2", "distance d=-5 below 1"),
        ("pa n=3 d=0 w=- count=2", "distance d=0 below 1"),
        ("cw n=4 d=-2 w=2 count=0", "distance d=-2 below 1"),
        # n and count are checked first
        ("pa n=-1 d=-1 w=- count=0", "negative n=-1"),
        ("pa n=3 d=0 w=- count=-1", "negative count=-1"),
        # a field the format does not define, and one without '='
        ("pa n=3 d=2 w=- count=0 x=1", "bad header field 'x=1'"),
        ("pa n=3 d=2 w=- count=0 7", "bad header field '7'"),
    ])
    def test_header_value_out_of_range(self, header, message):
        # on line 1 the C reader parses the header, after a comment the general one
        for lineno, text in ((1, f"{header}\n"), (2, f"# lead\n{header}\n")):
            for loader in (loads, reference_loads):
                with pytest.raises(PaFormatError) as excinfo:
                    loader(text)
                assert str(excinfo.value) == f"line {lineno}: {message}"

    @pytest.mark.parametrize("count, body, message", [
        (1, "0,1,2\n", "member (0, 1, 2) does not have weight 2"),
        # the first member in sorted order, not in file order
        (4, "1,0,2\n1,2,0\n2,1,0\n0,2,1\n", "member (1, 2, 0) does not have weight 2"),
        # every other check comes first
        (2, "0,1,2\n0,1,2\n", "duplicate members in body"),
        (2, "0,1,2\n", "header promises 2 members, found 1"),
        (2, "0,1,2\n1,1,2\n", "not a bijection on 0..2: (1, 1, 2)"),
        (2, "0,1,2\n0,1\n", "member (0, 1) does not have length 3"),
    ])
    def test_pa_member_of_the_wrong_weight(self, count, body, message):
        text = f"pa n=3 d=2 w=2 count={count}\n{body}"
        for t in (text, text.replace("\n", "\r\n"), text.replace("0", "\u0660")):
            for loader in (loads, reference_loads):
                with pytest.raises(PaFormatError) as excinfo:
                    loader(t)
                assert str(excinfo.value) == message

    def test_pa_weight_that_every_member_has(self):
        array = block_cycle_cwpa(9, 3)
        for w in (None, 3):
            assert loads(dump_pa(array, 6, w)) == (pafile.PaHeader("pa", 9, 6, w, 3), array)

    def test_non_numeric_field(self):
        with pytest.raises(PaFormatError):
            loads("pa n=x d=2 w=- count=1\n0,1,2\n")

    def test_count_mismatch(self):
        with pytest.raises(PaFormatError, match="promises 3 members, found 2"):
            loads("pa n=3 d=2 w=- count=3\n0,1,2\n1,2,0\n")

    def test_non_bijective_body_line(self):
        with pytest.raises(PaFormatError):
            loads("pa n=3 d=2 w=- count=1\n0,0,2\n")

    def test_wrong_length_body_line(self):
        with pytest.raises(PaFormatError):
            loads("pa n=3 d=2 w=- count=1\n0,1,2,3\n")

    def test_duplicate_members(self):
        with pytest.raises(PaFormatError):
            loads("pa n=3 d=2 w=- count=2\n0,1,2\n0,1,2\n")

    def test_cw_weight_mismatch(self):
        with pytest.raises(PaFormatError):
            loads("cw n=5 d=4 w=2 count=1\n0,1,2\n")

    def test_cw_requires_numeric_weight(self):
        with pytest.raises(PaFormatError):
            loads("cw n=5 d=4 w=- count=1\n0,1\n")

    def test_garbage_body(self):
        with pytest.raises(PaFormatError):
            loads("pa n=3 d=2 w=- count=1\na,b,c\n")

"""Command-line interface: outputs, exit codes, file side effects, and
agreement between the human and JSON renderings."""

import functools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from itertools import combinations, permutations
from pathlib import Path

import pytest

from test_constructions import reference_greedy_partial_steiner, reference_projective
from test_pafile import reference_dump_pa
from test_perm import reference_coset

from permarray import cli, constructions, pafile, perm, search
from permarray.bounds import best_upper_bound
from permarray.cli import EXIT_LIMITS, EXIT_OK, EXIT_PIPE, EXIT_USAGE, EXIT_VERIFY, main
from permarray.constructions import (
    BinaryCwCode,
    lift_binary_cw_code,
    perfect_families,
    perfect_pa,
)
from permarray.pafile import dump_pa, load


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_even_distance_report(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "20", "8")
        assert code == EXIT_OK
        assert "DV  482718652416000" in out
        assert "SP  984581953936317" in out
        assert "ME  217378664061529" in out
        assert "best: 217378664061529" in out

    def test_odd_distance_report(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "20", "9")
        assert code == EXIT_OK
        assert "MO  37905005935872" in out
        assert "best: 37905005935872" in out
        assert "MO-corollary" in out

    def test_tight_flag(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "5", "5")
        assert "best: 5" in out
        assert "tight" in out
        _, out, _ = run_cli(capsys, "bound", "6", "5")
        assert "tight" not in out
        for n in ("1", "2", "3", "5", "8"):  # S_n meets P(n, 1) = n!
            _, out, _ = run_cli(capsys, "bound", n, "1")
            assert out.splitlines()[-1].endswith("  (tight: a known family meets it)")
            _, out, _ = run_cli(capsys, "bound", n, "1", "--json")
            assert json.loads(out)["tight"] is True

    def test_values_past_the_str_digit_limit(self, capsys):
        # 1800! has 5,080 digits, past the 4,300 that str() writes
        digits = str(Decimal(best_upper_bound(1800, 2).value))
        assert len(digits) > 4300
        code, out, _ = run_cli(capsys, "bound", "1800", "2")
        assert code == EXIT_OK
        assert f"  DV  {digits}  [DV]\n" in out
        assert f"best: {digits}  [DV]" in out
        code, out, _ = run_cli(capsys, "bound", "1800", "2", "--json")
        assert code == EXIT_OK
        report = json.loads(out, parse_int=Decimal)
        assert report["best"]["value"] == Decimal(digits)
        assert [row["value"] for row in report["bounds"]] == [Decimal(digits)] * 2
        assert report["n"] == 1800 and report["tight"] is True

    def test_not_applicable_row_still_prints(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "5", "5")
        assert "not applicable" in out  # MO needs n >= 3k + 1

    def test_json_matches_human_numbers(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "20", "8", "--json")
        report = json.loads(out)
        assert report["best"]["value"] == 217378664061529
        assert report["best"]["rule"] == "ME"
        by_rule = {row["rule"]: row["value"] for row in report["bounds"]}
        assert by_rule == {
            "DV": 482718652416000,
            "SP": 984581953936317,
            "ME": 217378664061529,
        }
        assert report["tight"] is False

    def test_json_best_rule_is_the_winning_rule(self, capsys):
        # distance 1 is rewritten as distance 2; the rewrite is not a rule
        _, out, _ = run_cli(capsys, "bound", "5", "1", "--json")
        best = json.loads(out)["best"]
        assert best["rule"] == "DV"
        assert best["derivation"] == ["d1-as-d2", "DV"]

    def test_cw_table_changes_odd_bound_trace(self, capsys, tmp_path):
        path = tmp_path / "cw.txt"
        path.write_text("20 8 5 16 exact\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "bound", "20", "9", "--cw-table", str(path), "--json")
        report = json.loads(out)
        assert report["best"]["derivation"] == ["MO-exact-A"]

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "5", "9")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("n, d, message", [
        ("0", "0", "need n >= 1: 0"),
        ("-2", "1", "need n >= 1: -2"),
        ("5", "9", "distance 9 outside valid range 1..5"),
    ])
    def test_range_error_names_n_before_the_distance(self, capsys, n, d, message):
        for json_flag in ([], ["--json"]):
            code, out, err = run_cli(capsys, "bound", n, d, *json_flag)
            assert (code, out, err) == (EXIT_USAGE, "", f"permarray: error: {message}\n")


class TestTable:
    def test_grid_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "4:6", "2:6")
        assert code == EXIT_OK
        assert "24(D)" in out  # (4, 2)
        assert "720(D)" in out  # (6, 2)
        assert "-" in out  # d > n cells are blank
        code, out, _ = run_cli(capsys, "table", "1:3", "1:3")
        assert code == EXIT_OK
        assert out.splitlines()[2].split() == ["1", "1(D)", "-", "-"]
        code, out, _ = run_cli(capsys, "bound", "1", "1")
        assert code == EXIT_OK
        assert "best: 1  [DV]" in out

    def test_scientific_rendering(self, capsys):
        _, plain, _ = run_cli(capsys, "table", "20", "8")
        _, sci, _ = run_cli(capsys, "table", "20", "8", "--scientific")
        assert "217378664061529(E)" in plain
        assert "2.173e14(E)" in sci

    def test_json_agrees_with_human(self, capsys):
        _, out, _ = run_cli(capsys, "table", "4:6", "2:6", "--json")
        report = json.loads(out)
        cells = {(c["n"], c["d"]): (c["value"], c["rule"]) for c in report["cells"]}
        assert cells[(4, 2)] == (24, "D")
        assert cells[(6, 4)] == (120, "D")
        assert (6, 5) in cells
        assert (4, 5) not in cells

    def test_scientific_does_not_change_json(self, capsys):
        _, out, _ = run_cli(capsys, "table", "20", "8", "--json", "--scientific")
        report = json.loads(out)
        assert report["cells"][0]["value"] == 217378664061529

    def test_values_past_the_str_digit_limit(self, capsys):
        # 1600! has 4,434 digits, past the 4,300 that str() writes
        digits = str(Decimal(best_upper_bound(1600, 2).value))
        assert len(digits) > 4300
        code, out, _ = run_cli(capsys, "table", "1600", "2")
        assert code == EXIT_OK
        assert out.splitlines()[-1].split() == ["1600", f"{digits}(D)"]
        code, out, _ = run_cli(capsys, "table", "1600", "2", "--scientific")
        assert code == EXIT_OK
        assert out.splitlines()[-1].split() == ["1600", f"{digits[0]}.{digits[1:4]}e4433(D)"]
        code, out, _ = run_cli(capsys, "table", "1600", "2", "--json")
        assert code == EXIT_OK
        report = json.loads(out, parse_int=Decimal)
        assert report["cells"] == [{"n": 1600, "d": 2, "value": Decimal(digits), "rule": "D"}]
        assert report["rules"] == cli._RULE_LETTERS

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "6:4", "2")
        assert code == EXIT_USAGE
        assert "range" in err

    @pytest.mark.parametrize("n_range, d_range, message", [
        ("4:x", "2", "range must be N or LO:HI, got '4:x'"),
        ("4", "", "range must be N or LO:HI, got ''"),
        ("0:4", "2", "table ranges must start at 1 or above"),
        ("4", "-1:2", "table ranges must start at 1 or above"),
    ])
    def test_malformed_or_low_range_is_refused(self, capsys, n_range, d_range, message):
        code, out, err = run_cli(capsys, "table", "--", n_range, d_range)
        assert (code, out, err) == (EXIT_USAGE, "", f"permarray: error: {message}\n")

    def test_scientific_prints_a_cell_below_ten_million_in_full(self, capsys):
        # P(10,2) <= 10! = 3,628,800 is below 10^7, P(11,2) <= 11! is not
        _, out, _ = run_cli(capsys, "table", "10:11", "2", "--scientific")
        assert out.splitlines()[2:] == [" 10  3628800(D)", " 11  3.991e7(D)"]


class TestConstruct:
    def test_writes_file_that_verifies(self, capsys, tmp_path):
        out_path = tmp_path / "agl5.pa"
        code, out, _ = run_cli(capsys, "construct", "agl", "5", "--out", str(out_path))
        assert code == EXIT_OK
        assert "20 permutations of 5 points, distance 4" in out
        header, array = load(out_path)
        assert (header.n, header.d, header.count) == (5, 4, 20)
        assert array.min_distance() == 4

        code, out, _ = run_cli(capsys, "verify", str(out_path))
        assert code == EXIT_OK
        assert out.startswith("OK")

    @pytest.mark.parametrize("rows", [1, 7])
    def test_body_written_in_pieces(self, capsys, tmp_path, monkeypatch, rows):
        # the file and stdout hold the one-call text, whatever the piece size
        path = tmp_path / "cyclic-12.pa"
        monkeypatch.setattr(pafile, "_WRITE_ENTRIES", rows * 12)
        run_cli(capsys, "construct", "cyclic", "12", "--out", str(path))
        _, out, _ = run_cli(capsys, "construct", "cyclic", "12")
        text = reference_dump_pa(perfect_pa("cyclic", 12), 12)
        assert path.read_text(encoding="utf-8") == text
        assert out.split("\n", 1)[1] == text

    def test_stdout_body_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "cyclic", "4")
        assert code == EXIT_OK
        assert "pa n=4 d=4 w=- count=4" in out
        assert "1,2,3,0" in out

    def test_block_cycle_params(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "block-cycle", "8", "2", "--json")
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["size"] == 4
        assert report["d"] == 4
        assert report["w"] == 2
        assert len(report["members"]) == 4

    def test_steiner_lift(self, capsys, tmp_path):
        out_path = tmp_path / "lift.pa"
        code, _, _ = run_cli(
            capsys, "construct", "steiner-lift", "7", "2", "--out", str(out_path)
        )
        assert code == EXIT_OK
        header, array = load(out_path)
        assert header.count == 7
        assert array.min_distance() >= 5

    def test_files_match_the_reference_builders(self, capsys, tmp_path):
        code = BinaryCwCode(13, 3, reference_greedy_partial_steiner(13, 3), 4)
        expected = {
            ("steiner-lift", "13", "2"): dump_pa(lift_binary_cw_code(code, 2), 5, 3),
            ("pgl2", "7"): dump_pa(reference_projective(7), 6),
        }
        for argv, text in expected.items():
            out_path = tmp_path / f"{argv[0]}.pa"
            status, _, _ = run_cli(capsys, "construct", *argv, "--out", str(out_path))
            assert status == EXIT_OK
            assert out_path.read_text(encoding="utf-8") == text

    def test_large_steiner_lift(self, capsys, tmp_path):
        out_path = tmp_path / "lift.pa"
        code, out, _ = run_cli(
            capsys, "construct", "steiner-lift", "100", "2", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert "1317 permutations of 100 points, distance 5" in out
        header, array = load(out_path)
        assert (header.count, header.w) == (1317, 3)
        assert array.min_distance() >= 5

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "construct", "unknown", "5")
        assert code == EXIT_USAGE
        assert "unknown family" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "construct", "block-cycle", "8")
        assert code == EXIT_USAGE
        assert "takes parameters" in err

    def test_non_prime_parameter(self, capsys):
        code, _, err = run_cli(capsys, "construct", "agl", "6")
        assert code == EXIT_USAGE
        assert "error" in err


class TestSearch:
    def test_exact_with_witness_file(self, capsys, tmp_path):
        out_path = tmp_path / "p43.pa"
        code, out, _ = run_cli(capsys, "search", "p", "4", "3", "--out", str(out_path))
        assert code == EXIT_OK
        assert "P(4,3) = 12" in out
        assert "exact" in out
        text = out_path.read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if line]
        assert lines[0] == "pa n=4 d=3 w=- count=12"
        assert len(lines) == 13
        code, _, _ = run_cli(capsys, "verify", str(out_path))
        assert code == EXIT_OK

    def test_limits_exceeded_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "p", "6", "5", "--limit-nodes", "1000"
        )
        assert code == EXIT_LIMITS
        assert ">=" in out
        assert "incomplete" in out

    @pytest.mark.parametrize("limit", [("--limit-seconds", "nan"), ("--limit-seconds", "-1"),
                                       ("--limit-nodes", "-5")])
    def test_negative_or_nan_limit_is_a_usage_error(self, capsys, limit):
        code, out, err = run_cli(capsys, "search", "p", "6", "5", *limit)
        assert code == EXIT_USAGE
        assert out == ""
        assert "limit must be >= 0" in err

    def test_zero_and_infinite_limits_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "search", "p", "5", "4", "--limit-seconds", "0")
        assert code == EXIT_LIMITS
        assert "lower-bound-only" in out
        # P(5,3)'s greedy witness meets the bound 5!/2! = 60 with no node
        code, out, _ = run_cli(capsys, "search", "p", "5", "3", "--limit-seconds", "0")
        assert code == EXIT_OK
        assert out == "P(5,3) = 60  [exact, 0 nodes]\n"
        code, out, _ = run_cli(capsys, "search", "p", "5", "3", "--limit-seconds", "inf")
        assert code == EXIT_OK
        assert "P(5,3) = 60" in out

    @pytest.mark.parametrize("flags, limits", [
        ((), search.SearchLimits()),
        (("--limit-nodes", "7"), search.SearchLimits(max_nodes=7)),
        (("--limit-seconds", "2"), search.SearchLimits(max_seconds=2.0)),
    ])
    def test_a_limit_not_given_keeps_its_default(self, capsys, monkeypatch, flags, limits):
        handed = []
        oracle = search.exact_p
        monkeypatch.setattr(search, "exact_p", lambda *args: handed.append(args) or oracle(*args))
        run_cli(capsys, "search", "p", "5", "4", *flags)
        assert handed == [(5, 4, limits)]

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "search", "pcw", "6", "4", "2", "--json")
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["target"] == "P(6,4,2)"
        assert report["status"] == "exact"
        assert report["value"] == 3
        # the dive from the transpositions' one orbit meets the bound 6/2,
        # so the root closes without branching
        assert (report["nodes"], report["pruned"]) == (1, [])
        assert set(report["seconds"]) == {"listing", "conflict_masks", "search"}
        assert all(seconds >= 0 for seconds in report["seconds"].values())

    def test_json_report_of_a_gated_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "p", "6", "4", "--limit-nodes", "10", "--json")
        report = json.loads(out)
        assert code == EXIT_LIMITS
        assert (report["status"], report["nodes"]) == ("lower-bound-only", 0)
        assert list(report["seconds"]) == ["greedy"]
        # every permutation of 6 points joins the greedy witness, which meets
        # the bound 6! and so is exact
        code, out, _ = run_cli(capsys, "search", "p", "6", "2", "--limit-nodes", "10", "--json")
        report = json.loads(out)
        assert code == EXIT_OK
        assert (report["status"], report["value"], report["nodes"]) == ("exact", 720, 0)
        assert list(report["seconds"]) == ["greedy"]

    def test_binary_code_witness(self, capsys, tmp_path):
        out_path = tmp_path / "a643.pa"
        code, out, _ = run_cli(capsys, "search", "acw", "6", "4", "3", "--out", str(out_path))
        assert code == EXIT_OK
        assert "A(6,4,3) = 4" in out
        header, payload = load(out_path)
        assert header.kind == "cw"
        assert payload.violations(4) == []

    def test_binary_code_search_certifies_a_12_6_4(self, capsys):
        # every word lies in one orbit, so one dive, and it meets Johnson's
        # bound 12/4 * 11/3 = 9 at the root
        code, out, _ = run_cli(capsys, "search", "acw", "12", "6", "4")
        assert code == EXIT_OK
        assert "A(12,6,4) = 9  [exact, 1 nodes]" in out

    def test_weight_argument_policing(self, capsys):
        code, _, err = run_cli(capsys, "search", "p", "4", "3", "2")
        assert code == EXIT_USAGE
        assert "takes no weight" in err
        code, _, err = run_cli(capsys, "search", "pcw", "6", "4")
        assert code == EXIT_USAGE
        assert "needs a weight" in err


class TestVerify:
    def test_failure_lists_pairs_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "close.pa"
        path.write_text(
            "pa n=4 d=3 w=- count=2\n0,1,2,3\n1,0,2,3\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFY
        assert "FAIL" in out
        assert "distance 2" in out

    def test_explicit_distance_overrides_header(self, capsys, tmp_path):
        path = tmp_path / "close.pa"
        path.write_text(
            "pa n=4 d=3 w=- count=2\n0,1,2,3\n1,0,2,3\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "verify", str(path), "2")
        assert code == EXIT_OK
        assert out.startswith("OK")

    def test_json_failure_report(self, capsys, tmp_path):
        path = tmp_path / "close.pa"
        path.write_text(
            "pa n=4 d=3 w=- count=2\n0,1,2,3\n1,0,2,3\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "verify", str(path), "--json")
        assert code == EXIT_VERIFY
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["distance"] == 2

    def test_many_pairs_across_blocks_in_pair_order(self, capsys, tmp_path, monkeypatch):
        # blocks of a few rows, so the 600 pairs at distance 2 in S_5 (one
        # per transposition away) are found in many blocks, and written
        # seven lines at a time, the last write short
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 1000)
        monkeypatch.setattr(cli, "_LINES_PER_WRITE", 7)
        path = tmp_path / "s5.pa"
        run_cli(capsys, "construct", "symmetric", "5", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path), "3")
        expected = [f"  {','.join(map(str, a))} <-> {','.join(map(str, b))} distance 2"
                    for a, b in combinations(permutations(range(5)), 2)
                    if sum(x != y for x, y in zip(a, b)) < 3]
        assert code == EXIT_VERIFY
        assert len(expected) == 600
        assert out == "\n".join(["FAIL: 600 pair(s) below distance 3:"] + expected) + "\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent/file.pa")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.pa"
        path.write_text("pa n=3 d=2 w=- count=2\n0,1,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2\n0,0,2\n", "not a bijection on 0..2: (0, 0, 2)"),
            ("0,1,2\n1,0\n", "member (1, 0) does not have length 3"),
            ("0,1,2\n0,1,x\n", "line 3: non-integer entry in '0,1,x'"),
            ("0,1,2\n0,1,2\n", "duplicate members in body"),
        ],
    )
    def test_bad_file_message(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.pa"
        path.write_text("pa n=3 d=2 w=- count=2\n" + body, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"permarray: error: {message}\n")

    @pytest.mark.parametrize("argv, header", [
        (["construct", "symmetric", "1"], "pa n=1 d=2 w=- count=1"),
        (["search", "pcw", "4", "6", "2"], "pa n=4 d=6 w=2 count=1"),
    ])
    def test_a_header_distance_above_n_loads(self, capsys, tmp_path, argv, header):
        # the package writes these headers itself
        path = tmp_path / "wide.pa"
        run_cli(capsys, *argv, "--out", str(path))
        assert path.read_text(encoding="utf-8").splitlines()[0] == header
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK and out.startswith("OK: 1 permutations")

    @pytest.mark.parametrize("d", ["-5", "0"])
    def test_a_header_distance_below_1_is_refused(self, capsys, tmp_path, d):
        # such a file used to pass, "pairwise distance >= -5" checking nothing
        path = tmp_path / "bad.pa"
        path.write_text(f"pa n=3 d={d} w=- count=2\n0,1,2\n1,0,2\n", encoding="utf-8")
        for argv in ([str(path)], [str(path), "2"]):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert (code, out, err) == (
                EXIT_USAGE, "", f"permarray: error: line 1: distance d={d} below 1\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_an_explicit_distance_below_1_is_refused(self, capsys, tmp_path, json_flag):
        # "pairwise distance >= 0" used to pass with exit 0, checking nothing
        path = tmp_path / "c5.pa"
        run_cli(capsys, "construct", "cyclic", "5", "--out", str(path))
        for d in ("0", "-3"):
            code, out, err = run_cli(capsys, "verify", *json_flag, str(path), "--", d)
            assert (code, out, err) == (
                EXIT_USAGE, "", f"permarray: error: distance d={d} below 1\n")
        # a distance above n is a claim that fails
        code, out, _ = run_cli(capsys, "verify", *json_flag, str(path), "6")
        assert code == EXIT_VERIFY and out


class TestVerifyCodes:
    """``verify`` of a ``cw`` file, which counts words, not permutations."""

    @pytest.fixture
    def code_file(self, tmp_path):
        path = tmp_path / "code.cw"
        path.write_text("cw n=6 d=4 w=3 count=3\n0,1,2\n0,1,3\n3,4,5\n", encoding="utf-8")
        return str(path)

    def test_a_passing_code(self, capsys, code_file):
        code, out, _ = run_cli(capsys, "verify", code_file, "2")
        assert (code, out) == (EXIT_OK, "OK: 3 words on 6 points, pairwise distance >= 2\n")
        code, out, _ = run_cli(capsys, "verify", code_file, "2", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"path": code_file, "n": 6, "count": 3, "d": 2, "ok": True,
                                   "proof": {"kind": "pairwise"}, "violations": []}

    def test_a_failing_code(self, capsys, code_file):
        # (0,1,2) and (0,1,3) share two points: indicator distance 2 < 4
        code, out, _ = run_cli(capsys, "verify", code_file)
        assert (code, out) == (EXIT_VERIFY, "FAIL: 1 pair(s) below distance 4:\n"
                                            "  0,1,2 <-> 0,1,3 distance 2\n")
        code, out, _ = run_cli(capsys, "verify", code_file, "--json")
        assert code == EXIT_VERIFY
        assert json.loads(out) == {
            "path": code_file, "n": 6, "count": 3, "d": 4, "ok": False,
            "proof": {"kind": "pairwise"},
            "violations": [{"a": [0, 1, 2], "b": [0, 1, 3], "distance": 2}]}
        # (0,1,2) and (3,4,5) are at 6, (0,1,3) and (3,4,5) at 4
        code, out, _ = run_cli(capsys, "verify", code_file, "6")
        assert (code, out) == (EXIT_VERIFY, "FAIL: 2 pair(s) below distance 6:\n"
                                            "  0,1,2 <-> 0,1,3 distance 2\n"
                                            "  0,1,3 <-> 3,4,5 distance 4\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_a_width_0_witness_round_trips(self, capsys, tmp_path, json_flag):
        # the one word of weight 0 is written as a blank body line, which
        # verify reads back as that word
        path = str(tmp_path / "a520.cw")
        code, _, _ = run_cli(capsys, "search", "acw", "5", "2", "0", *json_flag, "--out", path)
        assert code == EXIT_OK
        assert Path(path).read_text(encoding="utf-8") == "cw n=5 d=2 w=0 count=1\n\n"
        code, out, err = run_cli(capsys, "verify", *json_flag, path)
        assert (code, err) == (EXIT_OK, "")
        if json_flag:
            assert json.loads(out) == {"path": path, "n": 5, "count": 1, "d": 2, "ok": True,
                                       "proof": {"kind": "pairwise"}, "violations": []}
        else:
            assert out == "OK: 1 words on 5 points, pairwise distance >= 2\n"

    @pytest.mark.parametrize("weight, words", [(1, "5\n{top}\n"), (2, "5,7\n8,{top}\n")])
    def test_points_past_int64(self, capsys, tmp_path, weight, words):
        # the words name a point past np.intp, which the rows hold as
        # Python ints; the kernel reads indicators over the words' points
        n = 10 ** 23
        path = tmp_path / "big.cw"
        path.write_text(f"cw n={n} d=2 w={weight} count=2\n" + words.format(top=n - 1),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (
            EXIT_OK, f"OK: 2 words on {n} points, pairwise distance >= 2\n", "")
        # two weight-w words share no point: distance 2w, below 2w + 2
        code, out, _ = run_cli(capsys, "verify", "--json", str(path), str(2 * weight + 2))
        assert code == EXIT_VERIFY
        a, b = ([int(p) for p in line.split(",")] for line in words.format(top=n - 1).split())
        assert json.loads(out)["violations"] == [{"a": a, "b": b, "distance": 2 * weight}]


class _Writes:
    """A stdout that keeps each write apart, or only counts its characters."""

    def __init__(self, keep=True):
        self.keep, self.chunks, self.size = keep, [], 0

    def write(self, text):
        if self.keep:
            self.chunks.append(text)
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@functools.cache
def _reference_proof(members, kind):
    """``verify --json``'s proof, from the brute-force closure check."""
    coset = reference_coset(members) if kind == "permutations" else None
    if coset is None:
        return {"kind": "pairwise"}
    return {"kind": "group", "order": len(members), "generators": coset[1]}


def _reference_verify(path, n, members, distance, d, kind, as_json):
    """``verify``'s exit code and stdout by brute force: every pair of the
    members, in the order ``combinations`` gives, checked one at a time."""
    bad = [(a, b, distance(a, b)) for a, b in combinations(members, 2) if distance(a, b) < d]
    code = EXIT_VERIFY if bad else EXIT_OK
    if as_json:
        return code, json.dumps({
            "path": path, "n": n, "count": len(members), "d": d, "ok": not bad,
            "proof": _reference_proof(tuple(members), kind),
            "violations": [{"a": list(a), "b": list(b), "distance": dist}
                           for a, b, dist in bad]}) + "\n"
    if not bad:
        return code, f"OK: {len(members)} {kind} on {n} points, pairwise distance >= {d}\n"
    return code, "".join([f"FAIL: {len(bad)} pair(s) below distance {d}:\n"] + [
        f"  {','.join(map(str, a))} <-> {','.join(map(str, b))} distance {dist}\n"
        for a, b, dist in bad])


class TestVerifyStream:
    """``verify`` counts the bad pairs in one pass over the distance blocks
    and writes them in a second, ``_LINES_PER_WRITE`` pairs per write, so
    it never holds them all; a coset of a group takes its count from its
    weights and has its pairs written in one pass. Blocks and writes are
    shrunk here so that the pairs span many of each."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = random.Random(20261019)
        members = rng.sample(list(permutations(range(6))), 150)
        pa = tmp_path / "random.pa"
        pa.write_text("pa n=6 d=3 w=- count=150\n" + "".join(
            ",".join(map(str, p)) + "\n" for p in members), encoding="utf-8")
        words = [w for w in combinations(range(9), 3) if rng.random() < 0.6]
        cw = tmp_path / "random.cw"
        cw.write_text(f"cw n=9 d=4 w=3 count={len(words)}\n" + "".join(
            ",".join(map(str, w)) + "\n" for w in words), encoding="utf-8")
        # tau PGL(2,5) pi: 120 members at distance 4, 5 and 6 from each other
        tau, pi = rng.sample(range(6), 6), rng.sample(range(6), 6)
        coset = sorted(tuple(tau[p[i]] for i in pi) for p in perfect_pa("pgl2", 5))
        group = tmp_path / "coset.pa"
        group.write_text("pa n=6 d=4 w=- count=120\n" + "".join(
            ",".join(map(str, p)) + "\n" for p in coset), encoding="utf-8")

        def hamming(a, b):
            return sum(x != y for x, y in zip(a, b))

        return {"pa": (str(pa), 6, sorted(members), "permutations", hamming),
                "group": (str(group), 6, coset, "permutations", hamming),
                "cw": (str(cw), 9, words, "words",
                       lambda a, b: 2 * (3 - len(set(a) & set(b))))}

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("kind, d", [("pa", 2), ("pa", 3), ("pa", 5), ("pa", 7),
                                         ("group", 2), ("group", 4), ("group", 5),
                                         ("group", 7),
                                         ("cw", 2), ("cw", 4), ("cw", 6), ("cw", 7)])
    @pytest.mark.parametrize("block_bytes", [1, 300, 1 << 18])
    def test_output_is_the_brute_force_output(self, files, monkeypatch, kind, d, as_json,
                                              block_bytes):
        monkeypatch.setattr(perm, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(cli, "_LINES_PER_WRITE", 7)
        path, n, members, noun, distance = files[kind]
        expected = _reference_verify(path, n, members, distance, d, noun, as_json)
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["verify", path, str(d)] + ["--json"] * as_json)
        assert (code, "".join(out.chunks)) == expected
        if as_json:
            per_write = [chunk.count('{"a": ') for chunk in out.chunks]
        else:
            # the FAIL line's count is the number of pair lines written
            lines = "".join(out.chunks).splitlines()
            if code == EXIT_VERIFY:
                assert lines[0] == f"FAIL: {len(lines) - 1} pair(s) below distance {d}:"
            per_write = [chunk.count(" <-> ") for chunk in out.chunks]
        assert max(per_write) <= 7
        # the last write of pairs may be short, every other one is full
        counts = [c for c in per_write if c]
        assert all(c == 7 for c in counts[:-1])

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_the_second_pass_recomputes_only_the_blocks_with_a_pair(
            self, capsys, tmp_path, monkeypatch, as_json):
        # AGL(1,7) is at distance 6; a copy of one member with two images
        # swapped is at distance 2 from it and at least 4 from the rest, so
        # at d = 3 one block of one row holds the one bad pair
        rows = perfect_pa("agl", 7).rows.tolist()
        swapped = rows[20][1::-1] + rows[20][2:]
        path = tmp_path / "one-pair.pa"
        path.write_text("pa n=7 d=3 w=- count=43\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows + [swapped]), encoding="utf-8")
        computed = []
        kernel = perm._distance_rows
        monkeypatch.setattr(perm, "_distance_rows", lambda sets, spans, *args: kernel(
            sets, computed.append(len(spans)) or spans, *args))
        monkeypatch.setattr(perm, "_BLOCK_BYTES", 43)
        code, out, _ = run_cli(capsys, "verify", str(path), *["--json"] * as_json)
        assert code == EXIT_VERIFY
        assert (json.loads(out)["violations"][0]["distance"] if as_json
                else out.splitlines()[0]) == (2 if as_json else "FAIL: 1 pair(s) below distance 3:")
        # the count pass computes all 43 blocks, the pair pass one
        assert computed == [43, 1]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_memory_is_bounded_by_the_array(self, capsys, tmp_path, monkeypatch, as_json):
        # S_7 at d = 3 fails on 52,920 pairs; holding them all took a
        # tracemalloc peak of 8.1 MB as text and 21.2 MB as JSON, against
        # about 3 MB for each when a block of pairs is held at a time
        path = str(tmp_path / "s7.pa")
        run_cli(capsys, "construct", "symmetric", "7", "--out", path)
        out = _Writes(keep=False)
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            code = main(["verify", path, "3"] + ["--json"] * as_json)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VERIFY
        # every pair was written: 52,920 lines, or the JSON report (here less
        # its path), which names S_7 a group of order 5,040 from 3 generators
        assert out.size == (3_863_291 + len(json.dumps(path)) if as_json else 2_381_438)
        assert peak < 5e6


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE

    def test_non_integer_argument(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "x", "3"])
        assert excinfo.value.code == EXIT_USAGE


# small parameters for each family `construct` lists, each giving at least
# two members; p = 2 is left out, since AGL(1, 2) and PGL(2, 2) are S_2 and
# S_3, at distance 2 where p - 1 claims 1
SMALL_PARAMS = {
    "cyclic": ["5", "2", "7"],
    "symmetric": ["4", "2", "5"],
    "alternating": ["4", "3", "6"],
    "agl": ["5", "3", "7", "2"],
    "pgl2": ["5", "3", "7", "2"],
    "block-cycle": ["7 3", "4 2", "10 5"],
    "steiner-lift": ["9 2", "7 2", "13 3"],
}


class TestFamilies:
    def test_every_family_writes_a_file_that_verifies(self, capsys, tmp_path):
        assert set(SMALL_PARAMS) == set(cli._FAMILIES) >= set(perfect_families())
        for family, param_lists in SMALL_PARAMS.items():
            for params in param_lists:
                path = tmp_path / f"{family}.pa"
                code, _, _ = run_cli(capsys, "construct", family, *params.split(),
                                     "--out", str(path))
                assert code == EXIT_OK, (family, params)
                header, array = load(path)
                code, out, _ = run_cli(capsys, "verify", str(path), str(header.d))
                assert (code, out) == (EXIT_OK, f"OK: {len(array)} permutations on {array.n} "
                                                f"points, pairwise distance >= {header.d}\n")
                # verify checks only that distances reach the claim, which a
                # claim drifted low would pass too
                assert header.d == array.min_distance(), (family, params)
                if header.w is not None:
                    assert {sum(i != v for i, v in enumerate(p)) for p in array} == {header.w}

    @pytest.mark.parametrize("family", SMALL_PARAMS)
    def test_the_group_proof_changes_no_output_but_its_name(self, capsys, monkeypatch,
                                                             tmp_path, family):
        # with the group layer refusing every array, verify takes the
        # kernel alone: text and violations must come out byte for byte the same
        path = str(tmp_path / f"{family}.pa")
        for params in SMALL_PARAMS[family]:
            run_cli(capsys, "construct", family, *params.split(), "--out", path)
            array = load(path)[1]
            least = perm._least_distance(array.rows)
            for argv in [("verify", path, str(d), *flag) for d in (least, least + 1)
                         for flag in ((), ("--json",))]:
                code, out, _ = run_cli(capsys, *argv)
                with monkeypatch.context() as patch:
                    patch.setattr(constructions, "_group_weights", lambda rows: None)
                    expected = run_cli(capsys, *argv)
                if "--json" in argv:
                    proof = json.loads(out)["proof"]
                    if family in perfect_families():
                        assert proof["kind"] == "group" and proof["order"] == len(array)
                    out = out.replace(json.dumps(proof), json.dumps({"kind": "pairwise"}), 1)
                assert (code, out, "") == expected, argv

    def test_help_names_exactly_the_table_families(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside the family help
        with pytest.raises(SystemExit) as excinfo:
            main(["construct", "--help"])
        assert excinfo.value.code == EXIT_OK
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.lstrip().startswith("family "))
        assert line.split(None, 1)[1].split(" | ") == list(cli._FAMILIES)


class TestEntryPoint:
    """`python -m permarray.cli` in a real process: the module's `__main__`
    guard turns `main`'s value into the exit status."""

    @staticmethod
    def run_module(*argv, cwd):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "permarray.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_exit_codes(self, tmp_path):
        done = self.run_module("construct", "cyclic", "4", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.startswith("cyclic(4): 4 permutations of 4 points, distance 4\n")

        (tmp_path / "close.pa").write_text("pa n=4 d=3 w=- count=2\n0,1,2,3\n1,0,2,3\n",
                                           encoding="utf-8")
        done = self.run_module("verify", "close.pa", cwd=tmp_path)
        assert done.returncode == EXIT_VERIFY
        assert done.stdout.startswith("FAIL: 1 pair(s) below distance 3:")

        done = self.run_module("bound", "x", "3", cwd=tmp_path)  # argparse's 2, remapped
        assert done.returncode == EXIT_USAGE
        assert "invalid int value" in done.stderr

        done = self.run_module("search", "p", "6", "5", "--limit-nodes", "10", cwd=tmp_path)
        assert done.returncode == EXIT_LIMITS
        assert done.stdout.startswith("P(6,5) >= ")

    @pytest.mark.parametrize("argv", [
        ("table", "2:80", "2:80"), ("construct", "symmetric", "8"),
        ("verify", "s7.pa", "3"), ("verify", "--json", "s7.pa", "3")], ids=" ".join)
    def test_closed_stdout_ends_quietly(self, argv, tmp_path):
        # each command writes far past what a pipe holds (the table 460 KB,
        # against 64 KiB on Linux), so it is still writing when the reader
        # closes stdout after its first 100 bytes (``--json`` writes one
        # long line)
        assert main(["construct", "symmetric", "7", "--out", str(tmp_path / "s7.pa")]) == EXIT_OK
        src = Path(__file__).resolve().parent.parent / "src"
        with subprocess.Popen([sys.executable, "-m", "permarray.cli", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (EXIT_PIPE, b"")

    @pytest.mark.parametrize("argv", [
        ("symmetric", "12"), ("symmetric", "1000000000"), ("cyclic", "100000"),
        ("agl", "10007"), ("block-cycle", "200000", "2"), ("steiner-lift", "100000", "1")],
        ids=" ".join)
    def test_construct_refuses_an_array_too_large_to_build(self, argv, tmp_path):
        # under a 1 GiB address-space limit, so that a builder that
        # allocates first fails with MemoryError instead of taking the
        # machine's memory; the gate refuses before it allocates. The child
        # sets the limit itself: a preexec_fn warns in a threaded process
        limited = ("import resource, runpy, sys; "
                   "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                   "sys.argv[0] = 'permarray'; "
                   "runpy.run_module('permarray.cli', run_name='__main__')")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", limited, "construct", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr == ("permarray: error: array too large to build: more than "
                               "67,108,864 entries (members x points)\n")

    def test_one_parser_per_process_leaks_no_state(self, capsys, monkeypatch, tmp_path):
        # the parser is built once; each call through it prints and exits as
        # a fresh process does, whatever ran before it
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "far.pa").write_text("pa n=4 d=2 w=- count=2\n0,1,2,3\n1,0,2,3\n",
                                         encoding="utf-8")
        (tmp_path / "close.pa").write_text("pa n=4 d=3 w=- count=2\n0,1,2,3\n1,0,2,3\n",
                                           encoding="utf-8")
        codes = []
        for argv in (["verify", "far.pa"], ["verify", "close.pa"], ["bound", "20", "8", "--json"],
                     ["bound", "x", "3"], ["table", "4:6", "2:6"],
                     ["verify", "close.pa", "--json"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            done = self.run_module(*argv, cwd=tmp_path)
            assert (code, out, err) == (done.returncode, done.stdout, done.stderr), argv
            codes.append(code)
        assert codes == [EXIT_OK, EXIT_VERIFY, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_VERIFY]

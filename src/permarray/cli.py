"""Command-line interface.

Subcommands: ``bound`` (report every applicable upper bound for one (n, d)),
``table`` (best bounds over a grid), ``construct`` (build a named array and
write it out), ``search`` (run an exhaustive oracle and write its witness),
``verify`` (check a written array against a distance).

Exit codes: 0 success, 1 usage or parse/range errors, 2 verification failure,
3 search limits exceeded. ``--json`` switches any subcommand to a structured
report carrying the same numbers as the human output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from decimal import Decimal
from itertools import islice
from typing import NoReturn

import numpy as np

from . import pafile
from .bounds import BoundResult, CwTable, best_upper_bound, candidate_bounds
from .constructions import (
    BinaryCwCode,
    block_cycle_cwpa,
    greedy_partial_steiner,
    indicator_rows,
    known_perfect,
    lift_binary_cw_code,
    perfect_pa,
)
from .perm import count_pairs_below
from .search import (
    DEFAULT_LIMITS,
    STATUS_EXACT,
    SearchLimits,
    exact_a_cw,
    exact_p,
    exact_p_cw,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_LIMITS = 3

# verify writes its pair lines this many at a time, so the text held at once
# stays bounded however many pairs fail
_LINES_PER_WRITE = 4096

_RULE_LETTERS = {"DV": "D", "SP": "S", "ME": "E", "MO-corollary": "O", "MO-exact-A": "O"}


# construct family -> (parameter names, builder returning the array, the
# distance it claims, and its weight or None); the first five meet n!/(d-1)!.
# AGL(1,2) is S_2 and PGL(2,2) is S_3, so at p = 2 both are at distance 2
_FAMILIES = {
    "cyclic": ("n", lambda n: (perfect_pa("cyclic", n), n, None)),
    "symmetric": ("n", lambda n: (perfect_pa("symmetric", n), 2, None)),
    "alternating": ("n", lambda n: (perfect_pa("alternating", n), 3, None)),
    "agl": ("p", lambda p: (perfect_pa("agl", p), max(p - 1, 2), None)),
    "pgl2": ("p", lambda p: (perfect_pa("pgl2", p), max(p - 1, 2), None)),
    "block-cycle": ("n k", lambda n, k: (block_cycle_cwpa(n, k), 2 * k, k)),
    "steiner-lift": ("n k", lambda n, k: (
        lift_binary_cw_code(greedy_partial_steiner(n, k + 1), k), 2 * k + 1, k + 1)),
}

# search kind -> (oracle, letter of its target); every kind but p takes a
# weight, which the oracle reads after the distance
_SEARCHES = {"p": (exact_p, "P"), "pcw": (exact_p_cw, "P"), "acw": (exact_a_cw, "A")}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage by default; this CLI reserves 2 for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digits(value: int) -> str:
    """An int's exact decimal digits. ``str`` refuses an int of more digits
    than ``sys.get_int_max_str_digits()`` (n! passes 4,300 at n = 1,559);
    ``Decimal`` converts any int exactly and leaves that limit alone."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def _json(report: dict) -> str:
    """``json.dumps`` of a report, writing even an int too long for ``str``
    as an exact JSON number: on that path each int becomes a marker string,
    which the dumped text then trades for the int's digits."""
    try:
        return json.dumps(report)
    except ValueError:
        pass
    digits = []

    def mark(x):
        if type(x) is int:  # not bool, which json writes as true or false
            digits.append(_digits(x))
            return f"\0{len(digits) - 1}"
        if isinstance(x, dict):
            return {key: mark(value) for key, value in x.items()}
        return list(map(mark, x)) if isinstance(x, list) else x

    return re.sub(r'"\\u0000(\d+)"', lambda m: digits[int(m[1])], json.dumps(mark(report)))


def _scientific(value: int) -> str:
    text = _digits(value)
    if value < 10_000_000:
        return text
    return f"{text[0]}.{text[1:4]}e{len(text) - 1}"


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise ValueError(f"range must be N or LO:HI, got {text!r}") from None
    if low > high:
        raise ValueError(f"empty range {text!r}")
    return low, high


def _bound_row(name: str, result: BoundResult) -> dict:
    return {
        "rule": name,
        "value": result.value,
        "kind": result.kind,
        "derivation": list(result.derivation),
    }


def _cmd_bound(args: argparse.Namespace) -> int:
    table = None if args.cw_table is None else CwTable.load(args.cw_table)
    n, d = args.n, args.d
    rows = candidate_bounds(n, d, table)
    best = best_upper_bound(n, d, table)
    tight = known_perfect(n, d)
    if args.json:
        report = {
            "n": n,
            "d": d,
            "bounds": [_bound_row(name, r) for name, r in rows if r.applicable],
            "best": _bound_row(best.derivation[-1], best),
            "tight": tight,
        }
        print(_json(report))
        return EXIT_OK
    print(f"upper bounds for P({n},{d}):")
    for name, result in rows:
        if result.applicable:
            print(f"  {name:3} {_digits(result.value)}  [{' -> '.join(result.derivation)}]")
        else:
            print(f"  {name:3} not applicable at (n={n}, d={d})")
    note = "  (tight: a known family meets it)" if tight else ""
    print(f"best: {_digits(best.value)}  [{' -> '.join(best.derivation)}]{note}")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    table = None if args.cw_table is None else CwTable.load(args.cw_table)
    n_lo, n_hi = _parse_range(args.n_range)
    d_lo, d_hi = _parse_range(args.d_range)
    if n_lo < 1 or d_lo < 1:
        raise ValueError("table ranges must start at 1 or above")
    cells = {}  # (n, d) -> (best value, letter of the winning rule)
    for n in range(n_lo, n_hi + 1):
        for d in range(d_lo, min(d_hi, n) + 1):
            best = best_upper_bound(n, d, table)
            cells[n, d] = best.value, _RULE_LETTERS[best.derivation[-1]]
    if args.json:
        report = [{"n": n, "d": d, "value": value, "rule": rule}
                  for (n, d), (value, rule) in cells.items()]
        print(_json({"rules": _RULE_LETTERS, "cells": report}))
        return EXIT_OK
    render = _scientific if args.scientific else _digits
    d_values = range(d_lo, d_hi + 1)
    matrix = [["n\\d"] + [str(d) for d in d_values]]
    for n in range(n_lo, n_hi + 1):
        matrix.append([str(n)] + [
            f"{render(cells[n, d][0])}({cells[n, d][1]})" if (n, d) in cells else "-"
            for d in d_values])
    widths = [max(map(len, column)) for column in zip(*matrix)]
    print("best upper bounds on P(n,d); rules: D=DV S=SP E=ME O=MO")
    for row in matrix:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise ValueError(
            f"unknown family {args.family!r}; expected one of {', '.join(sorted(_FAMILIES))}"
        )
    names, build = _FAMILIES[args.family]
    if len(args.params) != len(names.split()):
        raise ValueError(f"family {args.family!r} takes parameters: {names}")
    array, d, w = build(*args.params)
    text = pafile._pa_pieces(array, d, w)  # the header is checked here
    if args.out:
        pafile._write(args.out, text)
    if args.json:
        report = {
            "family": args.family,
            "params": args.params,
            "n": array.n,
            "d": d,
            "w": w,
            "size": len(array),
            "out": args.out,
        }
        if not args.out:
            report["members"] = array.rows.tolist()
        print(json.dumps(report))
        return EXIT_OK
    print(f"{args.family}({', '.join(map(str, args.params))}): "
          f"{len(array)} permutations of {array.n} points, distance {d}")
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(text)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    oracle, letter = _SEARCHES[args.kind]
    if args.kind == "p" and args.w is not None:
        raise ValueError("search kind 'p' takes no weight")
    params = [args.n, args.d] + ([] if args.kind == "p" else [args.w])
    if None in params:
        raise ValueError(f"search kind {args.kind!r} needs a weight")
    outcome = oracle(*params, SearchLimits(args.limit_nodes, args.limit_seconds))
    target = f"{letter}({','.join(map(str, params))})"
    witness = outcome.witness
    if args.out:
        if isinstance(witness, BinaryCwCode):
            pafile.write_cw(witness, args.out)
        else:
            pafile.write_pa(witness, args.d, args.out, args.w)
    if args.json:
        report = {
            "target": target,
            "status": outcome.status,
            "value": outcome.value,
            "nodes": outcome.nodes,
            "pruned": list(outcome.pruned),
            "seconds": outcome.seconds,
            "witness_size": len(witness),
            "out": args.out,
        }
        print(json.dumps(report))
    else:
        relation = "=" if outcome.status == STATUS_EXACT else ">="
        print(f"{target} {relation} {outcome.value}  [{outcome.status}, {outcome.nodes} nodes]")
        if args.out:
            print(f"wrote witness to {args.out}")
    return EXIT_OK if outcome.status == STATUS_EXACT else EXIT_LIMITS


class _MemberNames(dict):
    """Each member's text by row index, ``form`` of the row's list of ints,
    made on its first lookup: a bad pair's lines name the same members many
    times. A dict lookup that hits runs no Python code, so it costs less
    than a ``functools.cache`` call."""

    def __init__(self, rows: np.ndarray, form: Callable[[list[int]], str]) -> None:
        super().__init__()
        self.rows = rows
        self.form = form

    def __missing__(self, i: int) -> str:
        text = self[i] = self.form(self.rows[i].tolist())
        return text


def _write_joined(texts: Iterable[str], sep: str) -> None:
    """Write the texts with sep between each two, ``_LINES_PER_WRITE`` at a
    time, so the text held at once stays bounded however many there are."""
    texts = iter(texts)
    lead = ""
    while chunk := list(islice(texts, _LINES_PER_WRITE)):
        sys.stdout.write(lead + sep.join(chunk))
        lead = sep


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.d is not None and args.d < 1:
        # every pair is at distance >= 0: such a claim checks nothing
        raise ValueError(f"distance d={args.d} below 1")
    header, payload = pafile.load(args.path)
    d = args.d if args.d is not None else header.d
    if isinstance(payload, BinaryCwCode):
        rows = payload._supports()
        vectors, kind = indicator_rows(payload.n, rows), "words"
    else:
        rows = vectors = payload.rows
        kind = "permutations"
    # one pass counts the pairs, and a second recomputes only the blocks
    # that hold one and writes their pairs, so no more than one block of
    # them is held, however many fail
    count, pairs = count_pairs_below(vectors, d)
    if args.json:
        report = {"path": args.path, "n": header.n, "count": header.count, "d": d,
                  "ok": not count, "violations": []}
        sys.stdout.write(json.dumps(report)[:-2])  # open at the violations' "["
        names = _MemberNames(rows, json.dumps)
        _write_joined((f'{{"a": {names[a]}, "b": {names[b]}, "distance": {dist}}}'
                       for a, b, dist in pairs), ", ")
        sys.stdout.write("]}\n")
        return EXIT_VERIFY if count else EXIT_OK
    if not count:
        print(f"OK: {header.count} {kind} on {header.n} points, pairwise distance >= {d}")
        return EXIT_OK
    print(f"FAIL: {count} pair(s) below distance {d}:")
    names = _MemberNames(rows, lambda row: ",".join(map(str, row)))
    _write_joined((f"  {names[a]} <-> {names[b]} distance {dist}\n" for a, b, dist in pairs), "")
    return EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building it costs about
    25 to 40 times as much as parsing one command line."""
    parser = _Parser(prog="permarray", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="report upper bounds for one (n, d)")
    p_bound.add_argument("n", type=int)
    p_bound.add_argument("d", type=int)
    p_bound.add_argument("--cw-table", metavar="PATH")
    p_bound.set_defaults(func=_cmd_bound)

    p_table = sub.add_parser("table", help="best upper bounds over a grid")
    p_table.add_argument("n_range", metavar="N[:N2]")
    p_table.add_argument("d_range", metavar="D[:D2]")
    p_table.add_argument("--cw-table", metavar="PATH")
    p_table.add_argument("--scientific", action="store_true",
                         help="display large values as mantissa/exponent (display only)")
    p_table.set_defaults(func=_cmd_table)

    p_construct = sub.add_parser("construct", help="build a named permutation array")
    p_construct.add_argument("family", help=" | ".join(_FAMILIES))
    p_construct.add_argument("params", type=int, nargs="+", help="family parameters")
    p_construct.add_argument("--out", metavar="PATH")
    p_construct.set_defaults(func=_cmd_construct)

    p_search = sub.add_parser("search", help="run an exhaustive search oracle")
    p_search.add_argument("kind", choices=tuple(_SEARCHES),
                          help="p: arrays; pcw: constant-weight arrays; acw: binary codes")
    p_search.add_argument("n", type=int)
    p_search.add_argument("d", type=int)
    p_search.add_argument("w", type=int, nargs="?")
    p_search.add_argument("--limit-nodes", type=int, metavar="N",
                          default=DEFAULT_LIMITS.max_nodes)
    p_search.add_argument("--limit-seconds", type=float, metavar="S",
                          default=DEFAULT_LIMITS.max_seconds)
    p_search.add_argument("--out", metavar="PATH")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="check a written array against a distance")
    p_verify.add_argument("path")
    p_verify.add_argument("d", type=int, nargs="?",
                          help="distance to check, at least 1 "
                               "(default: the file's claimed distance)")
    p_verify.set_defaults(func=_cmd_verify)
    for command in sub.choices.values():  # last, after each command's own options
        command.add_argument("--json", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"permarray: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

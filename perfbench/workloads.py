"""Workloads of the permarray benchmark: set-up, one measured round, and the
oracle that checks every output of the round.

Every workload is a closed loop: one process runs one operation at a time
and starts the next when the previous one has been checked. Searches pass
``max_seconds=None``, so the work a round does never depends on machine
speed.

An untraced round also runs the workload's probe, a short operation of the
same kind, several times between its operations, each between two runs of
the speed reference (``reference.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from permarray import (
    BinaryCwCode,
    PermutationArray,
    Permutation,
    best_upper_bound,
    cli,
    cw_binary_bound,
    exact_a_cw,
    exact_p,
    greedy_partial_steiner,
    lift_binary_cw_code,
    pafile,
    perfect_pa,
)
from permarray.search import STATUS_EXACT, STATUS_INCOMPLETE, SearchLimits, verify_pa

import reference

# (kind, n, d, w, node cap, known exact value or None)
CERTIFY = (("p", 6, 4, None, None, 120), ("acw", 11, 6, 4, None, 6))
# The P(7,4) cap must be at least its 4,948 vertices, or the search falls
# back to the greedy witness without running. P(6,5) is known to be 18.
FRONTIER = (("p", 7, 4, None, 5000, None), ("p", 6, 5, None, 100_000, 18))
# Probes: the first 700 nodes of P(6,4) (664-bit colouring; a cap below its
# 664 vertices would skip the search) and the first 3,000 of P(6,5);
# `verify` of the pgl2 11 file for tools (set up below).
PROBES = {"certify": ("p", 6, 4, None, 700, 120), "frontier": ("p", 6, 5, None, 3000, 18)}

S7_VIOLATIONS_AT_3 = 52_920  # 5040 * C(7,2) / 2 pairs differ by one transposition
STEINER_N = 45  # greedy triple packing on 45 points: 246 words


class Mismatch(Exception):
    """An output differs from what the oracle expects."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# --- set-up -----------------------------------------------------------------


def setup(workload: str, seed: int, workdir: str) -> None:
    """Build the workload's inputs under ``workdir`` and write ``plan.json``.

    Search inputs are only (n, d[, w]), so the seed changes nothing for
    ``certify`` and ``frontier``; for ``tools`` it picks the relabelling of
    points applied to every array and the order of the checks."""
    root = Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    if workload == "tools":
        plan = _setup_tools(random.Random(seed), root)
    else:
        plan = {"searches": CERTIFY if workload == "certify" else FRONTIER,
                "probe": {"label": _label(PROBES[workload]), "search": PROBES[workload]}}
    plan["seed"] = seed
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def _relabel_array(array: PermutationArray, sigma: list[int]) -> PermutationArray:
    """Conjugate every member by the point relabelling sigma; distances are
    unchanged."""
    members = []
    for p in array:
        images = [0] * len(p)
        for i, v in enumerate(p):
            images[sigma[i]] = sigma[v]
        members.append(Permutation(images))
    return PermutationArray(array.n, members)


def _setup_tools(rng: random.Random, root: Path) -> dict:
    def sigma(n: int) -> list[int]:
        points = list(range(n))
        rng.shuffle(points)
        return points

    arrays = {
        "symmetric 7": (_relabel_array(perfect_pa("symmetric", 7), sigma(7)), 2, None, 2),
        "alternating 7": (_relabel_array(perfect_pa("alternating", 7), sigma(7)), 3, None, 3),
        "pgl2 11": (_relabel_array(perfect_pa("pgl2", 11), sigma(12)), 10, None, 10),
    }
    relabel = sigma(STEINER_N)
    code = greedy_partial_steiner(STEINER_N, 3)
    code = BinaryCwCode(code.n, code.weight,
                        tuple(sorted(tuple(sorted(relabel[i] for i in w)) for w in code)),
                        code.distance)
    # supports meeting in one point give distance 2k+1 = 5
    arrays[f"steiner-lift {STEINER_N} 2"] = (lift_binary_cw_code(code, 2), 5, 3, 5)

    files = {}
    for label, (array, d, w, _) in arrays.items():
        path = root / (label.replace(" ", "-") + ".pa")
        pafile.write_pa(array, d, path, w)
        files[label] = (str(path), len(array))
    cw_path = root / f"cw-{STEINER_N}-3.pa"
    pafile.write_cw(code, cw_path)
    files[f"cw {STEINER_N} 3"] = (str(cw_path), len(code))

    verify = [{"label": label, "path": path, "d": None, "exit": 0, "count": count}
              for label, (path, count) in files.items()]
    verify.append({"label": "symmetric 7 at d=3", "path": files["symmetric 7"][0], "d": 3,
                   "exit": 2, "violations": S7_VIOLATIONS_AT_3})
    probe = next(dict(check) for check in verify if check["label"] == "pgl2 11")
    rng.shuffle(verify)
    min_distance = [{"label": label, "path": files[label][0], "expect": expect}
                    for label, (_, _, _, expect) in arrays.items()]
    rng.shuffle(min_distance)
    cells = sorted(rng.sample([(n, d) for n in range(2, 121) for d in range(2, n + 1)], 8))
    return {
        "probe": {"label": "verify pgl2 11", "verify": probe},
        "verify": verify,
        "min_distance": min_distance,
        "construct": {"argv": ["construct", "alternating", "7", "--out",
                               str(root / "construct-alternating-7.pa")], "count": 2520},
        "table": {"argv": ["table", "2:120", "2:120"], "cells": cells,
                  # (n, d, exact value) cells where the bound is tight
                  "searched": [(5, 4, 20), (5, 3, 60)]},
        "bound": [(20, 8, 217378664061529), (7, 4, None), (6, 5, None)],
    }


# --- one round ----------------------------------------------------------------


class Round:
    """Counts and call times of one measured round."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, float] = defaultdict(float)
        self.nodes = 0
        self.witness_size = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.probes: list[tuple[float, float]] = []  # (probe, reference) seconds

    def timed(self, kind: str, fn, *args):
        """Call fn, adding its duration to the time of ``kind``."""
        start = time.perf_counter()
        value = fn(*args)
        self.seconds[kind] += time.perf_counter() - start
        return value

    def attempt(self, label: str, body, *args) -> None:
        """Run one operation and its checks; a mismatch or an exception
        counts it as failed."""
        self.attempted += 1
        span = self.tracer.span(f"bench.{label}") if self.tracer else contextlib.nullcontext()
        try:
            with span:
                body(self, *args)
        except Mismatch as exc:
            self.failed += 1
            print(f"perfbench: FAILED {label}: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            print(f"perfbench: FAILED {label}:", file=sys.stderr)
            traceback.print_exc()

    def cli(self, kind: str, argv: list[str]) -> tuple[int, str]:
        """Run one CLI command in process; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.timed(kind, cli.main, argv)
        if err.getvalue():
            print(err.getvalue(), end="", file=sys.stderr)
        return code, out.getvalue()


def run_round(workload: str, plan: dict, workdir: str, tracer=None, probes: int = 0) -> Round:
    """Run the workload's operations once, checking every output, with
    ``probes`` probes spread evenly over the gaps before, between and after
    them. ``wall_s`` and ``cpu_s`` leave the probes out."""
    rnd = Round(tracer)
    if workload == "tools":
        ops = _tools_ops(plan)
    else:
        ops = [(_label(spec), _search, spec, Path(workdir)) for spec in plan["searches"]]
    gaps = len(ops) + 1
    probe_wall = probe_cpu = 0.0
    wall, cpu = time.perf_counter(), time.process_time()
    for gap in range(gaps):
        for _ in range((gap + 1) * probes // gaps - gap * probes // gaps):
            start, start_cpu = time.perf_counter(), time.process_time()
            rnd.attempt(f"probe {plan['probe']['label']}", _probe, plan["probe"])
            probe_wall += time.perf_counter() - start
            probe_cpu += time.process_time() - start_cpu
        if gap < len(ops):
            rnd.attempt(*ops[gap])
    rnd.wall_s = time.perf_counter() - wall - probe_wall
    rnd.cpu_s = time.process_time() - cpu - probe_cpu
    return rnd


def _label(spec) -> str:
    kind, n, d, w, cap, _ = spec
    name = f"P({n},{d})" if kind == "p" else f"A({n},{d},{w})"
    return name if cap is None else f"{name}@{cap}"


def _checked_search(rnd: Round, spec, timer: str):
    """Run one search, timed as ``timer``, and check its status and value."""
    kind, n, d, w, cap, known = spec
    label = _label(spec)
    limits = SearchLimits(max_nodes=cap, max_seconds=None)
    if kind == "p":
        outcome = rnd.timed(timer, exact_p, n, d, limits)
    else:
        outcome = rnd.timed(timer, exact_a_cw, n, d, w, limits)
    witness = outcome.witness
    _expect(len(witness) == outcome.value,
            f"{label}: value {outcome.value} but witness has {len(witness)} members")
    if cap is None:
        _expect(outcome.status == STATUS_EXACT, f"{label}: status {outcome.status}")
    else:
        _expect(outcome.status in (STATUS_EXACT, STATUS_INCOMPLETE),
                f"{label}: status {outcome.status}; the search never started")
    if outcome.status == STATUS_EXACT and known is not None:
        _expect(outcome.value == known, f"{label}: exact value {outcome.value}, known {known}")
    return outcome


def _search(rnd: Round, spec, workdir: Path) -> None:
    kind, n, d, w, _, _ = spec
    label = _label(spec)
    outcome = _checked_search(rnd, spec, "search")
    rnd.nodes += outcome.nodes
    witness = outcome.witness

    # Re-verify the witness the way a user would: write it, then `verify`.
    path = workdir / f"witness-{label}.pa"
    if kind == "p":
        pafile.write_pa(witness, d, path)
        bound = best_upper_bound(n, d).value
        found = rnd.timed("min_distance", witness.min_distance)
        _expect(found >= d, f"{label}: witness minimum distance {found} < {d}")
    else:
        pafile.write_cw(witness, path)
        bound = cw_binary_bound(n, d, w).value
    code, out = rnd.cli("verify", ["verify", str(path)])
    _expect(code == 0 and out.startswith(f"OK: {outcome.value} "),
            f"{label}: witness verify exited {code}: {out[:200]!r}")
    _expect(outcome.value <= bound, f"{label}: value {outcome.value} above upper bound {bound}")
    rnd.witness_size += outcome.value


def _probe(rnd: Round, probe: dict) -> None:
    """One probe; its duration is the time of the timed call alone, kept
    with the mean time of a reference run just before and one just after."""
    reference_s = reference.seconds()
    before = rnd.seconds["probe"]
    if "verify" in probe:
        _verify(rnd, probe["verify"], "probe")
    else:
        spec = probe["search"]
        n, d, known = spec[1], spec[2], spec[5]
        outcome = _checked_search(rnd, spec, "probe")
        _expect(not verify_pa(outcome.witness, d), f"{probe['label']}: witness has bad pairs")
        _expect(outcome.value <= min(known, best_upper_bound(n, d).value),
                f"{probe['label']}: value {outcome.value} above {known}")
        # a node-capped search is deterministic: every probe finds the same
        first = probe.setdefault("value", outcome.value)
        _expect(outcome.value == first, f"{probe['label']}: value {outcome.value}, then {first}")
    rnd.probes.append((rnd.seconds["probe"] - before, (reference_s + reference.seconds()) / 2))


def _tools_ops(plan: dict) -> list[tuple]:
    return [
        ("construct", _construct, plan["construct"]),
        *((f"verify {check['label']}", _verify, check) for check in plan["verify"]),
        *((f"min_distance {check['label']}", _min_distance, check)
          for check in plan["min_distance"]),
        ("table", _table, plan["table"]),
        *((f"bound {n} {d}", _bound, n, d, expect) for n, d, expect in plan["bound"]),
    ]


def _construct(rnd: Round, spec: dict) -> None:
    code, out = rnd.cli("construct", spec["argv"])
    _expect(code == 0 and f": {spec['count']} permutations" in out,
            f"construct exited {code}: {out[:200]!r}")
    header, array = pafile.load(spec["argv"][-1])
    _expect(header.count == len(array) == spec["count"], f"construct wrote {len(array)} members")


def _verify(rnd: Round, check: dict, timer: str = "verify") -> None:
    argv = ["verify", check["path"]] + ([] if check["d"] is None else [str(check["d"])])
    code, out = rnd.cli(timer, argv)
    _expect(code == check["exit"], f"exit code {code}, expected {check['exit']}")
    lines = out.splitlines()
    if check["exit"] == 0:
        _expect(lines[0].startswith(f"OK: {check['count']} "), f"output {lines[0]!r}")
    else:
        want = check["violations"]
        _expect(lines[0].startswith(f"FAIL: {want} pair(s)") and len(lines) == want + 1,
                f"reported {lines[0]!r} with {len(lines) - 1} pair lines, expected {want}")


def _min_distance(rnd: Round, check: dict) -> None:
    _, array = pafile.load(check["path"])
    found = rnd.timed("min_distance", array.min_distance)
    _expect(found == check["expect"], f"minimum distance {found}, expected {check['expect']}")


def _table(rnd: Round, spec: dict) -> None:
    code, out = rnd.cli("table", spec["argv"])
    _expect(code == 0, f"table exited {code}")
    cells = {}
    for line in out.splitlines()[2:]:
        row = line.split()
        n = int(row[0])
        for d, text in enumerate(row[1:], start=2):
            if text != "-":
                cells[(n, d)] = int(text.partition("(")[0])
    _expect(len(cells) == 119 * 120 // 2, f"table has {len(cells)} cells")
    factorial = 1
    for n in range(2, 121):
        factorial *= n
        _expect(cells[(n, 2)] == factorial, f"cell ({n},2) is not {n}!")
        _expect(cells[(n, n)] == n, f"cell ({n},{n}) is not {n}")
    for n, d in spec["cells"]:
        want = best_upper_bound(n, d).value
        _expect(cells[(n, d)] == want, f"cell ({n},{d}) is {cells[(n, d)]}, library says {want}")
    # where the bound is tight, exhaustive search must reach the table value
    for n, d, exact in spec["searched"]:
        outcome = rnd.timed("search", exact_p, n, d, SearchLimits(None, None))
        rnd.nodes += outcome.nodes
        rnd.witness_size += outcome.value
        _expect(outcome.status == STATUS_EXACT and outcome.value == exact == cells[(n, d)],
                f"P({n},{d}): search {outcome.value}, table {cells[(n, d)]}, known {exact}")


def _bound(rnd: Round, n: int, d: int, expect) -> None:
    code, out = rnd.cli("bound", ["bound", str(n), str(d)])
    best = next((line for line in out.splitlines() if line.startswith("best: ")), "")
    want = best_upper_bound(n, d).value if expect is None else expect
    _expect(code == 0 and best.split()[1:2] == [str(want)],
            f"bound {n} {d}: {best!r}, expected best {want}")

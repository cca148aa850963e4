"""Benchmark of permarray: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (a fresh interpreter that imports permarray and builds the inputs)
is timed several times, half before the rounds and half after; then whole
rounds of the workload run until ``--seconds`` have passed, at least one
round. A round is never cut short, so a run lasts at least one round even
when that is longer. Untraced rounds carry the workload's probes. Each
set-up and probe of an untraced run is timed between two runs of a speed
reference (``reference.py``).

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of rounds that record a span for each
call into permarray's public functions; the spans are written to
``perfbench/out/``. Metric names and units are those of BENCHMARK.json.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 6  # untraced runs; a traced run sets up once
PROBES = 12  # per untraced round

_SETUP_CODE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
    "workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its full record: every metric, round and sample."""
    return OUT / f"result-{workload}-{seed}-trace{trace}.json"


def _setup_once(workload: str, seed: int, workdir: Path) -> float:
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload, str(seed),
            str(workdir)]
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run(argv, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _setups(workload: str, seed: int, workdir: Path, count: int) -> list[tuple[float, float]]:
    """``count`` set-up times, each with the mean time of the reference
    interpreter runs just before and just after it."""
    bare = [reference.interpreter_seconds()]
    times = []
    for _ in range(count):
        times.append(_setup_once(workload, seed, workdir))
        bare.append(reference.interpreter_seconds())
    return [(t, (bare[i] + bare[i + 1]) / 2) for i, t in enumerate(times)]


def _rounds(workloads, workload: str, plan: dict, workdir: Path, seconds: float, tracer=None):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.round = len(rounds)
        rounds.append(workloads.run_round(workload, plan, str(workdir), tracer,
                                          0 if tracer else PROBES))
    return rounds


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "frontier", "tools"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permarray" / "__init__.py").is_file():
        print(f"perfbench: no permarray sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs src/ on the path)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            setups = [(_setup_once(args.workload, args.seed, workdir), None)]
        else:
            setups = _setups(args.workload, args.seed, workdir, SETUP_SAMPLES // 2)
        plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
        if args.trace:
            rounds, values, record = _traced(workloads, args, plan, workdir)
        else:
            rounds = _rounds(workloads, args.workload, plan, workdir, args.seconds)
            # the rest after the rounds, so that the samples span the whole run
            setups += _setups(args.workload, args.seed, workdir, SETUP_SAMPLES // 2)
            values, record = _end_to_end(setups, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    OUT.mkdir(exist_ok=True)
    record_path(args.workload, args.seed, args.trace).write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s_samples": setups,
        "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "probes": r.probes,
                    "seconds": r.seconds, "nodes": r.nodes, "witness_size": r.witness_size,
                    "attempted": r.attempted, "failed": r.failed} for r in rounds],
        **record, "result": result,
    }), encoding="utf-8")

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(rounds)} round(s), {attempted} operations, {failed} failed")
    print(f"  setup_s samples: {' '.join(_fmt(t) for t, _ in setups)}")
    print(f"  wall_s per round: {' '.join(_fmt(r.wall_s) for r in rounds)}")
    for m in metrics:
        print(f"  {m['name']:32} {_fmt(values[m['name']]):>12} {m['unit']}")
    for name, (value, unit) in record.get("report", {}).items():
        print(f"  {name:32} {_fmt(value):>12} {unit}")
    if "links" in record:
        print("  parent layer -> function: calls, seconds")
    for parent, child, calls, seconds in record.get("links", ()):
        print(f"    {parent:13} -> {child:45} {calls:8d} {_fmt(seconds):>10}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _end_to_end(setups: list[tuple[float, float]], rounds) -> tuple[dict, dict]:
    med = statistics.median
    probes = [pair for r in rounds for pair in r.probes]
    # The gated times are at the reference machine's speed: the machine's
    # speed swings (NOTES.md), and a sample's ratio to the reference runs
    # around it does not.
    values = {
        "setup_s": reference.calibrated(setups, reference.INTERPRETER_S),
        "probe_ms": 1000 * reference.calibrated(probes, reference.REFERENCE_S),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nodes": med(r.nodes for r in rounds),
        "witness_size": med(r.witness_size for r in rounds),
    }
    search_s = med(r.seconds["search"] for r in rounds)
    kinds = sorted({k for r in rounds for k in r.seconds} - {"search", "probe"})
    attempted = sum(r.attempted for r in rounds)
    # Round times are reported, not gated: they swing with the machine.
    report = {
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "cpu_s": (med(r.cpu_s for r in rounds), "s"),
        "setup_raw_s": (med(t for t, _ in setups), "s"),
        "interpreter_s": (med(r for _, r in setups), "s"),
        "probe_raw_ms": (1000 * med(t for t, _ in probes), "ms"),
        "reference_ms": (1000 * med(r for _, r in probes), "ms"),
        # the time the searches take to prove or bound their values
        "time_to_certify_s": (search_s, "s"),
        "nodes_per_s": (values["nodes"] / search_s if search_s else 0.0, "nodes/s"),
        **{f"{kind}_s": (med(r.seconds[kind] for r in rounds), "s") for kind in kinds},
        "error_rate": (sum(r.failed for r in rounds) / attempted, "ratio"),
    }
    return values, {"report": report}


def _traced(workloads, args, plan: dict, workdir: Path):
    from spans import Tracer, layer_metrics, parent_links, span_cost

    tracer = Tracer()
    tracer.install(workloads)
    try:
        rounds = _rounds(workloads, args.workload, plan, workdir, args.seconds, tracer)
    finally:
        tracer.uninstall()
    per_round = [layer_metrics(tracer.spans, i) for i in range(len(rounds))]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    spans_per_round = len(tracer.spans) / len(rounds)
    values["trace.wall_s"] = statistics.median(r.wall_s for r in rounds)
    values["trace.spans"] = spans_per_round
    # Machine drift between runs is larger than the tracing cost, so the
    # overhead is the measured cost of one span times the spans per round.
    values["trace.overhead_s"] = spans_per_round * span_cost()

    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    OUT.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "round", "work"],
        "spans": tracer.spans,
    }), encoding="utf-8")
    links = [[parent, child, calls, seconds]
             for (parent, child), (calls, seconds) in sorted(parent_links(tracer.spans).items())]
    return rounds, values, {"per_layer": values, "links": links}


if __name__ == "__main__":
    sys.exit(main())

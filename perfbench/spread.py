"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tools --seeds 1 2 3 4 5 [--trace 1] [--out FILE]

For every metric it prints the values, their median and the distance
between the first and third quartile as a share of the median, the figure
the bounds in BENCHMARK.json are set against. Runs are sequential, one
process at a time. Untraced runs also summarise the report-only metrics of
each run's record (time_to_certify_s, verify_s, error_rate, ...). ``--out``
writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, record_path


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        if not args.trace:
            record = json.loads(record_path(args.workload, seed, 0).read_text())
            metrics.update({name: tuple(v) for name, v in record["report"].items()})
        for name, (value, unit) in metrics.items():
            values.setdefault(name, []).append(value)
            units[name] = unit

    summary = {name: {"unit": units[name], **_stats(vals)} for name, vals in values.items()}
    print(f"{'metric':34} {'median':>12} {'iqr/median':>10}  values")
    for name, s in summary.items():
        spread = "-" if s["iqr_over_median"] is None else f"{s['iqr_over_median']:.4f}"
        shown = " ".join(f"{v:.4g}" for v in s["values"])
        print(f"{name:34} {s['median']:12.6g} {spread:>10}  {shown} [{s['unit']}]")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "seconds": seconds, "seeds": args.seeds,
                                        "metrics": summary}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

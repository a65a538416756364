#!/usr/bin/env python3
"""Steadiness report: repeat one workload and show how much each metric moves.

    python3 perfbench/steady.py --workload paper_cold --runs 10 --seconds 40

Runs run.py --runs times, each a fresh process with its own seed (seed0,
seed0+1, ...), as the acceptance check does. For every metric it prints
the median, the quartiles (statistics.quantiles, n=4), the quartile
spread (q3-q1)/median and the range (max-min)/median, and for end-to-end
metrics whether the quartile spread is under a third of the bound in
BENCHMARK.json. Exits 1 if any run fails or reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"run.py failed for seed {seed}:\n{r.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        out = run_once(args.workload, seed, seconds, args.trace)
        results.append(out)
        print(f"# seed {seed}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']}", flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'iqr/med':>8s} {'range/med':>9s}  bound/3")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        verdict = ""
        if name in bounds:
            verdict = f"{bounds[name] / 3:.3f} " + ("ok" if iqr < bounds[name] / 3
                                                    else "TOO WIDE")
        print(f"{name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.3f} "
              f"{rng:9.3f}  {verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_over_median": iqr, "range_over_median": rng}
    print("# summary: " + json.dumps({"workload": args.workload, "runs": args.runs,
                                      "seconds": seconds, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke run of every workload.

    python3 perfbench/selftest.py

For each workload, runs run.py --tiny once untraced and once traced and
checks the contract of the last output line: exactly the keys correct,
attempted, failed and metrics; no failed operation; every metric named
in BENCHMARK.json (end_to_end untraced, per_layer traced) present with
its unit and a finite value, end-to-end values above zero. Then checks
that run.py fails, without printing a result, in a directory holding
only BENCHMARK.json and perfbench/. Exits 1 on the first violation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        fail(f"{workload} trace={trace} exited {r.returncode}: {r.stderr[-1500:]}")
    out = last_json(r.stdout)
    if out is None or set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: last line is not the result object")
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        fail(f"{workload} trace={trace}: {out['attempted']} attempted, "
             f"{out['failed']} failed, correct={out['correct']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = out["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            fail(f"{workload}: {m['name']} has unit {v.get('unit')}, want {m['unit']}")
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {m['name']} value {value!r} is not a finite number")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end {m['name']} is {value}, must be above 0")
    print(f"selftest: ok {workload} trace={trace} ({len(got)} metrics)", flush=True)


def check_bare_directory():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        r = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "paper_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or last_json(r.stdout) is not None:
        fail("run.py succeeded in a directory without the qsmkit sources")
    print("selftest: ok bare directory refused", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, w, trace)
    check_bare_directory()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()

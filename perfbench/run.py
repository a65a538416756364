#!/usr/bin/env python3
"""End-to-end benchmark of qsmkit.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 40 --trace 0

Builds the Release tree of perfbench/ (once per checkout), runs one
workload for about --seconds of measured time and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
Lines before it carry the provenance and run details, each starting '#'.

    python3 perfbench/run.py --pin     # recompute pins.json (all seeds)

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import sys

import qsmbench as qb

PINS = qb.HERE / "pins.json"
DEADLINE_S = 170  # a run must end within 180 s of a built tree


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=qb.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (self-test only; not comparable)")
    ap.add_argument("--pin", action="store_true",
                    help="recompute the pinned simulated totals of every pool seed")
    args = ap.parse_args()
    if not args.pin and args.workload is None:
        ap.error("--workload is required")
    return args


def main():
    args = parse_args()
    qb.check_checkout()
    (qb.ROOT / ".bench_out").mkdir(exist_ok=True)
    bin_dir = qb.build(qb.ROOT / ".bench_out" / "build.log")
    prov = qb.provenance(bin_dir)
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    if args.pin:
        return pin(bin_dir)

    pins = {} if args.tiny else json.loads(PINS.read_text())
    bench = qb.Bench(bin_dir, args.workload, args.seed, args.tiny,
                     qb.Deadline(DEADLINE_S), pins)
    if args.trace:
        metrics = bench.per_layer(args.seconds)
        info = {"spans": str(bench.write_trace().relative_to(qb.ROOT))}
    else:
        metrics, info = bench.end_to_end(args.seconds)

    info.update(workload=args.workload, seed=args.seed, pool_seeds=bench.seeds(),
                problems=bench.problems)
    print("# run: " + json.dumps(info, sort_keys=True))
    failed = min(bench.failed, bench.attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def pin(bin_dir):
    """Simulated totals of every pool seed, for each workload family."""
    bench = qb.Bench(bin_dir, "pin", 0, False, qb.Deadline(3600), {})
    seeds = list(range(1, qb.SEED_POOL + 1))
    pins = {"paper": {}, "listrank": {}}
    for seed in seeds:
        pins["paper"][str(seed)] = bench.cold_unit(seed)["sim"]
        print(f"# pinned seed {seed}", flush=True)
    _, out = bench.listrank_calls(seeds, 0.0, len(seeds))
    for call in out["calls"]:
        pins["listrank"][str(call["seed"])] = call["sim"]
    if bench.failed:
        raise qb.BenchError("pinning runs failed: " + "; ".join(bench.problems))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {PINS}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except qb.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

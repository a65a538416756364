"""The end-to-end benchmark of qsmkit: build, workloads, checks, metrics.

run.py is the command line; this module does the work. All paths are
inside the checkout that holds this directory: the build goes to
$CARGO_TARGET_DIR (default .bench_build) and scratch files to .bench_work.

Load comes from this one process. It runs every child (a bench binary or
the in-process probe) one at a time and waits for it, so the host never
runs more than one child's threads, and each child's thread budget is the
host core count.
"""

import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_cold", "listrank_wide")

# Every child bench runs its grid points one at a time; the job count is
# fixed so that runs on one host compare.
JOBS = 1

# Inputs come from a finite pool of seeds, so every seed a run can draw has
# simulated totals pinned in pins.json. A run uses SEEDS_PER_RUN of them.
SEED_POOL = 16
SEEDS_PER_RUN = 3

# The paper artifacts in the order of scripts/regen_all.sh, each with the
# extra flags of its --quick form (used by --tiny runs).
PAPER = (
    ("table3_network", ["--words", "4096"]),
    ("fig1_prefix", ["--nmin", "4096", "--nmax", "16384", "--reps", "1"]),
    ("fig2_samplesort", ["--nmin", "16384", "--nmax", "32768", "--reps", "1"]),
    ("fig3_listrank", ["--nmin", "8192", "--nmax", "16384", "--reps", "1"]),
    ("fig4_latency", ["--nmin", "4096", "--nmax", "16384", "--reps", "1",
                      "--lat-multipliers", "1,8"]),
    ("fig5_crossover_l", ["--nmin", "4096", "--nmax", "65536", "--reps", "1",
                          "--lat-multipliers", "1,4"]),
    ("fig6_crossover_o", ["--nmin", "4096", "--nmax", "65536", "--reps", "1",
                          "--ovh-multipliers", "1,2"]),
    ("table4_nmin", ["--nmin", "4096", "--nmax", "65536", "--reps", "1"]),
    ("fig7_membank", ["--accesses", "200"]),
)
LISTRANK_P = 1024
TINY_LISTRANK_P = 64

SIM_KEYS = ("phases", "total_cycles", "comm_cycles", "rw_total", "messages",
            "wire_bytes")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build, refused
    build type, overrun deadline)."""


# ---- statistics ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


# ---- checkout, build, provenance ---------------------------------------------

def check_checkout():
    for rel in ("src/core/runtime.hpp", "bench/common.hpp", "scripts/regen_all.sh"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"not a qsmkit checkout: {ROOT / rel} is missing")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(log):
    """Configures (once) and builds the Release tree; returns bin/."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", str(out), "-j", jobs], log)
    return out / "bin"


def run_logged(argv, log):
    with open(log, "ab") as f:
        r = subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT)
    if r.returncode != 0:
        tail = Path(log).read_text(errors="replace")[-3000:]
        raise BenchError(f"{' '.join(argv[:3])} failed:\n{tail}")


def cmake_cache_value(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance(bin_dir):
    """Where a result came from; raises on a Debug or sanitizer build."""
    probe = json.loads(subprocess.run(
        [str(bin_dir / "perfbench_probe"), "provenance"], check=True,
        capture_output=True, text=True).stdout)
    build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
    flags = " ".join(cmake_cache_value(k) for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE", "CMAKE_EXE_LINKER_FLAGS"))
    if (build_type not in ("Release", "RelWithDebInfo") or not probe["optimized"]
            or probe["sanitizer"] or "-fsanitize" in flags
            or "-fsanitize" in os.environ.get("CXXFLAGS", "")):
        raise BenchError(
            f"refusing to time a {build_type or 'untyped'} build "
            f"(optimized={probe['optimized']}, sanitizer='{probe['sanitizer']}')")
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "build_type": build_type,
        "compiler": f"{cmake_cache_value('CMAKE_CXX_COMPILER')} {probe['compiler']}",
        "nproc": os.cpu_count(),
        "thread_budget": probe["thread_budget"],
        "jobs": JOBS,
        "calibration_mips": probe["calibration_mips"],
    }


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [p for d in ("src", "bench", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---- children ----------------------------------------------------------------

class Deadline:
    """The time limit of a run; spawn() kills a child that would pass it."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def check(self):
        if time.monotonic() >= self.end:
            raise BenchError("run exceeded its time limit")


class Child:
    """One finished child: wall time, exit code, peak RSS and its output
    (stdout and stderr together, and what it wrote to file descriptor 3)."""

    def __init__(self, name, wall_s, code, rss_mb, out, fd3):
        self.name = name
        self.wall_s = wall_s
        self.code = code
        self.rss_mb = rss_mb
        self.out = out
        self.fd3 = fd3


def spawn(argv, deadline):
    """Runs argv to completion, timed from spawn to reap, with its output
    collected through pipes. The benches write their CSV to /dev/fd/3, so
    no output file is written: on some file systems overwriting or removing
    a freshly written file costs tens of milliseconds, which would add disk
    noise to the timed units."""
    out_r, out_w = os.pipe()
    csv_r, csv_w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, out_w, 2),
               (os.POSIX_SPAWN_DUP2, csv_w, 3)]
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(csv_w)
    chunks = {out_r: [], csv_r: []}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline.end - time.monotonic()
                events = sel.select(timeout=max(0.0, left))
                if not events:
                    os.kill(pid, signal.SIGKILL)
                    break
                for key, _ in events:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, ru = os.wait4(pid, 0)
    finally:
        os.close(out_r)
        os.close(csv_r)
    wall = time.perf_counter() - t0
    deadline.check()
    return Child(Path(argv[0]).name, wall, os.waitstatus_to_exitcode(status),
                 ru.ru_maxrss / 1024.0,
                 b"".join(chunks[out_r]).decode(errors="replace"),
                 b"".join(chunks[csv_r]))


def harness_stats(text):
    """Sums every `harness:` line a bench printed; None if there is none."""
    keys = ("points", "cached", "computed", "failed")
    totals = dict.fromkeys(keys, 0)
    totals["compute_s"] = 0.0
    seen = False
    for line in text.splitlines():
        if not line.startswith("harness:"):
            continue
        seen = True
        fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
        for k in keys:
            totals[k] += int(fields.get(k, 0))
        totals["compute_s"] += float(fields.get("compute", "0s").rstrip("s"))
    return totals if seen else None


# ---- the benchmark -------------------------------------------------------------

class Bench:
    """One run of one workload: set-up, measured units, checks, metrics.

    A *unit* is what wall_s times: one whole cold regeneration of the
    paper artifacts (paper_cold) or one list_rank call with its set-up
    (listrank_wide). Units repeat, cycling over the run's pool seeds, until
    their summed wall time reaches the budget.
    """

    def __init__(self, bin_dir, workload, seed, tiny, deadline, pins):
        self.bin = Path(bin_dir)
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.deadline = deadline
        self.pins = pins
        # Scratch stores stay on disk after the run: they are fsynced, and
        # removing fsynced files costs 40-170 ms each on some file systems,
        # more than the run measures. Remove .bench_work/ when done.
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.min_units = 2 if tiny else 3
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracing = False
        self.spans = []
        self.sim_seen = {}
        self.csv_seen = {}
        self.next_dir = 0
        self.listrank_setups = []

    # -- helpers --

    def seeds(self):
        """The pool seeds this run's --seed selects."""
        return [1 + (self.seed * SEEDS_PER_RUN + k) % SEED_POOL
                for k in range(SEEDS_PER_RUN)]

    def fresh_dir(self, tag):
        self.next_dir += 1
        d = self.work / f"{tag}-{self.next_dir}"
        d.mkdir()
        return d

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def span(self, name, parent, t0, t1, **attrs):
        """Records a span (traced runs only); times are perf_counter s."""
        if self.tracing:
            self.spans.append({"name": name, "parent": parent, "start": t0,
                               "end": t1, **attrs})

    def spawn(self, argv, parent=None):
        t0 = time.perf_counter()
        child = spawn(argv, self.deadline)
        self.span(child.name, parent, t0, t0 + child.wall_s)
        return child

    def probe(self, *args):
        child = self.spawn([str(self.bin / "perfbench_probe"), *args])
        if child.code != 0:
            raise BenchError(f"perfbench_probe {args[0]} exited {child.code}: "
                             f"{child.out[-2000:]}")
        return child, json.loads(child.out.strip().splitlines()[-1])

    def check_sim(self, family, seed, sim, ops):
        """Simulated totals must equal the pinned values for this seed and
        those of every earlier unit of the same seed in this run."""
        first = self.sim_seen.setdefault((family, seed), sim)
        pinned = None if self.tiny else self.pins.get(family, {}).get(str(seed))
        for ref, what in ((first, "an earlier unit"), (pinned, "pins.json")):
            if ref is not None and any(ref[k] != sim[k] for k in SIM_KEYS):
                self.fail(ops, f"{family} seed {seed}: simulated totals {sim} "
                               f"differ from {what} {ref}")
                return

    def check_children(self, children, seed=None):
        """Counts each child that exited non-zero or wrote a failure row,
        and each paper table that differs from the first one this run made
        for the same seed. Returns the summed harness stats."""
        totals = dict.fromkeys(("points", "cached", "computed", "failed"), 0)
        totals["compute_s"] = 0.0
        for c in children:
            self.attempted += 1
            stats = harness_stats(c.out)
            if c.code != 0 or stats is None:
                self.fail(1, f"{c.name} exited {c.code}")
                continue
            for k in totals:
                totals[k] += stats[k]
            if stats["failed"]:
                self.fail(1, f"{c.name}: {stats['failed']} failure rows")
            elif self.csv_seen.setdefault((c.name, seed), c.fd3) != c.fd3:
                self.fail(1, f"{c.name}: CSV differs from an earlier unit (seed {seed})")
        return totals

    def store_totals(self, cache_dir, family, seed, ops):
        """Simulated totals over a unit's result stores, checked."""
        _, t = self.probe("store-totals", str(cache_dir))
        if t["failure_rows"] or t["corrupt_events"]:
            self.fail(ops, f"store {cache_dir}: {t['failure_rows']} failure rows, "
                           f"{t['corrupt_events']} corrupt events")
        self.check_sim(family, seed, t["sim"], ops)
        return t["sim"]

    def units_until(self, budget, make_unit):
        units = []
        while len(units) < self.min_units or sum(u["wall"] for u in units) < budget:
            units.append(make_unit(self.seeds()[len(units) % SEEDS_PER_RUN]))
        return units

    # -- paper regeneration --

    def regenerate(self, cache_dir, seed):
        """Runs the nine paper binaries once, with the flags of
        scripts/regen_all.sh; returns (wall, children)."""
        name = f"regenerate seed={seed}"
        children = []
        t0 = time.perf_counter()
        for bench, quick_flags in PAPER:
            argv = [str(self.bin / f"bench_{bench}"), "--csv", "/dev/fd/3",
                    "--jobs", str(JOBS), "--cache-dir", str(cache_dir),
                    "--lanes", "auto", "--seed", str(seed)]
            children.append(self.spawn(argv + (quick_flags if self.tiny else []), name))
        wall = time.perf_counter() - t0
        self.span(name, None, t0, t0 + wall)
        return wall, children

    def cold_unit(self, seed):
        cache = self.fresh_dir("cold") / "cache"
        wall, children = self.regenerate(cache, seed)
        stats = self.check_children(children, seed)
        sim = self.store_totals(cache, "paper", seed, len(children))
        return {"wall": wall, "runs": children, "stats": stats, "sim": sim,
                "stores": cache}

    # -- listrank_wide --

    def listrank_calls(self, seeds, budget, min_calls):
        p = TINY_LISTRANK_P if self.tiny else LISTRANK_P
        child, out = self.probe(
            "listrank", "--p", str(p), "--seeds", ",".join(map(str, seeds)),
            "--seconds", repr(budget), "--min-calls", str(min_calls))
        for call in out["calls"]:
            self.attempted += 1
            if not call["ok"]:
                self.fail(1, f"list ranks differ from sequential_list_rank "
                             f"(seed {call['seed']})")
            self.check_sim("listrank", call["seed"], call["sim"], 1)
        return child, out

    def listrank_units(self, budget):
        """One probe process per pool seed, each for its share of the
        budget, so a run's calls spread over several address-space layouts.
        Each process's first call is its set-up (a warm-up: the set-up of
        a call plus the call, in a fresh process); the rest are units, each
        timed from the start of its set-up to the end of the call."""
        units = []
        self.listrank_setups = []
        for seed in self.seeds():
            t0 = time.perf_counter()
            child, out = self.listrank_calls([seed], budget / SEEDS_PER_RUN, 2)
            first, *rest = out["calls"]
            warm_up = first["setup_s"] + first["call_s"]
            self.listrank_setups.append(warm_up)
            for k, call in enumerate(rest):
                start = t0 + call["start_s"]
                wall = call["setup_s"] + call["call_s"]
                self.span("list_rank", child.name, start, start + wall, seed=seed)
                # loop_s: the probe's call loop after its warm-up, carried by
                # its first unit
                units.append({"wall": wall, "call": call, "sim": call["sim"],
                              "rss_mb": child.rss_mb,
                              "loop_s": out["loop_s"] - warm_up if k == 0 else 0.0,
                              "stats": {"points": 1, "cached": 0, "computed": 1,
                                        "failed": 0 if call["ok"] else 1,
                                        "compute_s": call["call_s"]}})
        return units

    # -- set-up and measurement -------------------------------------------------

    def setup(self):
        """The workload's set-up, timed: returns setup_s."""
        times = []
        if self.workload == "paper_cold":
            # One cold regeneration per seed, untimed as units: pages in the
            # binaries and warms the file system before the first timed unit.
            for seed in self.seeds():
                cache = self.fresh_dir("setup") / "cache"
                wall, children = self.regenerate(cache, seed)
                if any(c.code for c in children):
                    raise BenchError("a set-up regeneration failed")
                times.append(wall)
        else:
            return None  # listrank_wide: each probe process's warm-up call
        return median(times)

    def measure(self, budget):
        if self.workload == "listrank_wide":
            return self.listrank_units(budget)
        return self.units_until(budget, self.cold_unit)

    def end_to_end(self, budget):
        """The untraced run: set-up, then units for `budget` seconds."""
        setup_s = self.setup()
        units = self.measure(budget)
        if setup_s is None:
            setup_s = median(self.listrank_setups)
        walls = [u["wall"] for u in units]
        if self.workload == "listrank_wide":
            rss = [u["rss_mb"] for u in units]  # the probe process, all calls
        else:
            rss = [max(c.rss_mb for c in u["runs"]) for u in units]
        metrics = {
            "wall_s": (median(walls), "s"),
            "points_per_s": (median([u["stats"]["points"] / u["wall"] for u in units]),
                             "1/s"),
            "sim_phases_per_s": (median([u["sim"]["phases"] / u["wall"] for u in units]),
                                 "1/s"),
            "peak_rss_mb": (median(rss), "MB"),
            "setup_s": (setup_s, "s"),
        }
        return metrics, {"units": len(units), "unit_walls": [round(w, 4) for w in walls]}

    # -- traced run --------------------------------------------------------------

    def per_layer(self, budget):
        """The traced run: set-up, an untraced half, a traced half, then
        the layer probes. Returns the per-layer metrics."""
        self.setup()
        untraced = self.measure(budget / 2)
        self.tracing = True
        traced = self.measure(budget / 2)
        m = {"trace.overhead_s": (median([u["wall"] for u in traced])
                                  - median([u["wall"] for u in untraced]), "s")}

        # Harness: summed over the traced units' bench runs. listrank_wide
        # bypasses harness::SweepRunner; its own call loop stands in.
        for k in ("points", "computed", "cached", "failed"):
            m[f"harness.{k}"] = (sum(u["stats"][k] for u in traced), "count")
        compute_s = sum(u["stats"]["compute_s"] for u in traced)
        if self.workload == "listrank_wide":
            child_s = sum(u["loop_s"] for u in traced)
        else:
            child_s = sum(c.wall_s for u in traced for c in u["runs"])
        m["harness.compute_s"] = (compute_s, "s")
        m["harness.overhead_s"] = (child_s - compute_s, "s")
        for k in SIM_KEYS:
            m[f"sim.{k}"] = (traced[0]["sim"][k], "count")

        # Phase pipeline and Comm memos: one list_rank call at p = 1024 after
        # a warm-up call (the listrank_wide unit; there, its first traced one).
        if self.workload == "listrank_wide":
            call = traced[0]["call"]
        else:
            call = self.listrank_calls(self.seeds()[:1], 0.0, 2)[1]["calls"][1]
        m["phase.host_us"] = (call["call_s"] / call["sim"]["phases"] * 1e6, "us")
        m["phase.sparse_phases"] = (call["sparse_phases"], "count")
        m["phase.dense_phases"] = (call["dense_phases"], "count")
        for memo in ("plan", "xfer"):
            hits, misses = call[f"{memo}_hits"], call[f"{memo}_misses"]
            m[f"comm.{memo}_hits"] = (hits, "count")
            m[f"comm.{memo}_misses"] = (misses, "count")
            m[f"comm.{memo}_hit_ratio"] = (hits / max(1, hits + misses), "ratio")
        m["comm.xfer_oversize"] = (call["xfer_oversize"], "count")
        m["comm.xfer_clears"] = (call["xfer_clears"], "count")

        # Store, executor and exchange-DES probes, over paper_cold's stores.
        stores = traced[0].get("stores")
        if stores is None:
            stores = self.cold_unit(self.seeds()[0])["stores"]
        _, layers = self.probe("layers", "--stores", str(stores), "--scratch",
                               str(self.fresh_dir("layers")), "--seed", str(self.seed))
        if layers.pop("store.lookup_failures"):
            self.fail(1, "a recorded key was missing from a warm store lookup")
        for k, v in layers.items():
            m[k] = (v, LAYER_UNITS.get(k, "count"))
        return m

    def write_trace(self):
        """Writes the traced run's spans to .bench_out/."""
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps(self.spans))
        return path


LAYER_UNITS = {
    "store.open_ms": "ms", "store.lookup_ns": "ns", "store.append_us_p50": "us",
    "store.append_us_p99": "us", "store.bytes": "bytes", "exec.ctor_ms.p16": "ms",
    "exec.ctor_ms.p1024": "ms", "exec.empty_phase_us.p1024": "us",
    "des.alltoall_ms.p256": "ms", "des.sparse_ms.p1024": "ms", "des.msgs_per_s": "1/s",
}

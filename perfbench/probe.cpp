// In-process half of the end-to-end benchmark (driven by run.py).
//
// Subcommands, each printing one JSON object on stdout:
//
//   provenance                compiler, optimization and sanitizer flags of
//                             this build, plus a fixed calibration-loop score
//   listrank  --seeds a,b,..  the listrank_wide workload: algos::list_rank at
//             --p P --seconds S   p = P, n = 4p on fiber lanes with a fresh
//             --min-calls N       Runtime per call, every call checked against
//                                 sequential_list_rank
//   store-totals DIR          simulated totals summed over every record of
//                             every result store under DIR
//   layers --stores DIR       per-layer probes: result store, Runtime
//          --scratch DIR      construction and empty phases, exchange DES
//          --seed S
//
// Every span is timed with steady_clock around a call into a module's
// public API; nothing inside src/ is instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algos/listrank.hpp"
#include "core/runtime.hpp"
#include "harness/cache.hpp"
#include "machine/presets.hpp"
#include "net/exchange.hpp"
#include "support/durable/segment_store.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace qsm;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) +
                                       0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Minimal JSON object writer: keys in insertion order, doubles at full
/// precision so run.py sees every digit that was measured.
class Obj {
 public:
  Obj& num(std::string_view k, double v) {
    return raw(k, support::json_number(v));
  }
  Obj& u64(std::string_view k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& i64(std::string_view k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& str(std::string_view k, std::string_view v) {
    return raw(k, "\"" + support::json_escape(v) + "\"");
  }
  Obj& boolean(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
  Obj& raw(std::string_view k, std::string_view v) {
    text_ += text_.empty() ? "{" : ",";
    text_ += "\"";
    text_ += k;
    text_ += "\":";
    text_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return text_.empty() ? "{}" : text_ + "}";
  }

 private:
  std::string text_;
};

std::string array_of(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) s += ",";
    s += items[i];
  }
  return s + "]";
}

/// Simulated totals of one or more runs: the model invariants a
/// host-speed change must leave untouched.
struct SimTotals {
  std::uint64_t phases{0};
  std::int64_t total_cycles{0};
  std::int64_t comm_cycles{0};
  std::uint64_t rw_total{0};
  std::uint64_t messages{0};
  std::int64_t wire_bytes{0};

  void add(const rt::RunResult& r) {
    phases += r.phases;
    total_cycles += r.total_cycles;
    comm_cycles += r.comm_cycles;
    rw_total += r.rw_total;
    messages += r.messages;
    wire_bytes += r.wire_bytes;
  }
  void write(Obj& o) const {
    o.u64("phases", phases)
        .i64("total_cycles", total_cycles)
        .i64("comm_cycles", comm_cycles)
        .u64("rw_total", rw_total)
        .u64("messages", messages)
        .i64("wire_bytes", wire_bytes);
  }
};

// ---- flags -----------------------------------------------------------------

struct Flags {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> named;

  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback = "") const {
    for (const auto& [k, v] : named) {
      if (k == name) return v;
    }
    return fallback;
  }
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      f.named.emplace_back(a.substr(2), argv[++i]);
    } else {
      f.positional.push_back(a);
    }
  }
  return f;
}

std::vector<std::uint64_t> parse_u64_list(const std::string& spec) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(std::stoull(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// ---- API shims ---------------------------------------------------------------
// The ROADMAP plans to delete the dense traffic form and to replace the
// snapshot cache under Comm's memos. These shims keep the benchmark
// compiling across those changes: a removed counter reads as 0.

template <typename R>
std::uint64_t dense_phases(const R& runtime) {
  if constexpr (requires { runtime.host_dense_phases(); }) {
    return runtime.host_dense_phases();
  } else {
    return 0;
  }
}

template <typename S>
std::uint64_t stat_oversize(const S& s) {
  if constexpr (requires { s.oversize; }) {
    return s.oversize;
  } else {
    return 0;
  }
}

template <typename S>
std::uint64_t stat_clears(const S& s) {
  if constexpr (requires { s.clears; }) {
    return s.clears;
  } else {
    return 0;
  }
}

machine::MachineConfig machine_at(int p) {
  auto cfg = machine::preset_by_name("default");
  cfg.p = p;
  return cfg;
}

// ---- provenance ------------------------------------------------------------

/// A fixed integer loop (xorshift64* feeding FNV-1a): a host-speed score in
/// millions of iterations per second, best of five, for normalizing results
/// taken on different hosts.
volatile std::uint64_t g_calibration_sink = 0;

double calibration_score() {
  constexpr std::uint64_t kIters = std::uint64_t{1} << 24;
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x =
        std::uint64_t{0x9E3779B97F4A7C15} + static_cast<std::uint64_t>(rep);
    std::uint64_t h = 1469598103934665603ULL;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      asm volatile("" : "+r"(x));  // one real iteration per trip
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      h = (h ^ (x * 0x2545F4914F6CDD1DULL)) * 1099511628211ULL;
    }
    const double dt = seconds_since(t0);
    g_calibration_sink = h;
    best = std::max(best, static_cast<double>(kIters) / dt / 1e6);
  }
  return best;
}

int cmd_provenance() {
#if defined(__OPTIMIZE__)
  constexpr bool optimized = true;
#else
  constexpr bool optimized = false;
#endif
#if defined(NDEBUG)
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
  std::string sanitizer;
#if defined(__SANITIZE_ADDRESS__)
  sanitizer += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizer += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitizer += "clang ";
#endif
#endif
  Obj o;
  o.str("compiler", __VERSION__)
      .boolean("optimized", optimized)
      .boolean("ndebug", ndebug)
      .str("sanitizer", sanitizer)
      .u64("hardware_threads", std::thread::hardware_concurrency())
      .u64("thread_budget", static_cast<std::uint64_t>(rt::host_thread_budget()))
      .num("calibration_mips", calibration_score());
  std::printf("%s\n", o.done().c_str());
  return 0;
}

// ---- listrank_wide -----------------------------------------------------------

int cmd_listrank(const Flags& f) {
  const int p = std::stoi(f.get("p", "1024"));
  const double budget_s = std::stod(f.get("seconds", "0"));
  const std::size_t min_calls = std::stoul(f.get("min-calls", "1"));
  const auto seeds = parse_u64_list(f.get("seeds", "1"));
  if (p < 2 || seeds.empty()) {
    std::fprintf(stderr, "listrank: need --p >= 2 and --seeds\n");
    return 2;
  }
  const auto n = static_cast<std::uint64_t>(4) * static_cast<std::uint64_t>(p);
  const auto cfg = machine_at(p);

  // The first call is the process's warm-up (first touch of the heap and
  // the code); the time budget starts when it ends.
  std::vector<std::string> calls;
  const auto t_start = Clock::now();
  auto t_budget = t_start;
  for (std::size_t i = 0;
       i < min_calls || seconds_since(t_budget) < budget_s; ++i) {
    if (i == 1) t_budget = Clock::now();
    const std::uint64_t seed = seeds[i % seeds.size()];
    const double start_s = seconds_since(t_start);

    // Set-up: the input list and its reference ranks, the Runtime and the
    // output array.
    const auto t0 = Clock::now();
    const auto list = algos::make_random_list(n, seed);
    const auto expected = algos::sequential_list_rank(list);
    rt::Runtime runtime(cfg, rt::Options{.seed = seed,
                                         .lanes = rt::LaneMode::Fibers});
    auto ranks = runtime.alloc<std::int64_t>(n);
    const double setup_s = seconds_since(t0);

    const auto t1 = Clock::now();
    const auto outcome = algos::list_rank(runtime, list, ranks);
    const double call_s = seconds_since(t1);

    const bool ok = runtime.host_read(ranks) == expected;
    SimTotals sim;
    sim.add(outcome.timing);
    const auto plan = runtime.comm().plan_cache_stats();
    const auto xfer = runtime.comm().xfer_cache_stats();

    Obj o;
    o.u64("seed", seed).num("start_s", start_s).num("setup_s", setup_s)
        .num("call_s", call_s).boolean("ok", ok);
    Obj s;
    sim.write(s);
    o.raw("sim", s.done());
    o.u64("sparse_phases", runtime.host_sparse_phases())
        .u64("dense_phases", dense_phases(runtime))
        .u64("threads_created", runtime.host_threads_created())
        .u64("plan_hits", plan.hits)
        .u64("plan_misses", plan.misses)
        .u64("xfer_hits", xfer.hits)
        .u64("xfer_misses", xfer.misses)
        .u64("xfer_oversize", stat_oversize(xfer))
        .u64("xfer_clears", stat_clears(xfer));
    calls.push_back(o.done());
  }
  const double loop_s = seconds_since(t_start);
  Obj out;
  out.i64("p", p).u64("n", n).num("loop_s", loop_s)
      .raw("calls", array_of(calls));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---- result stores -----------------------------------------------------------

struct StoreDir {
  std::string workload;  ///< store stem, which is the workload id
  std::string path;      ///< <dir>/<stem>.qstore
};

std::vector<StoreDir> list_stores(const std::string& dir) {
  std::vector<StoreDir> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_directory() && e.path().extension() == ".qstore") {
      out.push_back({e.path().stem().string(), e.path().string()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StoreDir& a, const StoreDir& b) {
              return a.workload < b.workload;
            });
  return out;
}

/// Every live (last-wins) record of one store, deserialized.
std::vector<std::pair<std::string, harness::PointResult>> read_store(
    const StoreDir& s, support::durable::ScanReport* report) {
  support::durable::SegmentStore store(s.path, {});
  std::vector<std::pair<std::string, harness::PointResult>> out;
  std::unordered_map<std::string, std::size_t> slot_of;
  for (auto& rec : store.load(report)) {
    const auto json = support::parse_json(rec.value);
    if (!json) continue;
    auto result = harness::ResultCache::deserialize(*json);
    if (!result) continue;
    const auto [it, fresh] = slot_of.try_emplace(rec.key, out.size());
    if (fresh) {
      out.emplace_back(std::move(rec.key), std::move(*result));
    } else {
      out[it->second].second = std::move(*result);  // last writer wins
    }
  }
  return out;
}

int cmd_store_totals(const Flags& f) {
  if (f.positional.empty()) {
    std::fprintf(stderr, "store-totals: need a cache directory\n");
    return 2;
  }
  SimTotals sim;
  std::uint64_t records = 0;
  std::uint64_t failure_rows = 0;
  std::uint64_t corrupt = 0;
  for (const auto& s : list_stores(f.positional[0])) {
    support::durable::ScanReport report;
    for (const auto& [key, r] : read_store(s, &report)) {
      ++records;
      if (!r.ok()) ++failure_rows;
      sim.add(r.timing);
    }
    corrupt += report.corrupt_events;
  }
  Obj o;
  o.u64("records", records).u64("failure_rows", failure_rows)
      .u64("corrupt_events", corrupt);
  Obj s;
  sim.write(s);
  o.raw("sim", s.done());
  std::printf("%s\n", o.done().c_str());
  return 0;
}

// ---- per-layer probes ----------------------------------------------------------

struct StoreProbe {
  double open_ms{0};
  double lookup_ns{0};
  double append_us_p50{0};
  double append_us_p99{0};
  std::uint64_t records{0};
  std::uint64_t segments{0};
  std::uint64_t bytes{0};
  std::uint64_t failed{0};  ///< recorded keys a warm lookup did not find
};

StoreProbe probe_store(const std::string& stores_dir,
                       const std::string& scratch) {
  StoreProbe out;
  const auto stores = list_stores(stores_dir);
  std::vector<std::vector<std::pair<std::string, harness::PointResult>>>
      contents;
  for (const auto& s : stores) {
    support::durable::ScanReport report;
    contents.push_back(read_store(s, &report));
    out.records += report.records;
    out.segments += report.segments;
    out.bytes += report.bytes;
  }

  // Warm open + lookups, five times; medians.
  std::vector<double> open_ms;
  std::vector<double> lookup_ns;
  for (int rep = 0; rep < 5; ++rep) {
    double open_s = 0;
    double lookup_s = 0;
    std::size_t lookups = 0;
    for (std::size_t i = 0; i < stores.size(); ++i) {
      const auto t0 = Clock::now();
      harness::ResultCache cache(stores_dir, stores[i].workload);
      (void)cache.lookup(harness::PointKey{"perfbench-open-probe"});
      open_s += seconds_since(t0);

      const auto t1 = Clock::now();
      for (const auto& kv : contents[i]) {
        if (cache.lookup(harness::PointKey{kv.first}) == nullptr) {
          ++out.failed;
        }
      }
      lookup_s += seconds_since(t1);
      lookups += contents[i].size();
    }
    open_ms.push_back(open_s * 1e3);
    if (lookups > 0) {
      lookup_ns.push_back(lookup_s * 1e9 / static_cast<double>(lookups));
    }
  }
  out.open_ms = median(open_ms);
  out.lookup_ns = median(lookup_ns);

  // Replay the records through store_one into fresh stores, default sync
  // policy, three times: per-append latency percentiles.
  std::vector<double> append_us;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string dir = scratch + "/replay-" + std::to_string(rep);
    fs::remove_all(dir);
    for (std::size_t i = 0; i < stores.size(); ++i) {
      harness::ResultCache cache(dir, stores[i].workload);
      for (const auto& [key, result] : contents[i]) {
        const harness::PointKey k{key};
        const auto t0 = Clock::now();
        cache.store_one(k, result);
        append_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    fs::remove_all(dir);
  }
  out.append_us_p50 = percentile(append_us, 0.50);
  out.append_us_p99 = percentile(append_us, 0.99);
  return out;
}

struct ExecProbe {
  double ctor_ms_p16{0};
  double ctor_ms_p1024{0};
  double empty_phase_us_p1024{0};
  std::uint64_t threads_created{0};
};

ExecProbe probe_exec(std::uint64_t seed) {
  ExecProbe out;
  const auto time_ctor = [seed](int p, int reps) {
    const auto cfg = machine_at(p);
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      rt::Runtime runtime(cfg, rt::Options{.seed = seed});
      ms.push_back(seconds_since(t0) * 1e3);
    }
    return median(ms);
  };
  out.ctor_ms_p16 = time_ctor(16, 41);
  out.ctor_ms_p1024 = time_ctor(1024, 9);

  // A benchmark-owned program of empty phases: the floor for lanes,
  // barrier and the fixed per-phase pipeline cost.
  constexpr int kPhases = 20;
  rt::Runtime runtime(machine_at(1024),
                      rt::Options{.seed = seed, .lanes = rt::LaneMode::Fibers});
  (void)runtime.run([](rt::Context& ctx) { ctx.sync(); });  // lanes up
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const auto r = runtime.run([](rt::Context& ctx) {
      for (int i = 0; i < kPhases; ++i) ctx.sync();
    });
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(r.phases));
  }
  out.empty_phase_us_p1024 = median(us);
  out.threads_created = runtime.host_threads_created();
  return out;
}

struct DesProbe {
  double alltoall_ms_p256{0};
  double sparse_ms_p1024{0};
  double msgs_per_s{0};
};

/// One cold exchange simulation per repetition (net:: directly, so no
/// Comm memo can answer it); median host milliseconds.
double time_exchange(
    const machine::MachineConfig& cfg,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
    std::uint64_t* messages, double* busy_s) {
  const std::vector<support::cycles_t> start(
      static_cast<std::size_t>(cfg.p), 0);
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const auto r = net::simulate_alltoallv_sparse(cfg.net, cfg.sw, start,
                                                  traffic);
    const double dt = seconds_since(t0);
    ms.push_back(dt * 1e3);
    *messages += r.messages;
    *busy_s += dt;
  }
  return median(ms);
}

DesProbe probe_des(std::uint64_t seed) {
  DesProbe out;
  support::Xoshiro256 rng(seed);
  std::uint64_t messages = 0;
  double busy_s = 0;

  // Sample sort at p = 256 on bench_sweep_p's largest size (n = 2^18): every
  // pair exchanges a bucket of about n / p^2 = 4 eight-byte keys.
  {
    const auto cfg = machine_at(256);
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    for (std::int64_t s = 0; s < 256; ++s) {
      for (std::int64_t d = 0; d < 256; ++d) {
        if (s == d) continue;
        traffic.emplace_back(s * 256 + d,
                             8 * (1 + static_cast<std::int64_t>(rng() % 7)));
      }
    }
    out.alltoall_ms_p256 = time_exchange(cfg, traffic, &messages, &busy_s);
  }
  // List ranking's irregular phases at p = 1024: about four partners per
  // node, a couple of words each.
  {
    const auto cfg = machine_at(1024);
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    for (std::int64_t s = 0; s < 1024; ++s) {
      std::vector<std::int64_t> dst;
      while (dst.size() < 4) {
        const auto d = static_cast<std::int64_t>(rng() % 1024);
        if (d != s && std::find(dst.begin(), dst.end(), d) == dst.end()) {
          dst.push_back(d);
        }
      }
      std::sort(dst.begin(), dst.end());
      for (const auto d : dst) {
        traffic.emplace_back(s * 1024 + d,
                             8 * (1 + static_cast<std::int64_t>(rng() % 3)));
      }
    }
    out.sparse_ms_p1024 = time_exchange(cfg, traffic, &messages, &busy_s);
  }
  out.msgs_per_s = busy_s > 0 ? static_cast<double>(messages) / busy_s : 0;
  return out;
}

int cmd_layers(const Flags& f) {
  const std::string stores = f.get("stores");
  const std::string scratch = f.get("scratch");
  const auto seed = std::stoull(f.get("seed", "1"));
  if (stores.empty() || scratch.empty()) {
    std::fprintf(stderr, "layers: need --stores and --scratch\n");
    return 2;
  }
  fs::create_directories(scratch);
  const auto st = probe_store(stores, scratch);
  const auto ex = probe_exec(seed);
  const auto des = probe_des(seed);
  Obj o;
  o.num("store.open_ms", st.open_ms)
      .num("store.lookup_ns", st.lookup_ns)
      .num("store.append_us_p50", st.append_us_p50)
      .num("store.append_us_p99", st.append_us_p99)
      .u64("store.records", st.records)
      .u64("store.segments", st.segments)
      .u64("store.bytes", st.bytes)
      .u64("store.lookup_failures", st.failed)
      .num("exec.ctor_ms.p16", ex.ctor_ms_p16)
      .num("exec.ctor_ms.p1024", ex.ctor_ms_p1024)
      .num("exec.empty_phase_us.p1024", ex.empty_phase_us_p1024)
      .u64("exec.threads_created", ex.threads_created)
      .num("des.alltoall_ms.p256", des.alltoall_ms_p256)
      .num("des.sparse_ms.p1024", des.sparse_ms_p1024)
      .num("des.msgs_per_s", des.msgs_per_s);
  std::printf("%s\n", o.done().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_probe provenance | listrank --seeds a,b "
               "[--p P] [--seconds S] [--min-calls N] | "
               "store-totals DIR | "
               "layers --stores DIR --scratch DIR [--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // One fixed host thread budget for every Runtime this process builds:
  // the host's core count, recorded in the provenance.
  rt::set_host_thread_budget(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  const std::string cmd = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "provenance") return cmd_provenance();
    if (cmd == "listrank") return cmd_listrank(flags);
    if (cmd == "store-totals") return cmd_store_totals(flags);
    if (cmd == "layers") return cmd_layers(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}

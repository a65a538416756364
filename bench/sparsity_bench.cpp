// Traffic-pipeline throughput: phases/sec of the phase pipeline's one
// traffic form (CSR rows per source, serial rank-major puts) on the two
// extremes of the paper's workloads:
//
//   listrank at n = 4p — the irregular-communication workload at its
//       sparsest: O(1) list items per node, so each phase touches a few
//       thousand (source, owner) pairs even at p = 4096;
//   samplesort — the key exchange is a genuine all-to-all, p^2 pairs.
//
// Each row times `reps` runs on one long-lived runtime after a warm-up run
// (best of). Bit-identity of the traces is the test suites' job (goldens,
// traffic oracle); this bench only measures host throughput. The JSON
// records where the numbers came from (git SHA at configure time, build
// type, compiler, host cores) so baselines are compared like for like.
// Emits BENCH_sparsity.json; CI gates listrank p = 1024 against it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "algos/listrank.hpp"
#include "algos/samplesort.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "support/json.hpp"

namespace {

using namespace qsm;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Row {
  std::string workload;
  int p{0};
  std::uint64_t n{0};
  double best_seconds{0};
  std::uint64_t phases{0};
};

/// Smallest power-of-two n satisfying sample sort's p^2 * ceil(log2 n) <= n.
std::uint64_t sort_n_for(int p) {
  const auto p2 = static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p);
  std::uint64_t n = 1ULL << 14;
  const auto ceil_log2 = [](std::uint64_t v) {
    std::uint64_t lg = 0;
    while ((1ULL << lg) < v) ++lg;
    return lg;
  };
  while (p2 * ceil_log2(n) > n) n <<= 1;
  return n;
}

/// Times `reps` runs of `run_once` on one long-lived runtime (one warmup
/// run first: lanes spawn and every phase's exchange pattern lands in the
/// comm memo, so timed reps measure the pipeline, not first-touch DES).
template <typename RunOnce>
void time_runs(Row& row, rt::Runtime& runtime, RunOnce run_once, int reps) {
  row.phases = run_once(runtime).phases;
  row.best_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_once(runtime);
    const auto t1 = std::chrono::steady_clock::now();
    QSM_REQUIRE(r.phases == row.phases, "phase count drifted across reps");
    row.best_seconds = std::min(
        row.best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
}

Row listrank_row(const machine::MachineConfig& base, int p, int reps,
                 std::uint64_t seed) {
  Row row;
  row.workload = "listrank";
  row.p = p;
  row.n = static_cast<std::uint64_t>(4) * static_cast<std::uint64_t>(p);
  const auto list = algos::make_random_list(row.n, seed ^ 5);
  auto variant = base;
  variant.p = p;
  rt::Runtime runtime(variant, rt::Options{.seed = seed});
  time_runs(
      row, runtime,
      [&](rt::Runtime& r) {
        auto ranks = r.alloc<std::int64_t>(row.n);
        auto timing = algos::list_rank(r, list, ranks).timing;
        r.free(ranks);
        return timing;
      },
      reps);
  return row;
}

Row samplesort_row(const machine::MachineConfig& base, int p, int reps,
                   std::uint64_t seed) {
  Row row;
  row.workload = "samplesort";
  row.p = p;
  row.n = sort_n_for(p);
  const auto& keys = bench::scratch_keys(row.n, seed ^ 7);
  auto variant = base;
  variant.p = p;
  rt::Runtime runtime(variant, rt::Options{.seed = seed});
  time_runs(
      row, runtime,
      [&](rt::Runtime& r) {
        auto data = r.alloc<std::int64_t>(row.n);
        r.host_fill(data, keys);
        auto timing = algos::sample_sort(r, data).timing;
        r.free(data);
        return timing;
      },
      reps);
  return row;
}

double phases_per_sec(const Row& row) {
  return static_cast<double>(row.phases) / row.best_seconds;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_sparsity",
                          "phase-pipeline throughput: phases/sec on sparse "
                          "(listrank) and all-to-all (samplesort) traffic");
  bench::register_common_flags(args);
  args.flag_str("procs", "64,256,1024,4096",
                "listrank processor counts (n = 4p each)");
  args.flag_str("sort-procs", "64,256",
                "samplesort processor counts (n = smallest feasible)");
  args.flag_str("out", "BENCH_sparsity.json", "machine-readable output file");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const auto procs = bench::parse_csv_i64(args.str("procs"));
  const auto sort_procs = bench::parse_csv_i64(args.str("sort-procs"));

  std::printf(
      "== Traffic pipeline throughput (machine %s, %d reps, best-of) ==\n\n",
      cfg.machine.name.c_str(), cfg.reps);

  std::vector<Row> rows;
  for (const long long pll : procs) {
    rows.push_back(
        listrank_row(cfg.machine, static_cast<int>(pll), cfg.reps, cfg.seed));
  }
  for (const long long pll : sort_procs) {
    rows.push_back(samplesort_row(cfg.machine, static_cast<int>(pll),
                                  cfg.reps, cfg.seed));
  }

  support::TextTable table({"workload", "p", "n", "phases", "phases/s"});
  table.set_precision(4, 1);
  for (const Row& row : rows) {
    table.add_row({row.workload, static_cast<long long>(row.p),
                   static_cast<long long>(row.n),
                   static_cast<long long>(row.phases), phases_per_sec(row)});
  }
  bench::emit(table, cfg);

  support::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("sparsity");
  json.key("machine");
  json.value(cfg.machine.name);
  json.key("reps");
  json.value(static_cast<std::int64_t>(cfg.reps));
  json.key("git_sha");
  json.value(QSMKIT_GIT_SHA);
  json.key("build_type");
  json.value(QSMKIT_BUILD_TYPE);
  json.key("compiler");
  json.value(kCompiler);
  json.key("nproc");
  json.value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("grid");
  json.begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("workload");
    json.value(row.workload);
    json.key("p");
    json.value(static_cast<std::int64_t>(row.p));
    json.key("n");
    json.value(row.n);
    json.key("phases");
    json.value(row.phases);
    json.key("seconds");
    json.value(row.best_seconds);
    json.key("phases_per_sec");
    json.value(phases_per_sec(row));
    json.end_object();
  }
  json.end_array();
  json.end_object();

  const std::string out_path = args.str("out");
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", json.str().c_str());
  std::fclose(f);
  std::printf("(json written to %s)\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }

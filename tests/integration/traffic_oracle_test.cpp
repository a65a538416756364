// Traffic-count oracle: the phase pipeline against a naive model.
//
// The pipeline reduces each phase's queued words to CSR rows through
// closed-form owner runs and sharded counters, then applies puts in one
// serial rank-major pass. This suite recomputes what the paper prices a
// phase by — m_rw_max, the max put and get words, rw_total, local_words —
// and kappa the slow way: one owner lookup per word, written out from the
// layout definitions, into a std::map keyed by (source, owner). It replays
// the memory semantics just as naively (gets read pre-phase values, then
// puts apply in rank-major request order, last writer wins) and compares
// the final array contents.
//
// The density sweep runs one synthetic program from one partner per node
// to all-to-all, across seeds, machine sizes and all three layouts. Its
// per-phase FNV-1a hashes are pinned to constants captured while the
// pipeline still carried a dense p x p traffic form, from runs where the
// forced-dense and per-phase-auto forms agreed, so the deleted form stays
// the reference for every simulated number. The spread cases queue enough
// words to engage the phase-worker pool; one has every node write
// overlapping ranges and checks each location's winner directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"

namespace qsm {
namespace {

constexpr int kArrays = 3;
constexpr rt::Layout kLayouts[kArrays] = {rt::Layout::Block,
                                          rt::Layout::Cyclic,
                                          rt::Layout::Hashed};
constexpr const char* kNames[kArrays] = {"a", "c", "h"};

std::uint64_t phase_hash(const rt::PhaseStats& ps) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(ps.arrival_spread));
  mix(static_cast<std::uint64_t>(ps.exchange_cycles));
  mix(static_cast<std::uint64_t>(ps.barrier_cycles));
  mix(static_cast<std::uint64_t>(ps.m_op_max));
  mix(ps.m_rw_max);
  mix(ps.max_put_words);
  mix(ps.max_get_words);
  mix(ps.rw_total);
  mix(ps.local_words);
  mix(ps.kappa);
  mix(ps.messages);
  mix(static_cast<std::uint64_t>(ps.wire_bytes));
  return h;
}

/// What a program phase may do: enqueue puts and gets on array 0 (Block),
/// 1 (Cyclic) or 2 (Hashed). Implemented over a real Context and over the
/// oracle's request log.
class Ops {
 public:
  virtual ~Ops() = default;
  virtual void put(int array, std::uint64_t start, std::uint64_t count,
                   const std::int64_t* src) = 0;
  virtual void get(int array, std::uint64_t start, std::uint64_t count,
                   std::int64_t* dest) = 0;
};

/// Four-phase program with a tunable partner count per node:
///   0. Block puts into `partners` pseudo-random partners' chunks plus one
///      locally-owned put;
///   1. Block gets from the same partners plus a Cyclic put that fans each
///      source over min(region, p) owners;
///   2. Hashed puts derived from the phase-1 get results (data flows
///      through the pipeline, so content divergence would surface) plus
///      Cyclic gets;
///   3. a straggler phase where only every fourth node sends one word.
/// The partner stride 11 is coprime to p - 1 for every p swept, so the
/// k-th partner offsets are distinct and requests never merge into one run.
struct DensityProgram {
  static constexpr int kPhases = 4;

  DensityProgram(int nprocs, std::uint64_t program_seed, int want_partners,
                 std::uint64_t words)
      : p(nprocs),
        seed(program_seed),
        partners(std::clamp(want_partners, 1, nprocs - 1)),
        region(words),
        buf(static_cast<std::size_t>(p), std::vector<std::int64_t>(region)),
        in(static_cast<std::size_t>(p),
           std::vector<std::int64_t>(
               region * static_cast<std::uint64_t>(partners))) {}

  [[nodiscard]] std::uint64_t n() const {
    return static_cast<std::uint64_t>(p) * region;
  }

  void phase(int k, int i, Ops& ops) {
    const auto base = static_cast<std::uint64_t>(i) * region;
    const auto partner = [&](int q) {
      return (i + 1 + (q * 11) % (p - 1)) % p;
    };
    auto& b = buf[static_cast<std::size_t>(i)];
    auto& got = in[static_cast<std::size_t>(i)];
    switch (k) {
      case 0:
        for (int q = 0; q < partners; ++q) {
          const auto j = static_cast<std::uint64_t>(partner(q));
          for (std::uint64_t t = 0; t < region; ++t) {
            b[t] = static_cast<std::int64_t>(
                (seed ^ (j * region + t)) * 1000003 +
                static_cast<unsigned>(i));
          }
          ops.put(0, j * region, region, b.data());
        }
        for (std::uint64_t t = 0; t < region; ++t) {
          b[t] = static_cast<std::int64_t>(base + t);
        }
        ops.put(0, base, region, b.data());
        break;
      case 1:
        for (int q = 0; q < partners; ++q) {
          ops.get(0, static_cast<std::uint64_t>(partner(q)) * region, region,
                  got.data() + static_cast<std::uint64_t>(q) * region);
        }
        for (std::uint64_t t = 0; t < region; ++t) {
          b[t] = static_cast<std::int64_t>(base * 31 + t * 7);
        }
        ops.put(1, base, region, b.data());
        break;
      case 2:
        for (std::uint64_t t = 0; t < region; ++t) {
          b[t] = got[t % got.size()] + static_cast<std::int64_t>(t);
        }
        ops.put(2, base, region, b.data());
        ops.get(1, static_cast<std::uint64_t>((i + 1) % p) * region, region,
                got.data());
        break;
      default:
        if (i % 4 == 0) {
          const std::int64_t one = i;
          ops.put(0, static_cast<std::uint64_t>(partner(0)) * region, 1,
                  &one);
        }
        break;
    }
  }

  int p;
  std::uint64_t seed;
  int partners;
  std::uint64_t region;
  std::vector<std::vector<std::int64_t>> buf;  ///< per rank
  std::vector<std::vector<std::int64_t>> in;   ///< per rank
};

/// Every node puts three overlapping ranges into each array in one phase:
/// a shared hot span [0, kHot), then a range A and a range B that starts
/// half-way into A. Each word's value encodes (rank, request, index), so
/// the winner of every location can be read back.
struct OverlapProgram {
  static constexpr int kPhases = 1;
  static constexpr std::uint64_t kHot = 64;
  static constexpr std::uint64_t kLen = 96;

  explicit OverlapProgram(int nprocs) : p(nprocs) {}

  [[nodiscard]] std::uint64_t n() const {
    return static_cast<std::uint64_t>(p) * 96;
  }
  [[nodiscard]] static std::int64_t value(int rank, int req,
                                          std::uint64_t idx) {
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(rank) << 40) |
        (static_cast<std::uint64_t>(req) << 32) | idx);
  }
  /// The three requests' spans for `rank`, in enqueue order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> spans(
      int rank) const {
    const std::uint64_t a = kHot + (static_cast<std::uint64_t>(rank) * 61) %
                                       (n() - kHot - 2 * kLen);
    return {{0, kHot}, {a, kLen}, {a + kLen / 2, kLen}};
  }

  void phase(int, int i, Ops& ops) const {
    std::vector<std::int64_t> vals;
    for (int array = 0; array < kArrays; ++array) {
      int req = 0;
      for (const auto& [start, count] : spans(i)) {
        vals.clear();
        for (std::uint64_t k = start; k < start + count; ++k) {
          vals.push_back(value(i, req, k));
        }
        ops.put(array, start, count, vals.data());
        ++req;
      }
    }
  }

  int p;
};

struct Outcome {
  rt::RunResult timing;
  std::vector<std::int64_t> data[kArrays];
};

class ContextOps final : public Ops {
 public:
  ContextOps(rt::Context& ctx,
             const rt::GlobalArray<std::int64_t> (&arrays)[kArrays])
      : ctx_(ctx), arrays_(arrays) {}
  void put(int array, std::uint64_t start, std::uint64_t count,
           const std::int64_t* src) override {
    ctx_.put_range(arrays_[array], start, count, src);
  }
  void get(int array, std::uint64_t start, std::uint64_t count,
           std::int64_t* dest) override {
    ctx_.get_range(arrays_[array], start, count, dest);
  }

 private:
  rt::Context& ctx_;
  const rt::GlobalArray<std::int64_t> (&arrays_)[kArrays];
};

template <typename Program>
Outcome run_runtime(Program& prog, std::uint64_t seed, int host_workers,
                    bool check_rules) {
  rt::Options opts;
  opts.seed = seed;
  opts.check_rules = check_rules;
  opts.track_kappa = true;
  opts.host_workers = host_workers;
  rt::Runtime runtime(machine::default_sim(prog.p), opts);
  rt::GlobalArray<std::int64_t> arrays[kArrays];
  for (int a = 0; a < kArrays; ++a) {
    arrays[a] = runtime.alloc<std::int64_t>(prog.n(), kLayouts[a], kNames[a]);
  }
  Outcome out;
  out.timing = runtime.run([&](rt::Context& ctx) {
    ContextOps ops(ctx, arrays);
    for (int k = 0; k < Program::kPhases; ++k) {
      prog.phase(k, ctx.rank(), ops);
      ctx.sync();
    }
  });
  for (int a = 0; a < kArrays; ++a) out.data[a] = runtime.host_read(arrays[a]);
  return out;
}

// ---- the oracle ------------------------------------------------------------

struct Req {
  bool is_put;
  int array;
  std::uint64_t start;
  std::uint64_t count;
  std::vector<std::int64_t> vals;  ///< put payload, copied at enqueue
  std::int64_t* dest;              ///< get destination
};

class LogOps final : public Ops {
 public:
  explicit LogOps(std::vector<Req>& log) : log_(log) {}
  void put(int array, std::uint64_t start, std::uint64_t count,
           const std::int64_t* src) override {
    log_.push_back({true, array, start, count,
                    std::vector<std::int64_t>(src, src + count), nullptr});
  }
  void get(int array, std::uint64_t start, std::uint64_t count,
           std::int64_t* dest) override {
    log_.push_back({false, array, start, count, {}, dest});
  }

 private:
  std::vector<Req>& log_;
};

struct OracleCounts {
  std::uint64_t m_rw_max{0};
  std::uint64_t max_put_words{0};
  std::uint64_t max_get_words{0};
  std::uint64_t rw_total{0};
  std::uint64_t local_words{0};
  std::uint64_t kappa{0};
};

struct OracleRun {
  std::vector<OracleCounts> phases;
  std::vector<std::int64_t> data[kArrays];
};

/// Sequential interpreter: per-word ownership straight from the layout
/// definitions, with the Hashed salt derived from the allocation counter
/// as the store documents (arrays are allocated in order 0, 1, 2).
template <typename Program>
OracleRun run_oracle(Program& prog, std::uint64_t seed) {
  const int p = prog.p;
  const std::uint64_t n = prog.n();
  const auto up = static_cast<std::uint64_t>(p);
  const std::uint64_t chunk = (n + up - 1) / up;
  const std::uint64_t hashed_salt =
      support::SplitMix64(seed ^ (2 + 0x51ULL)).next();
  const auto owner = [&](int array, std::uint64_t idx) {
    switch (kLayouts[array]) {
      case rt::Layout::Block:
        return static_cast<int>(idx / chunk);
      case rt::Layout::Cyclic:
        return static_cast<int>(idx % up);
      case rt::Layout::Hashed:
        return static_cast<int>(rt::hash_index(idx, hashed_salt) % up);
    }
    return -1;
  };

  OracleRun out;
  for (auto& d : out.data) d.assign(n, 0);
  for (int k = 0; k < Program::kPhases; ++k) {
    std::vector<std::vector<Req>> log(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      LogOps ops(log[static_cast<std::size_t>(i)]);
      prog.phase(k, i, ops);
    }

    // (source, owner) -> (put words, get words), one word at a time.
    std::map<std::pair<int, int>, std::pair<std::uint64_t, std::uint64_t>>
        words;
    std::map<std::pair<int, std::uint64_t>, std::uint64_t> accesses;
    for (int i = 0; i < p; ++i) {
      for (const Req& rq : log[static_cast<std::size_t>(i)]) {
        for (std::uint64_t x = rq.start; x < rq.start + rq.count; ++x) {
          auto& w = words[{i, owner(rq.array, x)}];
          (rq.is_put ? w.first : w.second) += 1;
          accesses[{rq.array, x}] += 1;
        }
      }
    }
    OracleCounts c;
    std::vector<std::uint64_t> put_rw(static_cast<std::size_t>(p), 0);
    std::vector<std::uint64_t> get_rw(static_cast<std::size_t>(p), 0);
    for (const auto& [key, w] : words) {
      const auto [src, dst] = key;
      if (src == dst) {
        c.local_words += w.first + w.second;
      } else {
        put_rw[static_cast<std::size_t>(src)] += w.first;
        get_rw[static_cast<std::size_t>(src)] += w.second;
      }
    }
    for (std::size_t i = 0; i < put_rw.size(); ++i) {
      c.m_rw_max = std::max(c.m_rw_max, put_rw[i] + get_rw[i]);
      c.max_put_words = std::max(c.max_put_words, put_rw[i]);
      c.max_get_words = std::max(c.max_get_words, get_rw[i]);
      c.rw_total += put_rw[i] + get_rw[i];
    }
    for (const auto& [loc, count] : accesses) {
      c.kappa = std::max(c.kappa, count);
    }
    out.phases.push_back(c);

    // Gets read pre-phase values; then puts apply rank-major, in enqueue
    // order within a rank, so the last writer wins.
    for (const auto& reqs : log) {
      for (const Req& rq : reqs) {
        if (rq.is_put) continue;
        const auto& d = out.data[rq.array];
        std::copy(d.begin() + static_cast<std::ptrdiff_t>(rq.start),
                  d.begin() + static_cast<std::ptrdiff_t>(rq.start + rq.count),
                  rq.dest);
      }
    }
    for (const auto& reqs : log) {
      for (const Req& rq : reqs) {
        if (!rq.is_put) continue;
        std::copy(rq.vals.begin(), rq.vals.end(),
                  out.data[rq.array].begin() +
                      static_cast<std::ptrdiff_t>(rq.start));
      }
    }
  }
  return out;
}

void expect_matches_oracle(const Outcome& got, const OracleRun& want,
                           const std::string& what) {
  ASSERT_EQ(got.timing.trace.size(), want.phases.size()) << what;
  for (std::size_t k = 0; k < want.phases.size(); ++k) {
    const rt::PhaseStats& ps = got.timing.trace[k];
    const OracleCounts& c = want.phases[k];
    const std::string at = what + " phase " + std::to_string(k);
    EXPECT_EQ(ps.m_rw_max, c.m_rw_max) << at;
    EXPECT_EQ(ps.max_put_words, c.max_put_words) << at;
    EXPECT_EQ(ps.max_get_words, c.max_get_words) << at;
    EXPECT_EQ(ps.rw_total, c.rw_total) << at;
    EXPECT_EQ(ps.local_words, c.local_words) << at;
    EXPECT_EQ(ps.kappa, c.kappa) << at;
  }
  for (int a = 0; a < kArrays; ++a) {
    EXPECT_EQ(got.data[a], want.data[a]) << what << " array " << kNames[a];
  }
}

// ---- pinned hashes ---------------------------------------------------------

/// Per-phase hashes of the density program (region 8, one host worker),
/// captured where forced-dense and auto traffic forms gave identical traces.
struct Pinned {
  int p;
  std::uint64_t seed;
  int partners;
  std::uint64_t hash[DensityProgram::kPhases];
};

constexpr Pinned kPinned[] = {
    {16, 1, 1,
     {0x1e8ae471c7b36db9ULL, 0xcc07da19c3886b7cULL, 0xc520acb3fa040512ULL,
      0x7335da44d16725e4ULL}},
    {16, 1, 4,
     {0x7491ccc38b7db2b4ULL, 0x7020fbde909d2f91ULL, 0xc520acb3fa040512ULL,
      0x7335da44d16725e4ULL}},
    {16, 1, 2,
     {0x9ff71cdaf3e29d96ULL, 0x509cc63e47c53e3fULL, 0xc520acb3fa040512ULL,
      0x7335da44d16725e4ULL}},
    {16, 1, 8,
     {0x7e4fc6eff3dbf5f0ULL, 0x7a846d2564fe87e7ULL, 0xc520acb3fa040512ULL,
      0x7335da44d16725e4ULL}},
    {16, 1, 15,
     {0x674e504f116a5133ULL, 0x232a27e43998b866ULL, 0xc520acb3fa040512ULL,
      0x7335da44d16725e4ULL}},
    {64, 1, 1,
     {0xb3cc1fee035b7339ULL, 0x8a3aa2ef93034702ULL, 0x7f959311e998f2f2ULL,
      0x5f926d09938c46fcULL}},
    {64, 1, 4,
     {0x976fc1e00b355604ULL, 0x651cd58d027caf31ULL, 0x7f959311e998f2f2ULL,
      0x5f926d09938c46fcULL}},
    {64, 1, 8,
     {0x7ff7aa1589fd03c0ULL, 0xb350943521c4ad67ULL, 0x7f959311e998f2f2ULL,
      0x5f926d09938c46fcULL}},
    {64, 1, 32,
     {0x7351cceafd4831f8ULL, 0x9ad418a704af3c05ULL, 0x7f959311e998f2f2ULL,
      0x5f926d09938c46fcULL}},
    {64, 1, 63,
     {0xb01fd280a328cde3ULL, 0x73f2ac4c904e59e6ULL, 0x7f959311e998f2f2ULL,
      0x5f926d09938c46fcULL}},
    {256, 1, 1,
     {0x03de919b076185b9ULL, 0xc1ff8c4dfe57aaa2ULL, 0x0af546d42c81b046ULL,
      0x21e443bcbe39c27cULL}},
    {256, 1, 4,
     {0xaaec549190546dc4ULL, 0xd77ac5040f633371ULL, 0x0af546d42c81b046ULL,
      0x21e443bcbe39c27cULL}},
    {256, 1, 32,
     {0x2c08febdc3675938ULL, 0x2a761b8f2d2861ddULL, 0x0af546d42c81b046ULL,
      0x21e443bcbe39c27cULL}},
    {256, 1, 128,
     {0xbe1f737924d28258ULL, 0x3be22db3c1491a25ULL, 0x0af546d42c81b046ULL,
      0x21e443bcbe39c27cULL}},
    {256, 1, 255,
     {0xc12091eef55107a3ULL, 0xedc396b00dae8de6ULL, 0x0af546d42c81b046ULL,
      0x21e443bcbe39c27cULL}},
    {16, 42, 1,
     {0x1e8ae471c7b36db9ULL, 0xcc07da19c3886b7cULL, 0x39435c87279dd7a9ULL,
      0x7335da44d16725e4ULL}},
    {16, 42, 4,
     {0x7491ccc38b7db2b4ULL, 0x7020fbde909d2f91ULL, 0x39435c87279dd7a9ULL,
      0x7335da44d16725e4ULL}},
    {16, 42, 2,
     {0x9ff71cdaf3e29d96ULL, 0x509cc63e47c53e3fULL, 0x39435c87279dd7a9ULL,
      0x7335da44d16725e4ULL}},
    {16, 42, 8,
     {0x7e4fc6eff3dbf5f0ULL, 0x7a846d2564fe87e7ULL, 0x39435c87279dd7a9ULL,
      0x7335da44d16725e4ULL}},
    {16, 42, 15,
     {0x674e504f116a5133ULL, 0x232a27e43998b866ULL, 0x39435c87279dd7a9ULL,
      0x7335da44d16725e4ULL}},
    {64, 42, 1,
     {0xb3cc1fee035b7339ULL, 0x8a3aa2ef93034702ULL, 0xce0268d5137a1981ULL,
      0x5f926d09938c46fcULL}},
    {64, 42, 4,
     {0x976fc1e00b355604ULL, 0x651cd58d027caf31ULL, 0xce0268d5137a1981ULL,
      0x5f926d09938c46fcULL}},
    {64, 42, 8,
     {0x7ff7aa1589fd03c0ULL, 0xb350943521c4ad67ULL, 0xce0268d5137a1981ULL,
      0x5f926d09938c46fcULL}},
    {64, 42, 32,
     {0x7351cceafd4831f8ULL, 0x9ad418a704af3c05ULL, 0xce0268d5137a1981ULL,
      0x5f926d09938c46fcULL}},
    {64, 42, 63,
     {0xb01fd280a328cde3ULL, 0x73f2ac4c904e59e6ULL, 0xce0268d5137a1981ULL,
      0x5f926d09938c46fcULL}},
    {256, 42, 1,
     {0x03de919b076185b9ULL, 0xc1ff8c4dfe57aaa2ULL, 0x1c94bd44becfc597ULL,
      0x21e443bcbe39c27cULL}},
    {256, 42, 4,
     {0xaaec549190546dc4ULL, 0xd77ac5040f633371ULL, 0x1c94bd44becfc597ULL,
      0x21e443bcbe39c27cULL}},
    {256, 42, 32,
     {0x2c08febdc3675938ULL, 0x2a761b8f2d2861ddULL, 0x1c94bd44becfc597ULL,
      0x21e443bcbe39c27cULL}},
    {256, 42, 128,
     {0xbe1f737924d28258ULL, 0x3be22db3c1491a25ULL, 0x1c94bd44becfc597ULL,
      0x21e443bcbe39c27cULL}},
    {256, 42, 255,
     {0xc12091eef55107a3ULL, 0xedc396b00dae8de6ULL, 0x1c94bd44becfc597ULL,
      0x21e443bcbe39c27cULL}},
    {16, 1234, 1,
     {0x1e8ae471c7b36db9ULL, 0xcc07da19c3886b7cULL, 0xdeecf9acbcbb465dULL,
      0x7335da44d16725e4ULL}},
    {16, 1234, 4,
     {0x7491ccc38b7db2b4ULL, 0x7020fbde909d2f91ULL, 0xdeecf9acbcbb465dULL,
      0x7335da44d16725e4ULL}},
    {16, 1234, 2,
     {0x9ff71cdaf3e29d96ULL, 0x509cc63e47c53e3fULL, 0xdeecf9acbcbb465dULL,
      0x7335da44d16725e4ULL}},
    {16, 1234, 8,
     {0x7e4fc6eff3dbf5f0ULL, 0x7a846d2564fe87e7ULL, 0xdeecf9acbcbb465dULL,
      0x7335da44d16725e4ULL}},
    {16, 1234, 15,
     {0x674e504f116a5133ULL, 0x232a27e43998b866ULL, 0xdeecf9acbcbb465dULL,
      0x7335da44d16725e4ULL}},
    {64, 1234, 1,
     {0xb3cc1fee035b7339ULL, 0x8a3aa2ef93034702ULL, 0xca074af3e8b57a8dULL,
      0x5f926d09938c46fcULL}},
    {64, 1234, 4,
     {0x976fc1e00b355604ULL, 0x651cd58d027caf31ULL, 0xca074af3e8b57a8dULL,
      0x5f926d09938c46fcULL}},
    {64, 1234, 8,
     {0x7ff7aa1589fd03c0ULL, 0xb350943521c4ad67ULL, 0xca074af3e8b57a8dULL,
      0x5f926d09938c46fcULL}},
    {64, 1234, 32,
     {0x7351cceafd4831f8ULL, 0x9ad418a704af3c05ULL, 0xca074af3e8b57a8dULL,
      0x5f926d09938c46fcULL}},
    {64, 1234, 63,
     {0xb01fd280a328cde3ULL, 0x73f2ac4c904e59e6ULL, 0xca074af3e8b57a8dULL,
      0x5f926d09938c46fcULL}},
    {256, 1234, 1,
     {0x03de919b076185b9ULL, 0xc1ff8c4dfe57aaa2ULL, 0x1a7677e17d6f21feULL,
      0x21e443bcbe39c27cULL}},
    {256, 1234, 4,
     {0xaaec549190546dc4ULL, 0xd77ac5040f633371ULL, 0x1a7677e17d6f21feULL,
      0x21e443bcbe39c27cULL}},
    {256, 1234, 32,
     {0x2c08febdc3675938ULL, 0x2a761b8f2d2861ddULL, 0x1a7677e17d6f21feULL,
      0x21e443bcbe39c27cULL}},
    {256, 1234, 128,
     {0xbe1f737924d28258ULL, 0x3be22db3c1491a25ULL, 0x1a7677e17d6f21feULL,
      0x21e443bcbe39c27cULL}},
    {256, 1234, 255,
     {0xc12091eef55107a3ULL, 0xedc396b00dae8de6ULL, 0x1a7677e17d6f21feULL,
      0x21e443bcbe39c27cULL}},
};

TEST(TrafficOracle, DensitySweepMatchesNaiveCountsAndPinnedHashes) {
  for (const Pinned& pin : kPinned) {
    const std::string what = "p=" + std::to_string(pin.p) +
                             " partners=" + std::to_string(pin.partners) +
                             " seed=" + std::to_string(pin.seed);
    SCOPED_TRACE(what);
    DensityProgram prog(pin.p, pin.seed, pin.partners, 8);
    const Outcome got = run_runtime(prog, pin.seed, 1, /*check_rules=*/true);
    DensityProgram fresh(pin.p, pin.seed, pin.partners, 8);
    expect_matches_oracle(got, run_oracle(fresh, pin.seed), what);
    ASSERT_EQ(got.timing.trace.size(),
              static_cast<std::size_t>(DensityProgram::kPhases));
    for (int k = 0; k < DensityProgram::kPhases; ++k) {
      EXPECT_EQ(phase_hash(got.timing.trace[static_cast<std::size_t>(k)]),
                pin.hash[k])
          << what << ": phase " << k << " diverged from the pinned trace";
    }
  }
}

TEST(TrafficOracle, PinnedSweepCoversEveryDensity) {
  // Seeds {1, 42, 1234} x p {16, 64, 256} x partners {1, 4, p/8, p/2,
  // p - 1}: one partner per node through all-to-all.
  std::map<std::pair<int, std::uint64_t>, std::vector<int>> grid;
  for (const Pinned& pin : kPinned) {
    grid[{pin.p, pin.seed}].push_back(pin.partners);
  }
  for (const std::uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    for (const int p : {16, 64, 256}) {
      std::vector<int> want;
      for (const int partners : {1, 4, p / 8, p / 2, p - 1}) {
        want.push_back(std::clamp(partners, 1, p - 1));
      }
      const std::pair<int, std::uint64_t> key{p, seed};
      EXPECT_EQ(grid[key], want) << "p=" << p << " seed=" << seed;
    }
  }
}

TEST(TrafficOracle, SpreadPhaseMatchesOracleAndSerialRun) {
  // 16 * 5 * 512 = 40960 queued words per phase, above the spread
  // threshold, so classify and the get copies run on the worker pool.
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const std::string what = "spread seed=" + std::to_string(seed);
    SCOPED_TRACE(what);
    DensityProgram prog(16, seed, 4, 512);
    const Outcome spread = run_runtime(prog, seed, 2, /*check_rules=*/true);
    DensityProgram serial_prog(16, seed, 4, 512);
    const Outcome serial =
        run_runtime(serial_prog, seed, 1, /*check_rules=*/true);
    DensityProgram fresh(16, seed, 4, 512);
    expect_matches_oracle(spread, run_oracle(fresh, seed), what);
    EXPECT_EQ(spread.timing, serial.timing) << what;
  }
}

TEST(TrafficOracle, OverlappingPutsResolveRankMajorLastWriterWins) {
  // p = 64 nodes x 3 arrays x (64 + 96 + 96) words = 49152 queued words:
  // a spread phase on four workers. Every location's final value must come
  // from the highest rank that wrote it, and within that rank from its
  // latest request covering the location.
  const int p = 64;
  const std::uint64_t seed = 7;
  OverlapProgram prog(p);
  const Outcome got = run_runtime(prog, seed, 4, /*check_rules=*/true);
  const Outcome serial = run_runtime(prog, seed, 1, /*check_rules=*/true);
  EXPECT_EQ(got.timing, serial.timing);

  std::vector<std::int64_t> want(prog.n(), 0);
  std::uint64_t covered = 0;
  std::uint64_t own_overlaps = 0;  // won by a rank's B over its own A
  for (std::uint64_t k = 0; k < prog.n(); ++k) {
    for (int i = p - 1; i >= 0; --i) {
      const auto sp = prog.spans(i);
      int last = -1;
      int writes = 0;
      for (int req = 0; req < static_cast<int>(sp.size()); ++req) {
        const auto [start, count] = sp[static_cast<std::size_t>(req)];
        if (k >= start && k < start + count) {
          last = req;
          ++writes;
        }
      }
      if (last < 0) continue;
      want[k] = OverlapProgram::value(i, last, k);
      ++covered;
      if (writes > 1) ++own_overlaps;
      break;
    }
  }
  ASSERT_GT(covered, prog.n() / 2);
  ASSERT_GT(own_overlaps, 0u);
  for (int a = 0; a < kArrays; ++a) {
    EXPECT_EQ(got.data[a], want) << "array " << kNames[a];
    EXPECT_EQ(serial.data[a], want) << "array " << kNames[a];
  }
  // The hot span, written by every rank, belongs to the top rank.
  EXPECT_EQ(got.data[0][0], OverlapProgram::value(p - 1, 0, 0));
  OverlapProgram fresh(p);
  expect_matches_oracle(got, run_oracle(fresh, seed), "overlap");
}

}  // namespace
}  // namespace qsm

#include "msg/comm.hpp"

#include <gtest/gtest.h>

#include "machine/presets.hpp"

namespace qsm::msg {
namespace {

Comm default_comm(int p = 4) { return Comm(machine::default_sim(p)); }

TEST(Comm, BarrierCostMatchesNetModel) {
  const auto c = default_comm(16);
  EXPECT_EQ(c.barrier_cost(),
            net::tree_barrier_cost(c.config().net, c.config().sw, 16));
}

TEST(Comm, BarrierWaitsForStragglers) {
  const auto c = default_comm(8);
  std::vector<support::cycles_t> arrive(8, 0);
  arrive[3] = 500'000;
  EXPECT_GE(c.barrier(arrive), 500'000);
}

TEST(Comm, AllgatherSendsPSquaredMessages) {
  const auto c = default_comm(4);
  const auto r = c.allgather(std::vector<support::cycles_t>(4, 0), 64);
  EXPECT_EQ(r.messages, 12u);  // p*(p-1)
  EXPECT_GT(r.finish, 0);
}

TEST(Comm, AllgatherZeroBytesStillSendsControlMessages) {
  const auto c = default_comm(4);
  const auto r = c.allgather(std::vector<support::cycles_t>(4, 0), 0);
  EXPECT_EQ(r.messages, 12u);
}

TEST(Comm, GatherConvergesOnRoot) {
  const auto c = default_comm(4);
  const std::vector<std::int64_t> bytes{0, 100, 100, 100};
  const auto r = c.gather(std::vector<support::cycles_t>(4, 0), 0, bytes);
  EXPECT_EQ(r.messages, 3u);
  // Root's receive resources did all the receiving.
  EXPECT_GT(r.nodes[0].rx_busy, 0);
  EXPECT_EQ(r.nodes[1].rx_busy, 0);
}

TEST(Comm, GatherRootSendsNothing) {
  const auto c = default_comm(3);
  const std::vector<std::int64_t> bytes{999, 10, 10};
  const auto r = c.gather(std::vector<support::cycles_t>(3, 0), 0, bytes);
  EXPECT_EQ(r.messages, 2u);  // root's own contribution is local
}

TEST(Comm, AlltoallvDiagonalIgnored) {
  // The nested-matrix reference drops its diagonal; the sparse entry point
  // takes only the off-diagonal pairs and sends the same six messages.
  const auto c = default_comm(3);
  const std::vector<std::vector<std::int64_t>> bytes{
      {50, 10, 10}, {10, 50, 10}, {10, 10, 50}};
  const std::vector<std::pair<std::int64_t, std::int64_t>> traffic{
      {1, 10}, {2, 10}, {3, 10}, {5, 10}, {6, 10}, {7, 10}};
  const std::vector<support::cycles_t> start(3, 0);
  const auto r = c.alltoallv_sparse(start, traffic);
  EXPECT_EQ(r.messages, 6u);
  const auto ref = net::simulate_alltoallv(c.config().net, c.config().sw,
                                           start, bytes);
  EXPECT_EQ(r.messages, ref.messages);
  EXPECT_EQ(r.finish, ref.finish);
}

TEST(Comm, PointToPointMatchesIsolatedCost) {
  const auto c = default_comm(2);
  const net::MsgCost mc{c.config().net, c.config().sw};
  EXPECT_EQ(c.point_to_point(4096), mc.isolated(4096));
}

TEST(Comm, InvalidRootRejected) {
  const auto c = default_comm(3);
  EXPECT_THROW(
      (void)c.gather(std::vector<support::cycles_t>(3, 0), 7, {1, 1, 1}),
      support::ContractViolation);
}

TEST(Comm, ControlAllgatherIsCheaperThanDataAllgather) {
  // The plan distribution takes the library's fast path: same messages,
  // no marshalling costs.
  const auto c = default_comm(8);
  const std::vector<support::cycles_t> start(8, 0);
  const auto data = c.allgather(start, 256, /*control=*/false);
  const auto control = c.allgather(start, 256, /*control=*/true);
  EXPECT_LT(control.finish, data.finish);
  EXPECT_EQ(control.messages, data.messages);
}

TEST(Comm, SparseAlltoallvMatchesNestedReference) {
  // The memoized sparse entry point must return exactly what the
  // unmemoized nested-matrix simulation gives for the same nonzeros, cold
  // and warm.
  const auto c = default_comm(6);
  const std::size_t p = 6;
  std::vector<std::vector<std::int64_t>> bytes(p, std::vector<std::int64_t>(p));
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i == j || (i + j) % 3 != 0) continue;
      const auto b = static_cast<std::int64_t>(128 + 8 * (i * p + j));
      bytes[i][j] = b;
      traffic.emplace_back(static_cast<std::int64_t>(i * p + j), b);
    }
  }
  std::vector<support::cycles_t> start(p);
  for (std::size_t i = 0; i < p; ++i) {
    start[i] = static_cast<support::cycles_t>((i * 53) % 4) * 250;
  }
  const auto ref = net::simulate_alltoallv(c.config().net, c.config().sw,
                                           start, bytes);
  for (int pass = 0; pass < 2; ++pass) {
    const auto sparse = c.alltoallv_sparse(start, traffic);
    EXPECT_EQ(ref.finish, sparse.finish) << "pass " << pass;
    EXPECT_EQ(ref.messages, sparse.messages);
    EXPECT_EQ(ref.wire_bytes, sparse.wire_bytes);
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(ref.nodes[i].finish, sparse.nodes[i].finish);
    }
  }
  EXPECT_EQ(c.xfer_cache_stats().hits, 1u);
}

TEST(Comm, SparseAlltoallvRejectsMalformedTraffic) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> start(4, 0);
  using Traffic = std::vector<std::pair<std::int64_t, std::int64_t>>;
  // Descending flat index.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{6, 8}, {1, 8}}),
               support::ContractViolation);
  // Diagonal entry (5 = 1*4 + 1).
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{5, 8}}),
               support::ContractViolation);
  // Zero bytes.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{1, 0}}),
               support::ContractViolation);
  // Index out of range.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{16, 8}}),
               support::ContractViolation);
}

TEST(Comm, AllgatherMemoHitsOnRepeatAndRelativePattern) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> flat(4, 0);
  auto s0 = c.plan_cache_stats();
  EXPECT_EQ(s0.hits, 0u);
  EXPECT_EQ(s0.misses, 0u);

  const auto a = c.allgather(flat, 64);
  auto s1 = c.plan_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.installs, 1u);

  // Identical call: pure memo hit, identical result.
  const auto b = c.allgather(flat, 64);
  auto s2 = c.plan_cache_stats();
  EXPECT_EQ(s2.hits, 1u);
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_EQ(a.finish, b.finish);

  // The key is the relative arrival pattern: a uniform shift hits the
  // same entry and the result is re-based, not re-simulated.
  std::vector<support::cycles_t> shifted(4, 1000);
  const auto shifted_result = c.allgather(shifted, 64);
  auto s3 = c.plan_cache_stats();
  EXPECT_EQ(s3.hits, 2u);
  EXPECT_EQ(s3.misses, 1u);
  EXPECT_EQ(shifted_result.finish, a.finish + 1000);

  // Different payload size is a genuinely different plan: miss + install.
  (void)c.allgather(flat, 128);
  auto s4 = c.plan_cache_stats();
  EXPECT_EQ(s4.hits, 2u);
  EXPECT_EQ(s4.misses, 2u);
  EXPECT_EQ(s4.installs, 2u);
}

TEST(Comm, SparseAlltoallvMemoHitsOnRepeatAndRelativePattern) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> start(4, 0);
  using Traffic = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const Traffic traffic{{1, 64}, {4, 64}, {11, 32}};

  // Cold pattern: the borrowed-view probe misses once, then the owning
  // key is built, simulated and installed — one miss per simulation.
  const auto a = c.alltoallv_sparse(start, traffic);
  const auto s1 = c.xfer_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.installs, 1u);

  // Warm repeat: one view-probe hit.
  (void)c.alltoallv_sparse(start, traffic);
  const auto s2 = c.xfer_cache_stats();
  EXPECT_EQ(s2.hits, 1u);
  EXPECT_EQ(s2.misses, 1u);

  // The key is the relative arrival pattern: a uniform shift hits the
  // same entry and the result is re-based, not re-simulated.
  const std::vector<support::cycles_t> shifted(4, 1000);
  const auto b = c.alltoallv_sparse(shifted, traffic);
  const auto s3 = c.xfer_cache_stats();
  EXPECT_EQ(s3.hits, 2u);
  EXPECT_EQ(s3.misses, 1u);
  EXPECT_EQ(s3.installs, 1u);
  EXPECT_EQ(b.finish, a.finish + 1000);

  // A different byte on one pair is a different pattern: new install.
  Traffic other = traffic;
  other[2].second = 48;
  (void)c.alltoallv_sparse(start, other);
  const auto s4 = c.xfer_cache_stats();
  EXPECT_EQ(s4.installs, 2u);
  EXPECT_EQ(s4.misses, 2u);
}

TEST(Comm, BiggerMachineHasCostlierBarrier) {
  EXPECT_GT(default_comm(64).barrier_cost(), default_comm(4).barrier_cost());
}

}  // namespace
}  // namespace qsm::msg

// BoundedMemo: the capacity and counting rules behind Comm's exchange
// memos, checked at small caps. Comm passes its production caps to the
// same template; the hit/miss/clear sequence these tests pin is what keeps
// memoized traces identical to unmemoized ones.
#include "msg/bounded_memo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qsm::msg {
namespace {

using IntMemo = BoundedMemo<std::int64_t, std::int64_t, std::hash<std::int64_t>>;

TEST(BoundedMemo, EntryCapClearsThenInserts) {
  IntMemo memo(/*max_entries=*/2, /*max_words=*/0, /*max_entry_words=*/0);
  ASSERT_TRUE(memo.insert(1, 10));
  ASSERT_TRUE(memo.insert(2, 20));
  ASSERT_NE(memo.find(1), nullptr);
  // A third entry would exceed the cap: the memo clears, then stores it.
  ASSERT_TRUE(memo.insert(3, 30));
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_EQ(memo.find(2), nullptr);
  ASSERT_NE(memo.find(3), nullptr);
  EXPECT_EQ(*memo.find(3), 30);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.stats().clears, 1u);
}

TEST(BoundedMemo, WordCapClears) {
  IntMemo memo(/*max_entries=*/0, /*max_words=*/10, /*max_entry_words=*/0);
  ASSERT_TRUE(memo.insert(1, 10, 4));
  ASSERT_TRUE(memo.insert(2, 20, 6));  // exactly at the cap: still fits
  EXPECT_EQ(memo.words(), 10u);
  EXPECT_EQ(memo.stats().clears, 0u);
  // 10 + 1 > 10: clears, then stores the new entry alone.
  ASSERT_TRUE(memo.insert(3, 30, 1));
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_EQ(memo.find(2), nullptr);
  EXPECT_EQ(*memo.find(3), 30);
  EXPECT_EQ(memo.words(), 1u);
  EXPECT_EQ(memo.stats().clears, 1u);
}

TEST(BoundedMemo, OversizeEntryIsReturnedButNeverStored) {
  IntMemo memo(/*max_entries=*/0, /*max_words=*/100, /*max_entry_words=*/5);
  ASSERT_TRUE(memo.insert(1, 10, 5));
  // Comm's miss path: compute, offer a copy to the memo, return the value.
  const auto lookup_or_compute = [&memo](std::int64_t key,
                                         std::size_t words) {
    if (const auto* hit = memo.find(key)) return *hit;
    const std::int64_t computed = key * 100;
    memo.insert(key, computed, words);
    return computed;
  };
  EXPECT_EQ(lookup_or_compute(2, 6), 200);
  EXPECT_EQ(lookup_or_compute(2, 6), 200);  // recomputed, not memoized
  EXPECT_EQ(memo.find(2), nullptr);
  // The skip clears nothing: the earlier entry survives.
  ASSERT_NE(memo.find(1), nullptr);
  EXPECT_EQ(*memo.find(1), 10);
  EXPECT_EQ(memo.words(), 5u);
  EXPECT_EQ(memo.stats().oversize, 2u);
  EXPECT_EQ(memo.stats().clears, 0u);
}

TEST(BoundedMemo, FirstWriterWins) {
  IntMemo memo(/*max_entries=*/1, /*max_words=*/0, /*max_entry_words=*/0);
  ASSERT_TRUE(memo.insert(1, 10));
  // Already present: kept, and the cap (which a fresh key would overflow)
  // does not clear it.
  EXPECT_FALSE(memo.insert(1, 99));
  EXPECT_EQ(*memo.find(1), 10);
  EXPECT_EQ(memo.stats().installs, 1u);
  EXPECT_EQ(memo.stats().clears, 0u);
}

TEST(BoundedMemo, StatsCountersAreExact) {
  IntMemo memo(/*max_entries=*/3, /*max_words=*/0, /*max_entry_words=*/0);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t installs = 0;
  // A deterministic probe stream over 5 keys against a 3-entry cap: the
  // memo's counters must match a straightforward replay exactly.
  std::vector<std::int64_t> resident;
  std::uint64_t clears = 0;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t key = (i * 7 + i / 3) % 5;
    bool present = false;
    for (const auto k : resident) present = present || k == key;
    if (memo.find(key) != nullptr) {
      ASSERT_TRUE(present);
      ++hits;
      continue;
    }
    ASSERT_FALSE(present);
    ++misses;
    ASSERT_TRUE(memo.insert(key, key));
    ++installs;
    if (resident.size() + 1 > 3) {
      resident.clear();
      ++clears;
    }
    resident.push_back(key);
  }
  const MemoStats& s = memo.stats();
  EXPECT_EQ(s.hits, hits);
  EXPECT_EQ(s.misses, misses);
  EXPECT_EQ(s.installs, installs);
  EXPECT_EQ(s.clears, clears);
  EXPECT_EQ(s.oversize, 0u);
  EXPECT_EQ(s.hits + s.misses, 200u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.clears, 0u);
}

// Borrowed-view probe through a transparent hash/eq, the way Comm's xfer
// memo probes with caller vectors before building an owning key.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

TEST(BoundedMemo, TransparentProbeBuildsNoKey) {
  BoundedMemo<std::string, int, NameHash> memo(0, 0, 0);
  ASSERT_TRUE(memo.insert("alpha", 1));
  const std::string_view probe = "alpha";
  ASSERT_NE(memo.find(probe), nullptr);
  EXPECT_EQ(*memo.find(probe), 1);
  EXPECT_EQ(memo.find(std::string_view("beta")), nullptr);
  EXPECT_EQ(memo.stats().hits, 2u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

}  // namespace
}  // namespace qsm::msg

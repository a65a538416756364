// Bounded memo behind Comm's exchange caches.
//
// A plain hash map owned by one Comm, which is owned by one Runtime and
// probed only from that runtime's phase completion — so there is no
// locking and the counters are exact. Two capacity rules, both optional
// (0 = unbounded): an entry cap and a cap on the sum of caller-declared
// entry weights ("words"). A store that would exceed either clears the
// whole memo first; a full clear (not LRU) keeps hits O(1) and is
// invisible to results, only to speed. Entries heavier than the per-entry
// word cap are never stored, so one huge pattern cannot flush the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

namespace qsm::msg {

/// Memo counters (host diagnostics, never in a trace).
struct MemoStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t installs{0};
  std::uint64_t clears{0};
  std::uint64_t oversize{0};  ///< stores skipped by the per-entry word cap
};

/// `Hash`/`Eq` may be transparent (declare `is_transparent`) so find() can
/// probe with a borrowed view that builds no Key.
template <typename Key, typename Value, typename Hash,
          typename Eq = std::equal_to<>>
class BoundedMemo {
 public:
  BoundedMemo(std::size_t max_entries, std::size_t max_words,
              std::size_t max_entry_words)
      : max_entries_(max_entries),
        max_words_(max_words),
        max_entry_words_(max_entry_words) {}

  /// Counts a hit or a miss. The pointer is valid until the next insert().
  template <typename Probe>
  [[nodiscard]] const Value* find(const Probe& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second;
  }

  /// First writer wins: an existing entry is kept. Returns true if stored.
  /// `words` is the entry's weight against the word caps.
  bool insert(Key key, Value value, std::size_t words = 1) {
    if (max_entry_words_ != 0 && words > max_entry_words_) {
      ++stats_.oversize;
      return false;
    }
    const bool overflow =
        (max_entries_ != 0 && map_.size() + 1 > max_entries_) ||
        (max_words_ != 0 && words_ + words > max_words_);
    if (overflow && !map_.contains(key)) {
      map_.clear();
      words_ = 0;
      ++stats_.clears;
    }
    if (!map_.try_emplace(std::move(key), std::move(value)).second) {
      return false;
    }
    words_ += words;
    ++stats_.installs;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] const MemoStats& stats() const { return stats_; }

 private:
  std::size_t max_entries_;
  std::size_t max_words_;
  std::size_t max_entry_words_;
  std::unordered_map<Key, Value, Hash, Eq> map_;
  std::size_t words_{0};
  MemoStats stats_;
};

}  // namespace qsm::msg

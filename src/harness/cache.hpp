// Content-addressed result cache for the experiment scheduler.
//
// One durable segment store per workload under the cache directory
// (outputs/.cache/<workload>.qstore by default — a directory of
// checksummed segment files, see support/durable/segment_store.hpp).
// Each record maps the canonical key text to the serialized result.
// Lookups compare the full key text, not just a hash, so collisions are
// impossible. Serialization round-trips doubles bit-exactly (%.17g),
// which is what lets a warm run regenerate byte-identical tables without
// executing a single simulation.
//
// Robustness contract: every record is framed with a CRC32C and appended
// with a single write(); the store's typestate pipeline
// (Pending -> Written -> Synced -> Indexed) makes the in-memory index
// structurally unable to get ahead of durable state — a record enters
// the index only after it is written *and* synced per the configured
// SyncPolicy, so a crash at any instant recovers every record the index
// ever exposed. Reload classifies damage: torn_tail() is the benign crash
// artifact at the end of the log, corrupt_lines() counts mid-log
// corruption events (both just recompute the points). Failure rows
// (PointResult::status set) are cached like results; storing a fresh
// result for a key whose cached entry is a failure row appends a
// superseding record (last record wins on reload).
//
// Concurrency contract: one actor at a time. The index is a plain map
// with no locking. SweepRunner calls lookup() on its submitting thread
// before any point computes, and every store_one() from its worker pool
// runs under the runner's own drain mutex (SweepRunner::run_all's
// drain_m), which serialises the stores. Any other caller must provide
// the same exclusion.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/point.hpp"
#include "support/durable/segment_store.hpp"
#include "support/json.hpp"

namespace qsm::harness {

class ResultCache {
 public:
  /// `dir` need not exist yet; it is created on the first store().
  /// `store_opts` tunes the durable store, most notably the sync policy
  /// (--cache-sync).
  ResultCache(std::string dir, std::string workload,
              support::durable::StoreOptions store_opts = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Loads the store on first use, then looks `key` up. Returns nullptr
  /// on a miss. The pointer stays valid until the next store().
  [[nodiscard]] const PointResult* lookup(const PointKey& key);

  /// Appends `batch` to the store and the in-memory index, skipping keys
  /// already present (unless the present entry is a failure row — those
  /// are superseded).
  void store(const std::vector<std::pair<PointKey, PointResult>>& batch);

  /// Appends one record: what the scheduler calls as each point completes,
  /// so a killed sweep keeps everything finished before the kill.
  void store_one(const PointKey& key, const PointResult& result);

  /// The segment-store directory for this workload (<dir>/<stem>.qstore).
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Entries usable after load (diagnostics).
  [[nodiscard]] std::size_t loaded_entries();
  /// True when the log ended in an unterminated record — the signature of
  /// a process killed mid-append (or a truncated copy).
  [[nodiscard]] bool torn_tail();
  /// Mid-log corruption events survived on load (these suggest real
  /// damage, unlike a torn tail).
  [[nodiscard]] std::size_t corrupt_lines();

  /// The durable store under the index (bench/introspection access).
  [[nodiscard]] support::durable::SegmentStore& durable_store() {
    return store_;
  }

  /// JSON object text for one result (stable field order).
  [[nodiscard]] static std::string serialize(const PointResult& r);
  /// Inverse of serialize(); nullopt when the value is malformed.
  [[nodiscard]] static std::optional<PointResult> deserialize(
      const support::JsonValue& v);

 private:
  void load();
  void append_record(const PointKey& key, const PointResult& result);

  std::string path_;  ///< segment-store directory
  support::durable::SegmentStore store_;
  bool loaded_{false};
  bool torn_tail_{false};
  std::size_t corrupt_lines_{0};
  std::unordered_map<std::string, PointResult> index_;
};

/// Maps a workload id to a safe file stem ([A-Za-z0-9_-], others -> '_').
[[nodiscard]] std::string cache_file_stem(std::string_view workload);

}  // namespace qsm::harness

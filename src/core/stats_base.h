#ifndef DEX_CORE_STATS_BASE_H_
#define DEX_CORE_STATS_BASE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dex {

/// \brief What a run of admission windows did. The stage-1 scan
/// (Stage1Stats) and stage-2 ingestion (TwoStageStats) admit their per-file
/// work in the same windows — all at once, or one file per window when
/// governed — and price them the same way.
struct AdmissionStats {
  size_t workers = 1;     // resolved worker-lane count (1 when governed)
  size_t num_shards = 1;  // effective shard count (1 = unsharded)
  /// Simulated stall time summed over tasks and links, and the windows'
  /// critical paths (longest lane under deterministic list scheduling, or
  /// slowest shard): the simulated speedup is serial / parallel.
  uint64_t serial_sim_nanos = 0;
  uint64_t parallel_sim_nanos = 0;
  uint64_t net_sim_nanos = 0;  // interconnect time charged (0 unsharded)
  bool is_partial = false;     // a deadline, budget or dead shard left work
  size_t files_skipped_deadline = 0;  // admission refused: deadline passed
  size_t files_skipped_shard = 0;     // owned by a dead shard
};

/// \brief Degradation notices, bounded: the first kMaxWarnings are kept in
/// order and the rest only counted — the one bound for mount outcomes,
/// stage-1 scans, Open, Refresh and queries.
struct Warnings {
  static constexpr size_t kMaxWarnings = 32;

  std::vector<std::string> warnings;
  uint64_t warnings_dropped = 0;

  void AddWarning(std::string msg) {
    if (warnings.size() < kMaxWarnings) {
      warnings.push_back(std::move(msg));
    } else {
      ++warnings_dropped;
    }
  }

  /// Appends `o`'s kept warnings in order and counts its dropped ones.
  void MergeWarnings(const Warnings& o) {
    warnings_dropped += o.warnings_dropped;
    for (const std::string& w : o.warnings) AddWarning(w);
  }

  uint64_t warnings_raised() const { return warnings.size() + warnings_dropped; }

  /// `<indent>warning: ...` per kept warning, then the `(N more warnings
  /// dropped)` notice when any were.
  std::string RenderWarnings(const std::string& indent) const {
    std::string out;
    for (const std::string& w : warnings) out += indent + "warning: " + w + "\n";
    if (warnings_dropped > 0) {
      out += indent + "warning: (" + std::to_string(warnings_dropped) +
             " more warnings dropped)\n";
    }
    return out;
  }
};

}  // namespace dex

#endif  // DEX_CORE_STATS_BASE_H_

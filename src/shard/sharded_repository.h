#ifndef DEX_SHARD_SHARDED_REPOSITORY_H_
#define DEX_SHARD_SHARDED_REPOSITORY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stat_fields.h"
#include "common/status.h"
#include "io/sim_disk.h"
#include "net/sim_network.h"

namespace dex {

/// \brief Partitions the file catalog across N virtual shards and owns the
/// simulated interconnect between the coordinator and those shards.
///
/// Each shard models one storage node: it owns a disjoint slice of the
/// repository's files and is reached over its own SimNetwork link. The
/// partition is a pure function of the file set and the policy — never of
/// thread timing — so every query, at every worker count, sees the same
/// file→shard map:
///
///  - kHash: shard = FNV-1a(uri) mod n. Stateless and stable under catalog
///    growth (a new file lands on its hash shard without moving others).
///  - kStationRange: distinct station keys (the parent directory of
///    `root/<station>/NET.STA.CHA.day.mseed`) are sorted and chunked into n
///    contiguous ranges, so one station's files — the unit most queries
///    filter on — co-locate on one shard. Files with no station directory
///    fall back to the hash policy.
///
/// The station table is (re)built by AssignCatalog, which the stage-1 scan
/// calls right after enumeration — both at Open and on every Refresh — so
/// the map is in sync with the catalog slice an epoch publishes.
///
/// Queries may re-partition on the fly: ShardOf(uri, n) answers for any
/// n ≤ the configured shard count (QueryOptions::num_shards), reusing the
/// same station table. Killing a shard fails its link; planning then routes
/// that shard's files to the partial-results path (files_skipped_shard)
/// instead of letting every transfer fail mid-flight.
class ShardedRepository {
 public:
  enum class Policy {
    kHash,
    kStationRange,
  };

  struct Options {
    /// Number of virtual shards the catalog is partitioned into (≥ 1).
    /// 1 means "unsharded": everything on one node, no network charges.
    int num_shards = 1;
    Policy policy = Policy::kHash;
    /// Interconnect model shared by all shard links (per-shard fault
    /// streams are derived inside SimNetwork from net.fault_seed).
    SimNetwork::Options net;
  };

  /// One row of `.shards` / shard observability: the shard's slice of the
  /// catalog plus what its link has charged so far.
  struct SliceStats {
    int shard = 0;
    size_t files = 0;       // catalog files owned under the configured count
    bool alive = true;
    uint64_t net_messages = 0;
    uint64_t net_bytes = 0;
    uint64_t net_sim_nanos = 0;
    uint64_t net_resends = 0;

    /// The link counters with their per-shard metric names, published
    /// labeled {shard=N} (common/stat_fields.h).
    static constexpr auto Fields() {
      using S = SliceStats;
      return std::tuple{StatField{"shard.net_messages", &S::net_messages},
                        StatField{"shard.net_bytes", &S::net_bytes},
                        StatField{"shard.net_sim_nanos", &S::net_sim_nanos},
                        StatField{"shard.net_resends", &S::net_resends}};
    }
    /// The same counters summed over every shard, published unlabeled.
    static constexpr auto TotalFields() {
      using S = SliceStats;
      return std::tuple{
          StatField{"shard.net_messages_total", &S::net_messages},
          StatField{"shard.net_bytes_total", &S::net_bytes},
          StatField{"shard.net_sim_nanos_total", &S::net_sim_nanos},
          StatField{"shard.net_resends_total", &S::net_resends}};
    }
  };

  /// `disk` is the simulated clock the interconnect charges into; must
  /// outlive the repository. One link per configured shard is registered
  /// up front ("shard-0" … "shard-N-1").
  ShardedRepository(SimDisk* disk, const Options& options);

  ShardedRepository(const ShardedRepository&) = delete;
  ShardedRepository& operator=(const ShardedRepository&) = delete;

  int num_shards() const { return options_.num_shards; }
  const Options& options() const { return options_; }
  SimNetwork* network() { return network_.get(); }

  /// True when sharding is actually in play (N > 1). With one shard the
  /// executors keep their classic single-node cost model.
  bool enabled() const { return options_.num_shards > 1; }

  /// Clamps a per-query shard-count request into [1, num_shards]; 0 (the
  /// QueryOptions default) means "use the configured count".
  int ClampShardCount(int requested) const;

  /// Rebuilds the partition tables from the enumerated catalog. Called by
  /// the stage-1 scan after EnumerateFiles, before any assignment is read,
  /// so Open/Refresh and the queries they publish to agree on the map.
  void AssignCatalog(const std::vector<std::string>& uris);

  /// Shard owning `uri` under the configured shard count.
  int ShardOf(const std::string& uri) const;
  /// Shard owning `uri` if the catalog were split into `n` shards
  /// (per-query re-partition; `n` must already be clamped).
  int ShardOf(const std::string& uri, int n) const;

  /// The network link a shard is reached over (link ids are registered in
  /// shard order, so this is the identity map — kept explicit so callers
  /// never bake that assumption in).
  SimNetwork::LinkId LinkOf(int shard) const;

  /// Dead-shard controls: a killed shard's link refuses every transfer and
  /// planning skips its files (deterministic partial results).
  Status KillShard(int shard);
  Status HealShard(int shard);
  bool IsShardAlive(int shard) const;
  bool HasDeadShards() const;

  /// One row per configured shard, for `.shards` and metrics publication.
  std::vector<SliceStats> StatusRows() const;

  /// One file of a scatter/gather wave: the shard that owns it, the
  /// simulated disk time that shard spent on it, and the response it ships
  /// back to the coordinator (none when `ships` is false, e.g. a header
  /// that did not parse).
  struct GatherItem {
    int shard = 0;
    uint64_t disk_nanos = 0;
    bool ships = true;
    uint64_t response_bytes = 0;
  };

  /// One shard's slice of a scatter/gather wave: its files, its disk time
  /// and what its link cost.
  struct ShardCost {
    int shard = 0;
    size_t files = 0;
    uint64_t disk_sim_nanos = 0;
    uint64_t net_sim_nanos = 0;
    uint64_t net_messages = 0;  // the request + one per shipped response
  };

  /// What a scatter/gather wave cost, per shard with work and in total.
  struct GatherCost {
    std::vector<ShardCost> shards;  // ascending shard id
    std::vector<Status> failures;   // per item: its failed response, else OK
    uint64_t serial_nanos = 0;      // Σ over shards of disk + net
    uint64_t net_nanos = 0;         // Σ over shards of net
    uint64_t critical_path_nanos = 0;  // the slowest shard's disk + net
  };

  /// The one scatter/gather cost model, shared by the stage-1 scan and the
  /// stage-2 mount wave. Each shard is a storage node with one serial disk
  /// behind its own link. Every shard with work gets one request; then each
  /// shipped item's response crosses its shard's link, in shard-then-item
  /// order, so the k-th transfer on a link is the same transfer in every
  /// run and the seeded per-link fault streams replay bit-identically. The
  /// transfers are bucketed per shard, never charged to the clock here: the
  /// caller charges the returned total its own way. Call on the coordinator
  /// thread, after the wave's disk work is done.
  GatherCost ScatterGather(const std::vector<GatherItem>& items);

  /// The station key used by kStationRange: the parent-directory name of
  /// `uri`, or "" when the uri has no directory component.
  static std::string StationKeyOf(const std::string& uri);

 private:
  int ShardOfLocked(const std::string& uri, int n) const;

  const Options options_;
  std::unique_ptr<SimNetwork> network_;
  mutable std::mutex mu_;
  std::vector<std::string> stations_;   // sorted distinct station keys
  std::vector<size_t> file_counts_;     // per shard, configured count
};

}  // namespace dex

#endif  // DEX_SHARD_SHARDED_REPOSITORY_H_

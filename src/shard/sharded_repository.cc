#include "shard/sharded_repository.h"

#include <algorithm>
#include <set>

#include "common/fnv.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace dex {

ShardedRepository::ShardedRepository(SimDisk* disk, const Options& options)
    : options_([&] {
        Options o = options;
        o.num_shards = std::max(1, o.num_shards);
        return o;
      }()) {
  network_ = std::make_unique<SimNetwork>(disk, options_.net);
  for (int s = 0; s < options_.num_shards; ++s) {
    network_->AddLink("shard-" + std::to_string(s));
  }
  file_counts_.assign(static_cast<size_t>(options_.num_shards), 0);
}

int ShardedRepository::ClampShardCount(int requested) const {
  if (requested <= 0) return options_.num_shards;
  return std::min(requested, options_.num_shards);
}

std::string ShardedRepository::StationKeyOf(const std::string& uri) {
  const size_t file_sep = uri.find_last_of('/');
  if (file_sep == std::string::npos || file_sep == 0) return "";
  const size_t dir_sep = uri.find_last_of('/', file_sep - 1);
  const size_t begin = (dir_sep == std::string::npos) ? 0 : dir_sep + 1;
  return uri.substr(begin, file_sep - begin);
}

void ShardedRepository::AssignCatalog(const std::vector<std::string>& uris) {
  // Sorted-set rebuild keeps the station→range map a pure function of the
  // catalog contents, independent of enumeration order.
  std::set<std::string> stations;
  for (const std::string& uri : uris) {
    std::string key = StationKeyOf(uri);
    if (!key.empty()) stations.insert(std::move(key));
  }
  std::lock_guard<std::mutex> lock(mu_);
  stations_.assign(stations.begin(), stations.end());
  file_counts_.assign(static_cast<size_t>(options_.num_shards), 0);
  for (const std::string& uri : uris) {
    ++file_counts_[static_cast<size_t>(
        ShardOfLocked(uri, options_.num_shards))];
  }
}

int ShardedRepository::ShardOf(const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ShardOfLocked(uri, options_.num_shards);
}

int ShardedRepository::ShardOf(const std::string& uri, int n) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ShardOfLocked(uri, n);
}

int ShardedRepository::ShardOfLocked(const std::string& uri, int n) const {
  if (n <= 1) return 0;
  const uint64_t un = static_cast<uint64_t>(n);
  if (options_.policy == Policy::kStationRange && !stations_.empty()) {
    const std::string key = StationKeyOf(uri);
    if (!key.empty()) {
      auto it = std::lower_bound(stations_.begin(), stations_.end(), key);
      if (it != stations_.end() && *it == key) {
        const uint64_t idx =
            static_cast<uint64_t>(it - stations_.begin());
        // Contiguous chunks of the sorted station list: station idx of S
        // stations lands on shard floor(idx * n / S).
        return static_cast<int>(idx * un / stations_.size());
      }
    }
    // No station directory (or a station unseen by AssignCatalog): fall
    // through to the stateless hash so the file still has a stable owner.
  }
  return static_cast<int>(Fnv1aString(uri) % un);
}

SimNetwork::LinkId ShardedRepository::LinkOf(int shard) const {
  return static_cast<SimNetwork::LinkId>(shard);
}

Status ShardedRepository::KillShard(int shard) {
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument("no such shard " + std::to_string(shard));
  }
  const Status st = network_->FailLink(LinkOf(shard));
  if (st.ok()) {
    obs::FlightEvent e;
    e.kind = "shard_kill";
    e.shard = shard;
    e.detail = "link shard-" + std::to_string(shard) + " failed";
    obs::FlightRecorder::Global().Record(std::move(e));
  }
  return st;
}

Status ShardedRepository::HealShard(int shard) {
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument("no such shard " + std::to_string(shard));
  }
  const Status st = network_->HealLink(LinkOf(shard));
  if (st.ok()) {
    obs::FlightEvent e;
    e.kind = "shard_heal";
    e.shard = shard;
    e.detail = "link shard-" + std::to_string(shard) + " healed";
    obs::FlightRecorder::Global().Record(std::move(e));
  }
  return st;
}

bool ShardedRepository::IsShardAlive(int shard) const {
  if (shard < 0 || shard >= options_.num_shards) return false;
  return !network_->IsFailed(LinkOf(shard));
}

bool ShardedRepository::HasDeadShards() const {
  for (int s = 0; s < options_.num_shards; ++s) {
    if (!IsShardAlive(s)) return true;
  }
  return false;
}

std::vector<ShardedRepository::SliceStats> ShardedRepository::StatusRows()
    const {
  std::vector<SliceStats> rows;
  rows.reserve(static_cast<size_t>(options_.num_shards));
  std::vector<size_t> counts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counts = file_counts_;
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    SliceStats row;
    row.shard = s;
    row.files = counts[static_cast<size_t>(s)];
    Result<SimNetwork::LinkStats> link = network_->link_stats(LinkOf(s));
    if (link.ok()) {
      row.alive = !link->failed;
      row.net_messages = link->messages;
      row.net_bytes = link->bytes;
      row.net_sim_nanos = link->sim_nanos;
      row.net_resends = link->resends;
    }
    rows.push_back(row);
  }
  return rows;
}

ShardedRepository::GatherCost ShardedRepository::ScatterGather(
    const std::vector<GatherItem>& items) {
  // Payload of one scatter request ("do these files"). Small and fixed: the
  // request is dominated by the link latency, not its bytes.
  constexpr uint64_t kRequestBytes = 256;
  GatherCost cost;
  cost.failures.assign(items.size(), Status::OK());
  for (int s = 0; s < options_.num_shards; ++s) {
    ShardCost row;
    row.shard = s;
    for (const GatherItem& item : items) {
      if (item.shard != s) continue;
      ++row.files;
      row.disk_sim_nanos += item.disk_nanos;
    }
    if (row.files == 0) continue;
    {
      SimDisk::TaskTimeScope scope(&row.net_sim_nanos);
      (void)network_->Transfer(LinkOf(s), kRequestBytes);
      ++row.net_messages;
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].shard != s || !items[i].ships) continue;
        Result<uint64_t> resp =
            network_->Transfer(LinkOf(s), items[i].response_bytes);
        ++row.net_messages;
        if (!resp.ok()) cost.failures[i] = resp.status();
      }
    }
    const uint64_t shard_nanos = row.disk_sim_nanos + row.net_sim_nanos;
    cost.serial_nanos += shard_nanos;
    cost.net_nanos += row.net_sim_nanos;
    cost.critical_path_nanos = std::max(cost.critical_path_nanos, shard_nanos);
    obs::Tracer::Instant("shard_gather", "shard",
                         {{"shard", std::to_string(s)},
                          {"files", std::to_string(row.files)},
                          {"disk_nanos", std::to_string(row.disk_sim_nanos)},
                          {"net_nanos", std::to_string(row.net_sim_nanos)}});
    cost.shards.push_back(row);
  }
  return cost;
}

}  // namespace dex

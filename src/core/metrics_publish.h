#ifndef DEX_CORE_METRICS_PUBLISH_H_
#define DEX_CORE_METRICS_PUBLISH_H_

#include "core/cache_manager.h"
#include "core/database.h"
#include "io/io_stats.h"
#include "obs/metrics.h"

namespace dex {

/// Publishers folding the system's stat structs into the global
/// obs::MetricsRegistry under stable dot-separated names: each walks its
/// struct's `Fields()` list (common/stat_fields.h), which names every
/// counter once. One-way: metrics are observability output only and never
/// feed back into execution.

/// Per-query counters/histograms (`query.*`, `stage.*`, `mount.*`,
/// `fault.*`, `exec.*`). Called once per completed query. When `labels` is
/// non-empty the headline series (`query.count`, `query.result_rows`,
/// `query.total_seconds`) are additionally published per label-set —
/// {session, priority, query} from QueryOptions — with the base series
/// still carrying the totals.
void PublishQueryMetrics(const QueryStats& stats,
                         const obs::MetricLabels& labels = {});

/// Open()-time gauges (`open.*`). Called once after Database::Open.
void PublishOpenMetrics(const OpenStats& stats);

/// Per-refresh counters (`refresh.*`, plus the `governance.*` counters a
/// deadline-bounded refresh shares with governed queries). Called once per
/// completed Database::Refresh.
void PublishRefreshMetrics(const RefreshStats& stats);

/// Cumulative simulated-disk gauges (`io.*`) — last write wins, so publish
/// with the disk's current totals.
void PublishIoMetrics(const IoStats& io);

/// Cumulative cache gauges (`cache.*`).
void PublishCacheMetrics(const CacheStats& cache);

/// Cumulative durable-tier gauges (`cache.disk.*`): persist/load traffic and
/// the recovery ladder's verdicts (recovered / quarantined / stale).
void PublishPersistentCacheMetrics(const PersistentCache::Stats& stats);

/// Cumulative shard gauges (`shard.*`) from the repository's per-shard
/// status rows: totals under `shard.net_*_total` plus per-shard labeled
/// gauges (`shard.net_messages{shard=N}`, ...). Called after
/// queries/refreshes on a sharded database.
void PublishShardMetrics(
    const std::vector<ShardedRepository::SliceStats>& rows);

}  // namespace dex

#endif  // DEX_CORE_METRICS_PUBLISH_H_

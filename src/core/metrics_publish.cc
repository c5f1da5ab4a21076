#include "core/metrics_publish.h"

#include "obs/metrics.h"

namespace dex {

using obs::MetricsRegistry;

namespace {

/// Adds every named counter of `stats` in `fields` to its metric.
template <typename S, typename Fields>
void AddCounters(MetricsRegistry& m, const S& stats, const Fields& fields) {
  ForEachStatField(fields, [&](const auto& f) {
    if (f.name != nullptr) {
      m.AddCounter(f.name, static_cast<uint64_t>(stats.*f.member));
    }
  });
}

/// Sets every field of `stats` in `fields` as a gauge, labeled with
/// `labels` (the plain series when they are empty).
template <typename S, typename Fields>
void SetGauges(MetricsRegistry& m, const S& stats, const Fields& fields,
               const obs::MetricLabels& labels = {}) {
  ForEachStatField(fields, [&](const auto& f) {
    m.SetGauge(f.name, labels, static_cast<double>(stats.*f.member));
  });
}

}  // namespace

void PublishQueryMetrics(const QueryStats& stats,
                         const obs::MetricLabels& labels) {
  MetricsRegistry& m = MetricsRegistry::Global();
  // Labeled updates land in both the labeled series and the base series, so
  // the base names stay the grand totals (empty labels: the base only).
  m.AddCounter("query.count", labels, 1);
  m.AddCounter("query.result_rows", labels, stats.result_rows);
  m.Observe("query.total_seconds", labels, stats.TotalSeconds());
  const TwoStageStats& ts = stats.two_stage;
  AddCounters(m, stats, QueryStats::Fields());
  AddCounters(m, ts, TwoStageStats::Fields());
  AddCounters(m, ts.mount.counters, Mounter::MountCounters::Fields());
  AddCounters(m, ts.exec, ExecStats::Fields());
  m.AddCounter("fault.warnings", stats.warnings_raised());

  // Events, the series only sharded queries publish, the budget's
  // high-water mark and the files-of-interest histogram.
  if (ts.split) m.AddCounter("stage.split_queries", 1);
  if (ts.stage1_only) m.AddCounter("stage.stage1_only_queries", 1);
  if (ts.files_of_interest > 0) {
    m.Observe("stage.files_of_interest_per_query",
              static_cast<double>(ts.files_of_interest));
  }
  if (ts.num_shards > 1) {
    m.AddCounter("shard.sharded_queries", 1);
    m.AddCounter("shard.net_sim_nanos", ts.net_sim_nanos);
  }
  if (ts.is_partial) m.AddCounter("governance.partial_queries", 1);
  m.SetGauge("governance.mem_reserved_peak_bytes",
             static_cast<double>(ts.mem_reserved_peak));
}

void PublishOpenMetrics(const OpenStats& stats) {
  SetGauges(MetricsRegistry::Global(), stats, OpenStats::Fields());
}

void PublishRefreshMetrics(const RefreshStats& stats) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.AddCounter("refresh.count", 1);
  AddCounters(m, stats, RefreshStats::Fields());
  if (stats.is_partial) m.AddCounter("governance.partial_refreshes", 1);
  if (stats.num_shards > 1) {
    m.AddCounter("refresh.net_sim_nanos", stats.net_sim_nanos);
  }
}

void PublishIoMetrics(const IoStats& io) {
  SetGauges(MetricsRegistry::Global(), io, IoStats::Fields());
}

void PublishCacheMetrics(const CacheStats& cache) {
  SetGauges(MetricsRegistry::Global(), cache, CacheStats::Fields());
}

void PublishPersistentCacheMetrics(const PersistentCache::Stats& stats) {
  SetGauges(MetricsRegistry::Global(), stats, PersistentCache::Stats::Fields());
}

void PublishShardMetrics(
    const std::vector<ShardedRepository::SliceStats>& rows) {
  using SliceStats = ShardedRepository::SliceStats;
  MetricsRegistry& m = MetricsRegistry::Global();
  size_t dead = 0;
  SliceStats total;
  for (const SliceStats& r : rows) {
    if (!r.alive) ++dead;
    obs::MetricLabels labels;
    labels.shard = r.shard;
    SetGauges(m, r, SliceStats::Fields(), labels);
    m.SetGauge("shard.alive", labels, r.alive ? 1.0 : 0.0);
    ForEachStatField(SliceStats::Fields(), [&](const auto& f) {
      total.*f.member += r.*f.member;
    });
  }
  m.SetGauge("shard.count", static_cast<double>(rows.size()));
  m.SetGauge("shard.dead", static_cast<double>(dead));
  SetGauges(m, total, SliceStats::TotalFields());
}

}  // namespace dex

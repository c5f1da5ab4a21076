#include "core/metrics_publish.h"

#include "obs/metrics.h"

namespace dex {

using obs::MetricsRegistry;

void PublishQueryMetrics(const QueryStats& stats,
                         const obs::MetricLabels& labels) {
  MetricsRegistry& m = MetricsRegistry::Global();
  if (labels.empty()) {
    m.AddCounter("query.count", 1);
    m.AddCounter("query.result_rows", stats.result_rows);
    m.Observe("query.total_seconds", stats.TotalSeconds());
  } else {
    // Labeled updates land in both the labeled series and the base series,
    // so the base names above stay the grand totals either way.
    m.AddCounter("query.count", labels, 1);
    m.AddCounter("query.result_rows", labels, stats.result_rows);
    m.Observe("query.total_seconds", labels, stats.TotalSeconds());
  }
  m.AddCounter("query.plan_nanos", stats.plan_nanos);
  m.AddCounter("query.exec_nanos", stats.exec_nanos);
  m.AddCounter("query.sim_io_nanos", stats.sim_io_nanos);

  const TwoStageStats& ts = stats.two_stage;
  if (ts.split) m.AddCounter("stage.split_queries", 1);
  if (ts.stage1_only) m.AddCounter("stage.stage1_only_queries", 1);
  m.AddCounter("stage.stage1_nanos", ts.stage1_nanos);
  m.AddCounter("stage.rewrite_nanos", ts.rewrite_nanos);
  m.AddCounter("stage.stage2_nanos", ts.stage2_nanos);
  m.AddCounter("stage.files_of_interest", ts.files_of_interest);
  m.AddCounter("stage.files_planned_mount", ts.files_planned_mount);
  m.AddCounter("stage.files_planned_cache", ts.files_planned_cache);
  m.AddCounter("stage.files_pruned", ts.files_pruned);
  m.AddCounter("stage.files_quarantined", ts.files_quarantined);
  m.AddCounter("stage.mount_tasks", ts.mount_tasks);
  m.AddCounter("stage.parallel_sim_nanos", ts.parallel_sim_nanos);
  m.AddCounter("stage.serial_sim_nanos", ts.serial_sim_nanos);
  if (ts.files_of_interest > 0) {
    m.Observe("stage.files_of_interest_per_query",
              static_cast<double>(ts.files_of_interest));
  }

  // Sharded execution: per-query scatter/gather accounting.
  if (ts.num_shards > 1) {
    m.AddCounter("shard.sharded_queries", 1);
    m.AddCounter("shard.net_sim_nanos", ts.net_sim_nanos);
  }
  m.AddCounter("shard.files_skipped_shard", ts.files_skipped_shard);

  // Resource governance: how often queries degrade, and why.
  if (ts.is_partial) m.AddCounter("governance.partial_queries", 1);
  m.AddCounter("governance.files_skipped_deadline", ts.files_skipped_deadline);
  m.AddCounter("governance.files_skipped_memory", ts.files_skipped_memory);
  m.AddCounter("governance.mem_budget_evictions", ts.mem_budget_evictions);
  m.SetGauge("governance.mem_reserved_peak_bytes",
             static_cast<double>(ts.mem_reserved_peak));

  const Mounter::MountCounters& mc = stats.mount;
  m.AddCounter("mount.mounts", mc.mounts);
  m.AddCounter("mount.records_decoded", mc.records_decoded);
  m.AddCounter("mount.samples_decoded", mc.samples_decoded);
  m.AddCounter("mount.bytes_read", mc.bytes_read);
  m.AddCounter("fault.read_retries", mc.read_retries);
  m.AddCounter("fault.files_failed", mc.files_failed);
  m.AddCounter("fault.files_skipped", mc.files_skipped);
  m.AddCounter("fault.records_salvaged", mc.records_salvaged);
  m.AddCounter("fault.records_skipped", mc.records_skipped);
  m.AddCounter("fault.warnings", stats.warnings.size());

  // Zone-map pruning: decode work avoided (CPU only — the mount still
  // charges the whole-file simulated read) and safety-net fallbacks.
  m.AddCounter("zonemap.records_skipped", mc.records_skipped_zonemap);
  m.AddCounter("zonemap.frames_skipped", mc.frames_skipped_zonemap);
  m.AddCounter("zonemap.frames_decoded", mc.frames_decoded_zonemap);
  m.AddCounter("zonemap.fallbacks", mc.zonemap_fallbacks);

  const ExecStats& ex = ts.exec;
  m.AddCounter("exec.rows_scanned", ex.rows_scanned);
  m.AddCounter("exec.rows_output", ex.rows_output);
  m.AddCounter("exec.files_mounted", ex.files_mounted);
  m.AddCounter("exec.mounted_rows", ex.mounted_rows);
  m.AddCounter("exec.cache_scans", ex.cache_scans);
  m.AddCounter("exec.index_probes", ex.index_probes);

  // Vectorized-kernel coverage: batches on the branchless SIMD path vs.
  // scalar-interpreter fallbacks, and boundary compactions.
  m.AddCounter("kernel.filter_batches", ex.kernel_filter_batches);
  m.AddCounter("kernel.filter_scalar_batches", ex.scalar_filter_batches);
  m.AddCounter("kernel.join_batches", ex.kernel_join_batches);
  m.AddCounter("kernel.join_scalar_batches", ex.scalar_join_batches);
  m.AddCounter("kernel.agg_batches", ex.kernel_agg_batches);
  m.AddCounter("kernel.agg_scalar_batches", ex.scalar_agg_batches);
  m.AddCounter("kernel.selection_compactions", ex.selection_compactions);
  m.AddCounter("kernel.range_skipped_rows", ex.range_skipped_rows);
}

void PublishOpenMetrics(const OpenStats& stats) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.SetGauge("open.metadata_scan_nanos",
             static_cast<double>(stats.metadata_scan_nanos));
  m.SetGauge("open.load_nanos", static_cast<double>(stats.load_nanos));
  m.SetGauge("open.index_nanos", static_cast<double>(stats.index_nanos));
  m.SetGauge("open.sim_io_nanos", static_cast<double>(stats.sim_io_nanos));
  m.SetGauge("open.repo_bytes", static_cast<double>(stats.repo_bytes));
  m.SetGauge("open.metadata_bytes", static_cast<double>(stats.metadata_bytes));
  m.SetGauge("open.num_files", static_cast<double>(stats.num_files));
  m.SetGauge("open.num_records", static_cast<double>(stats.num_records));
  m.SetGauge("open.snapshot_files_reused",
             static_cast<double>(stats.snapshot_files_reused));
  m.SetGauge("open.scan_workers", static_cast<double>(stats.scan_workers));
  m.SetGauge("open.scan_serial_sim_nanos",
             static_cast<double>(stats.scan_serial_sim_nanos));
  m.SetGauge("open.scan_parallel_sim_nanos",
             static_cast<double>(stats.scan_parallel_sim_nanos));
  m.SetGauge("open.num_shards", static_cast<double>(stats.num_shards));
  m.SetGauge("open.scan_net_sim_nanos",
             static_cast<double>(stats.scan_net_sim_nanos));
}

void PublishRefreshMetrics(const RefreshStats& stats) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.AddCounter("refresh.count", 1);
  m.AddCounter("refresh.files_added", stats.files_added);
  m.AddCounter("refresh.files_changed", stats.files_changed);
  m.AddCounter("refresh.files_removed", stats.files_removed);
  m.AddCounter("refresh.files_scanned", stats.files_scanned);
  m.AddCounter("refresh.files_reused", stats.files_reused);
  m.AddCounter("refresh.files_quarantined", stats.files_quarantined);
  m.AddCounter("refresh.read_retries", stats.read_retries);
  m.AddCounter("refresh.scan_nanos", stats.scan_nanos);
  m.AddCounter("refresh.sim_io_nanos", stats.sim_io_nanos);
  m.AddCounter("refresh.serial_sim_nanos", stats.serial_sim_nanos);
  m.AddCounter("refresh.parallel_sim_nanos", stats.parallel_sim_nanos);
  if (stats.is_partial) m.AddCounter("governance.partial_refreshes", 1);
  m.AddCounter("governance.files_skipped_deadline",
               stats.files_skipped_deadline);
  if (stats.num_shards > 1) {
    m.AddCounter("refresh.net_sim_nanos", stats.net_sim_nanos);
  }
  m.AddCounter("shard.files_skipped_shard", stats.files_skipped_shard);
}

void PublishIoMetrics(const IoStats& io) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.SetGauge("io.disk_bytes_read", static_cast<double>(io.disk_bytes_read));
  m.SetGauge("io.cached_bytes_read", static_cast<double>(io.cached_bytes_read));
  m.SetGauge("io.bytes_written", static_cast<double>(io.bytes_written));
  m.SetGauge("io.seeks", static_cast<double>(io.seeks));
  m.SetGauge("io.sim_nanos", static_cast<double>(io.sim_nanos));
  m.SetGauge("io.read_faults", static_cast<double>(io.read_faults));
}

void PublishCacheMetrics(const CacheStats& cache) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.SetGauge("cache.hits", static_cast<double>(cache.hits));
  m.SetGauge("cache.misses", static_cast<double>(cache.misses));
  m.SetGauge("cache.insertions", static_cast<double>(cache.insertions));
  m.SetGauge("cache.evictions", static_cast<double>(cache.evictions));
  m.SetGauge("cache.invalidations", static_cast<double>(cache.invalidations));
  m.SetGauge("cache.budget_rejections",
             static_cast<double>(cache.budget_rejections));
  m.SetGauge("cache.spills", static_cast<double>(cache.spills));
  m.SetGauge("cache.reloads", static_cast<double>(cache.reloads));
  m.SetGauge("cache.reload_failures",
             static_cast<double>(cache.reload_failures));
  m.SetGauge("cache.persisted", static_cast<double>(cache.persisted));
  m.SetGauge("cache.persist_failures",
             static_cast<double>(cache.persist_failures));
}

void PublishPersistentCacheMetrics(const PersistentCache::Stats& stats) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.SetGauge("cache.disk.persisted", static_cast<double>(stats.persisted));
  m.SetGauge("cache.disk.persisted_bytes",
             static_cast<double>(stats.persisted_bytes));
  m.SetGauge("cache.disk.persist_failures",
             static_cast<double>(stats.persist_failures));
  m.SetGauge("cache.disk.loads", static_cast<double>(stats.loads));
  m.SetGauge("cache.disk.load_failures",
             static_cast<double>(stats.load_failures));
  m.SetGauge("cache.disk.recovered", static_cast<double>(stats.recovered));
  m.SetGauge("cache.disk.quarantined", static_cast<double>(stats.quarantined));
  m.SetGauge("cache.disk.stale_dropped",
             static_cast<double>(stats.stale_dropped));
}

void PublishShardMetrics(
    const std::vector<ShardedRepository::SliceStats>& rows) {
  MetricsRegistry& m = MetricsRegistry::Global();
  size_t dead = 0;
  uint64_t messages = 0, bytes = 0, nanos = 0, resends = 0;
  for (const ShardedRepository::SliceStats& r : rows) {
    if (!r.alive) ++dead;
    messages += r.net_messages;
    bytes += r.net_bytes;
    nanos += r.net_sim_nanos;
    resends += r.net_resends;
    obs::MetricLabels labels;
    labels.shard = r.shard;
    m.SetGauge("shard.net_messages", labels, static_cast<double>(r.net_messages));
    m.SetGauge("shard.net_bytes", labels, static_cast<double>(r.net_bytes));
    m.SetGauge("shard.net_sim_nanos", labels,
               static_cast<double>(r.net_sim_nanos));
    m.SetGauge("shard.net_resends", labels, static_cast<double>(r.net_resends));
    m.SetGauge("shard.alive", labels, r.alive ? 1.0 : 0.0);
  }
  m.SetGauge("shard.count", static_cast<double>(rows.size()));
  m.SetGauge("shard.dead", static_cast<double>(dead));
  m.SetGauge("shard.net_messages_total", static_cast<double>(messages));
  m.SetGauge("shard.net_bytes_total", static_cast<double>(bytes));
  m.SetGauge("shard.net_sim_nanos_total", static_cast<double>(nanos));
  m.SetGauge("shard.net_resends_total", static_cast<double>(resends));
}

}  // namespace dex

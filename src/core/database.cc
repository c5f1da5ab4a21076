#include "core/database.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "common/logging.h"
#include "io/file_io.h"

#include "core/metadata_snapshot.h"
#include "core/metrics_publish.h"
#include "core/plan_splitter.h"
#include "core/seismic_schema.h"
#include "engine/optimizer.h"
#include "engine/plan_profile.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sql/binder.h"

namespace dex {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Case-insensitively consumes leading whitespace plus `kw` at *pos; the
/// keyword must end at a word boundary. Advances *pos past it on match.
bool ConsumeKeyword(const std::string& sql, size_t* pos, const char* kw) {
  size_t p = *pos;
  while (p < sql.size() && std::isspace(static_cast<unsigned char>(sql[p]))) ++p;
  size_t k = 0;
  while (kw[k] != '\0') {
    if (p + k >= sql.size() ||
        std::toupper(static_cast<unsigned char>(sql[p + k])) != kw[k]) {
      return false;
    }
    ++k;
  }
  if (p + k < sql.size() &&
      !std::isspace(static_cast<unsigned char>(sql[p + k]))) {
    return false;
  }
  *pos = p + k;
  return true;
}

/// True when `plan` scans the derived-metadata table DM.
bool ReadsDerivedTable(const PlanPtr& plan) {
  std::vector<std::string> tables;
  CollectTableNames(plan, &tables);
  return std::find(tables.begin(), tables.end(), kDerivedTableName) !=
         tables.end();
}

/// Renders multi-line plan text as a one-column "QUERY PLAN" result table —
/// how EXPLAIN [ANALYZE] returns through the SQL front end.
Result<TablePtr> PlanTextTable(const std::string& text) {
  auto schema = std::make_shared<Schema>();
  schema->AddField({"QUERY PLAN", DataType::kString, ""});
  auto table = std::make_shared<Table>("explain", schema);
  size_t rows = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    table->mutable_column(0)->AppendString(text.substr(start, end - start));
    ++rows;
    start = end + 1;
  }
  DEX_RETURN_NOT_OK(table->CommitAppendedRows(rows));
  return table;
}

/// Appends printf-formatted text to `out`.
__attribute__((format(printf, 2, 3))) void Appendf(std::string* out,
                                                   const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

using ull = unsigned long long;

/// Forces span tracing on for one query, restoring the previous state.
class ScopedTrace {
 public:
  ScopedTrace() : saved_(obs::Tracer::Global().enabled()) {
    obs::Tracer::Global().set_enabled(true);
  }
  ~ScopedTrace() { obs::Tracer::Global().set_enabled(saved_); }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  bool saved_;
};

}  // namespace

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Database::~Database() {
  SaveZoneMaps();
  obs::FlightRecorder::Global().UninstallClock(this);
}

void Database::SaveZoneMaps() {
  if (zone_maps_ == nullptr || options_.zone_map_path.empty()) return;
  Status s = zone_maps_->SaveIfDirty(options_.zone_map_path);
  if (!s.ok()) {
    DEX_LOG(Warning) << "zone-map save to '" << options_.zone_map_path
                     << "' failed: " << s.ToString();
  }
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& repo_root,
                                                 const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database(options));
  obs::TraceSpan span("open", "lifecycle");
  span.AddArg("repo", repo_root);
  db->repo_root_ = repo_root;
  db->disk_ = std::make_unique<SimDisk>(options.disk);
  // Flight-recorder events are stamped with this database's charged
  // simulated time — the deterministic clock every dump sorts on. The last
  // database opened owns the clock; the destructor uninstalls only its own.
  obs::FlightRecorder::Global().InstallClock(
      db.get(), [disk = db->disk_.get()] { return disk->stats().sim_nanos; });
  // The sharded repository always exists — with one shard (the default) it
  // is inert and every executor keeps its classic single-node cost model.
  db->shards_ =
      std::make_unique<ShardedRepository>(db->disk_.get(), options.shard);
  db->registry_ = std::make_unique<FileRegistry>(db->disk_.get());
  db->cache_ = std::make_unique<CacheManager>(options.cache);
  // The global memory budget covers mounted partial tables and cache entries
  // alike; the cache reserves/releases through it from here on.
  db->memory_budget_ =
      std::make_unique<MemoryBudget>(options.two_stage.memory_budget_bytes);
  db->cache_->AttachBudget(db->memory_budget_.get());
  // The cache's durable tier: recover whatever the last process persisted,
  // running every entry through the validation ladder (stale sources dropped,
  // corrupt files quarantined-and-deleted), and seed the in-memory cache with
  // the survivors — the actual-data counterpart of the metadata snapshot's
  // instant-on.
  if (options.mode == IngestionMode::kLazy && !options.cache_dir.empty() &&
      options.cache.policy != CachePolicy::kNone) {
    PersistentCache::Options popts;
    popts.dir = options.cache_dir;
    db->persistent_cache_ =
        std::make_unique<PersistentCache>(db->disk_.get(), popts);
    db->cache_->AttachPersistent(db->persistent_cache_.get());
    std::vector<PersistentCache::RecoveredEntry> recovered =
        db->persistent_cache_->Recover();
    for (PersistentCache::RecoveredEntry& r : recovered) {
      db->cache_->AdoptRecovered(r.uri, r.meta, std::move(r.table));
    }
    const PersistentCache::Stats pstats = db->persistent_cache_->stats();
    db->open_stats_.cache_entries_recovered = pstats.recovered;
    db->open_stats_.cache_entries_quarantined = pstats.quarantined;
    db->open_stats_.cache_entries_stale = pstats.stale_dropped;
  }
  // One database-wide worker pool: every query's mount tasks and every
  // refresh's scan tasks land here, scheduled by priority class.
  db->pool_ = std::make_unique<ThreadPool>(
      options.pool_threads == 0 ? ThreadPool::DefaultConcurrency()
                                : options.pool_threads);

  // The catalog is built privately here and becomes epoch 0 at the end of
  // Open; from then on it is only ever mutated copy-on-write via publishes.
  auto catalog = std::make_unique<Catalog>(db->disk_.get());

  // Resolve the repository's file format.
  if (options.format != nullptr) {
    db->format_ = options.format;
  } else {
    DEX_ASSIGN_OR_RETURN(db->format_, DetectFormat(repo_root));
  }

  // Scan the repository: extract file- and record-level metadata. This is
  // the only up-front data access ALi performs, driven by the parallel
  // stage-1 scanner (per-file ScanFile tasks, bit-identical results at any
  // stage1_threads). With a metadata snapshot ("instant-on"), unchanged
  // files skip the header parse entirely — the snapshot is the baseline.
  const uint64_t t0 = NowNanos();
  // Zone maps per options; persisted ones are restored before the scan, and
  // the scan's files then drop the entries whose file identity changed
  // (safety-ladder step 1).
  if (options.collect_zone_maps) {
    db->zone_maps_ = std::make_unique<ZoneMapStore>();
    if (!options.zone_map_path.empty()) {
      DEX_RETURN_NOT_OK(db->zone_maps_->Load(options.zone_map_path));
    }
  }
  db->stage1_ = std::make_unique<Stage1Scanner>(
      db->format_.get(), db->registry_.get(), db->pool_.get());
  mseed::ScanResult baseline;
  bool have_baseline = false;
  if (!options.metadata_snapshot_path.empty() &&
      FileExists(options.metadata_snapshot_path)) {
    auto loaded = LoadSnapshot(options.metadata_snapshot_path);
    if (loaded.ok()) {
      baseline = std::move(*loaded);
      have_baseline = true;
    }
    // A corrupt or stale snapshot falls back to a full scan.
  }
  Stage1Options sopts;
  sopts.num_threads = options.stage1_threads;
  sopts.on_error = options.two_stage.on_mount_error;
  sopts.retry = options.two_stage.retry;
  sopts.shards = db->shards_.get();
  DEX_ASSIGN_OR_RETURN(
      mseed::ScanResult scan,
      db->stage1_->Scan(repo_root, have_baseline ? &baseline : nullptr, sopts,
                        &db->open_stats_));
  if (db->zone_maps_ != nullptr) db->zone_maps_->Reconcile(scan.files);
  if (!options.metadata_snapshot_path.empty()) {
    DEX_RETURN_NOT_OK(SaveSnapshot(scan, options.metadata_snapshot_path));
  }
  db->open_stats_.metadata_scan_nanos = NowNanos() - t0;
  db->open_stats_.snapshot_files_reused = db->open_stats_.files_reused;
  db->open_stats_.repo_bytes = scan.total_bytes;
  db->open_stats_.num_files = scan.files.size();
  db->open_stats_.num_records = scan.records.size();

  if (options.mode == IngestionMode::kEager) {
    DEX_RETURN_NOT_OK(EagerLoader::LoadAll(
        scan, catalog.get(), db->registry_.get(), db->format_.get(),
        options.build_indexes, &db->open_stats_));
  } else {
    // ALi: load only metadata; D exists but stays empty.
    DEX_ASSIGN_OR_RETURN(TablePtr f_table, BuildFileTable(scan));
    DEX_ASSIGN_OR_RETURN(TablePtr r_table, BuildRecordTable(scan));
    DEX_RETURN_NOT_OK(catalog->AddTable(f_table, TableKind::kMetadata));
    DEX_RETURN_NOT_OK(catalog->AddTable(r_table, TableKind::kMetadata));
    DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kFileTableName));
    DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kRecordTableName));
    auto d_table = std::make_shared<Table>(kDataTableName, MakeDataSchema());
    DEX_RETURN_NOT_OK(catalog->AddTable(d_table, TableKind::kActual));
    // File health is queryable like GAPS/OVERLAPS: an (initially empty)
    // QUARANTINE metadata table, refreshed whenever mounting quarantines or
    // rehabilitates a file.
    DEX_ASSIGN_OR_RETURN(TablePtr q_table, db->registry_->BuildQuarantineTable());
    DEX_RETURN_NOT_OK(catalog->AddTable(q_table, TableKind::kMetadata));
    DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kQuarantineTableName));
    // Derived metadata (§5): DM is registered empty; a query that reads it
    // gets a table built from the zone store (see RunQuery).
    if (db->zone_maps_ != nullptr) {
      DEX_RETURN_NOT_OK(catalog->AddTable(
          std::make_shared<Table>(kDerivedTableName, MakeDerivedSchema()),
          TableKind::kMetadata));
    }
  }
  {
    DEX_ASSIGN_OR_RETURN(TablePtr f_table, catalog->GetTable(kFileTableName));
    DEX_ASSIGN_OR_RETURN(TablePtr r_table, catalog->GetTable(kRecordTableName));
    db->open_stats_.metadata_bytes = f_table->ByteSize() + r_table->ByteSize();
  }

  // Freeze the built catalog as epoch 0 and wire up the executors.
  db->epochs_ = std::make_unique<EpochManager>(std::move(catalog));
  db->pinned_latest_ = db->epochs_->Pin();
  db->mounter_ = std::make_unique<Mounter>(
      db->registry_.get(), db->cache_.get(), db->zone_maps_.get(),
      db->format_.get(), options.two_stage.on_mount_error,
      options.two_stage.retry);
  db->two_stage_ = std::make_unique<TwoStageExecutor>(
      db->registry_.get(), db->cache_.get(), db->mounter_.get(),
      db->zone_maps_.get(), db->pool_.get());
  db->open_stats_.sim_io_nanos = db->disk_->stats().sim_nanos;
  PublishOpenMetrics(db->open_stats_);
  PublishIoMetrics(db->disk_->stats());
  return db;
}

Status Database::SyncQuarantineTable() {
  if (options_.mode != IngestionMode::kLazy) return Status::OK();
  std::lock_guard<std::mutex> lock(publish_mu_);
  // Read the version before building: a quarantine that lands while the
  // table is built then leaves the version stale, so the next sync rebuilds
  // instead of marking a table that misses it as current.
  const uint64_t version = registry_->health_version();
  if (version == quarantine_table_version_) return Status::OK();
  // Copy-on-write publish: clone the latest epoch, swap in the rebuilt
  // QUARANTINE table, publish. In-flight queries keep their pinned epochs.
  DEX_ASSIGN_OR_RETURN(TablePtr q_table, registry_->BuildQuarantineTable());
  std::unique_ptr<Catalog> next = pinned_latest_->catalog->Clone();
  DEX_RETURN_NOT_OK(next->ReplaceTable(std::move(q_table)));
  pinned_latest_ = epochs_->Publish(std::move(next));
  quarantine_table_version_ = version;
  return Status::OK();
}

Result<QueryResult> Database::RunQuery(const std::string& sql,
                                       const QueryOptions& options,
                                       EpochPtr epoch,
                                       PlanProfiler* profiler) {
  // EXPLAIN [ANALYZE] enters through the same front door as a SELECT and
  // returns through it too, as a one-column "QUERY PLAN" table.
  {
    size_t pos = 0;
    if (ConsumeKeyword(sql, &pos, "EXPLAIN")) {
      const bool analyze = ConsumeKeyword(sql, &pos, "ANALYZE");
      const std::string inner = sql.substr(pos);
      if (analyze) return RunExplainAnalyze(inner, options, std::move(epoch));
      DEX_ASSIGN_OR_RETURN(std::string text, Explain(inner));
      QueryResult out;
      DEX_ASSIGN_OR_RETURN(out.table, PlanTextTable(text));
      out.stats.result_rows = out.table->num_rows();
      return out;
    }
  }

  std::optional<ScopedTrace> trace_on;
  if (options.trace) trace_on.emplace();

  // Fold any out-of-band health changes (quarantines from a prior query,
  // rehabilitations via Refresh/Update) into the queryable QUARANTINE table
  // before this query pins its snapshot.
  DEX_RETURN_NOT_OK(SyncQuarantineTable());

  // Snapshot isolation: the query reads the epoch that was current at
  // submission (caller-pinned by the serving layer) or now, for its whole
  // lifetime. Concurrent publishes never change what it sees.
  const EpochPtr pinned = epoch != nullptr ? std::move(epoch) : epochs_->Pin();
  Catalog* catalog = pinned->catalog.get();
  // A query reading DM runs against a private clone of its epoch whose DM
  // entry points at a table built from the zone store now. Nothing is
  // published or written to the SimDisk; other queries never pay for it.
  std::unique_ptr<Catalog> with_dm;

  // This query's effective options: a snapshot of the database-wide defaults
  // with the per-query overrides applied. The defaults are never mutated, so
  // concurrent queries cannot observe each other's overrides.
  TwoStageOptions effective;
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    effective = options_.two_stage;
  }
  if (options.sim_deadline_nanos) {
    effective.sim_deadline_nanos = *options.sim_deadline_nanos;
  }
  if (options.wall_deadline_nanos) {
    effective.wall_deadline_nanos = *options.wall_deadline_nanos;
  }
  if (options.on_resource_exhausted) {
    effective.on_resource_exhausted = *options.on_resource_exhausted;
  }
  if (options.num_threads) effective.num_threads = *options.num_threads;
  if (options.pruning) effective.pruning = *options.pruning;

  QueryResult out;
  out.stats.epoch = pinned->id;
  // The query's root span parents under the serving layer's submit span
  // when one was handed down — the whole admission-to-result path renders
  // as one tree in the Chrome trace.
  const uint64_t query_parent = options.trace_parent_span != 0
                                    ? options.trace_parent_span
                                    : obs::Tracer::CurrentSpanId();
  obs::TraceSpan query_span("query", "query", query_parent);
  query_span.AddArg("sql", sql);
  query_span.AddArg("epoch", pinned->id);
  if (!options.session.empty()) query_span.AddArg("session", options.session);

  // Everything this query charges to the shared simulated clock is teed into
  // its own counter: per-query sim_io_nanos (and the deadline timeline) stay
  // independent of what concurrent queries charge.
  uint64_t query_sim_nanos = 0;
  {
    SimDisk::QueryTimeScope qscope(&query_sim_nanos);

    const uint64_t t0 = NowNanos();
    PlanPtr plan;
    {
      obs::TraceSpan span("parse_bind", "query");
      DEX_ASSIGN_OR_RETURN(plan, sql::PlanQuery(sql, *catalog));
    }
    if (zone_maps_ != nullptr && ReadsDerivedTable(plan)) {
      DEX_ASSIGN_OR_RETURN(TablePtr dm, zone_maps_->BuildDerivedTable());
      with_dm = catalog->Clone();
      DEX_RETURN_NOT_OK(with_dm->SwapTable(std::move(dm)));
      catalog = with_dm.get();
    }
    {
      obs::TraceSpan span("optimize", "query");
      DEX_ASSIGN_OR_RETURN(plan, PushDownPredicates(plan, *catalog));
      DEX_ASSIGN_OR_RETURN(plan, FuseTopK(plan, *catalog));
    }
    out.stats.plan_nanos = NowNanos() - t0;

    // Resource governance: deadlines from the effective options, measured on
    // the query's own timeline; the shared memory budget plus an optional
    // per-query cap.
    QueryContext qctx(
        {effective.sim_deadline_nanos, effective.wall_deadline_nanos},
        memory_budget_.get(), options.cancel);
    qctx.Start(disk_->stats().sim_nanos);
    qctx.AttachSimCounter(&query_sim_nanos);
    if (options.memory_budget_bytes) {
      qctx.set_query_memory_limit(*options.memory_budget_bytes);
    }

    const uint64_t t1 = NowNanos();
    if (options_.mode == IngestionMode::kEager) {
      ExecContext ctx;
      ctx.catalog = catalog;
      ctx.use_index_joins = options_.use_index_joins;
      ctx.profiler = profiler;
      if (options.cancel != nullptr) {
        ctx.interrupt_fn = [&qctx] { return qctx.CheckInterrupt(); };
      }
      DEX_ASSIGN_OR_RETURN(out.table, ExecutePlan(plan, &ctx));
      if (profiler != nullptr) profiler->AddRoot("plan", plan);
      out.stats.two_stage.exec = ctx.stats;
    } else {
      TwoStageExecutor::QueryEnv env;
      env.catalog = catalog;
      env.options = &effective;
      env.priority = options.priority;
      env.shards = shards_.get();
      env.num_shards = options.num_shards.value_or(0);
      env.warnings = &out.stats;
      DEX_ASSIGN_OR_RETURN(
          out.table,
          two_stage_->Execute(plan, options.breakpoint, &out.stats.two_stage,
                              profiler, qctx, env));
    }
    out.stats.exec_nanos = NowNanos() - t1;
  }
  out.stats.sim_io_nanos = query_sim_nanos;
  out.stats.result_rows = out.table->num_rows();
  query_span.AddArg("result_rows", out.stats.result_rows);
  query_span.AddArg("sim_io_nanos", out.stats.sim_io_nanos);

  out.stats.mount = out.stats.two_stage.mount.counters;

  // Quarantines that happened while mounting become visible immediately
  // (to queries pinning after this publish; our own snapshot is unchanged).
  DEX_RETURN_NOT_OK(SyncQuarantineTable());

  // Zone maps harvested by this query's mounts persist (when configured) so
  // a restarted database prunes immediately. No-op when nothing changed.
  SaveZoneMaps();

  // Publish into the unified metrics registry: per-query counters (labeled
  // with the query's telemetry context when one was supplied), plus the
  // disk's and cache's cumulative totals as gauges.
  obs::MetricLabels labels;
  labels.session = options.session;
  labels.query = options.query_label;
  if (!labels.empty()) labels.priority = options.priority;
  PublishQueryMetrics(out.stats, labels);
  PublishIoMetrics(disk_->stats());
  if (cache_ != nullptr) PublishCacheMetrics(cache_->stats());
  if (persistent_cache_ != nullptr) {
    PublishPersistentCacheMetrics(persistent_cache_->stats());
  }
  if (shards_->enabled()) PublishShardMetrics(shards_->StatusRows());
  return out;
}

std::string QueryStats::ToString() const {
  const TwoStageStats& ts = two_stage;
  const Mounter::MountCounters& mc = ts.mount.counters;
  const ExecStats& ex = ts.exec;
  std::string out;
  Appendf(&out, "result rows: %llu in %.4fs", static_cast<ull>(result_rows),
          TotalSeconds());
  if (ts.stage1_only) {
    out += " [metadata only]";
  } else if (ts.split) {
    Appendf(&out,
            " [stage1 %.4fs | stage2 %.4fs | %zu files of interest, "
            "%llu mounted, %zu cached, %zu pruned]",
            ts.stage1_nanos / 1e9, ts.stage2_nanos / 1e9, ts.files_of_interest,
            static_cast<ull>(mc.mounts), ts.files_planned_cache,
            ts.files_pruned);
  }
  if (sim_io_nanos > 0) Appendf(&out, " [sim-I/O %.4fs]", sim_io_nanos / 1e9);
  if (ts.is_partial) out += " [PARTIAL]";
  if (warnings_raised() > 0) {
    Appendf(&out, " [%llu warnings]", static_cast<ull>(warnings_raised()));
  }
  out += '\n';

  Appendf(&out, "plan %.3fms, exec %.3fms, simulated I/O %.3fms\n",
          plan_nanos / 1e6, exec_nanos / 1e6, sim_io_nanos / 1e6);
  if (ts.mount_tasks > 0) {
    Appendf(&out, "%zu mount tasks on %zu workers, sim speedup %.2fx\n",
            ts.mount_tasks, ts.workers,
            ts.parallel_sim_nanos > 0
                ? static_cast<double>(ts.serial_sim_nanos) /
                      static_cast<double>(ts.parallel_sim_nanos)
                : 1.0);
  }
  if (mc.records_skipped_zonemap > 0 || mc.frames_skipped_zonemap > 0 ||
      mc.zonemap_fallbacks > 0) {
    Appendf(&out,
            "zone maps: %llu records skipped, %llu frames skipped "
            "(%llu decoded), %llu fallbacks\n",
            static_cast<ull>(mc.records_skipped_zonemap),
            static_cast<ull>(mc.frames_skipped_zonemap),
            static_cast<ull>(mc.frames_decoded_zonemap),
            static_cast<ull>(mc.zonemap_fallbacks));
  }
  if (ex.kernel_filter_batches > 0 || ex.kernel_agg_batches > 0 ||
      ex.scalar_filter_batches > 0 || ex.scalar_agg_batches > 0 ||
      ex.kernel_join_batches > 0 || ex.scalar_join_batches > 0 ||
      ex.range_skipped_rows > 0) {
    Appendf(&out,
            "kernels: filter %llu vectorized / %llu scalar, "
            "join %llu run-keyed / %llu row, "
            "agg %llu vectorized (%llu run-folded) / %llu scalar, "
            "%llu compactions, %llu rows skipped by time range\n",
            static_cast<ull>(ex.kernel_filter_batches),
            static_cast<ull>(ex.scalar_filter_batches),
            static_cast<ull>(ex.kernel_join_batches),
            static_cast<ull>(ex.scalar_join_batches),
            static_cast<ull>(ex.kernel_agg_batches),
            static_cast<ull>(ex.agg_run_batches),
            static_cast<ull>(ex.scalar_agg_batches),
            static_cast<ull>(ex.selection_compactions),
            static_cast<ull>(ex.range_skipped_rows));
  }
  Appendf(&out,
          "faults: %llu read retries, %llu records salvaged (%llu "
          "skipped), %llu files failed, %llu files skipped\n",
          static_cast<ull>(mc.read_retries),
          static_cast<ull>(mc.records_salvaged),
          static_cast<ull>(mc.records_skipped),
          static_cast<ull>(mc.files_failed),
          static_cast<ull>(mc.files_skipped));
  if (ts.is_partial) {
    Appendf(&out,
            "partial result: %llu files mounted, %zu skipped by deadline, "
            "%zu skipped by memory, %zu skipped on dead shards\n",
            static_cast<ull>(mc.mounts), ts.files_skipped_deadline,
            ts.files_skipped_memory, ts.files_skipped_shard);
    Appendf(&out, "cutoff at %.3fms simulated, %.3fms wall\n",
            ts.cutoff_sim_nanos / 1e6, ts.cutoff_wall_nanos / 1e6);
  }
  if (ts.num_shards > 1) {
    Appendf(&out, "shards: %zu, interconnect %.3fms simulated\n",
            ts.num_shards, ts.net_sim_nanos / 1e6);
    for (const TwoStageStats::ShardRow& row : ts.shard_rows) {
      Appendf(&out,
              "  shard %d: %zu files, disk %.3fms, net %.3fms, "
              "%llu messages\n",
              row.shard, row.files, row.disk_sim_nanos / 1e6,
              row.net_sim_nanos / 1e6, static_cast<ull>(row.net_messages));
    }
  }
  return out + RenderWarnings("");
}

Result<QueryResult> Database::RunExplainAnalyze(const std::string& sql,
                                                const QueryOptions& options,
                                                EpochPtr epoch) {
  PlanProfiler profiler;
  DEX_ASSIGN_OR_RETURN(QueryResult out,
                       RunQuery(sql, options, std::move(epoch), &profiler));
  const std::string text =
      profiler.Render() + "-- execution --\n" + out.stats.ToString();
  DEX_ASSIGN_OR_RETURN(out.table, PlanTextTable(text));
  return out;
}

namespace {

// Failed queries flush the flight recorder: the ring's recent grants,
// publishes, cutoffs, and quarantines are exactly the context a post-mortem
// needs, and by the next query they may have been overwritten.
void RecordQueryFailure(const QueryOptions& options, const Status& status) {
  obs::FlightEvent e;
  e.kind = "query_failure";
  e.session = options.session;
  e.priority = options.priority;
  e.detail = status.ToString();
  obs::FlightRecorder::Global().Record(std::move(e));
  obs::FlightRecorder::Global().AutoDump("query_failure: " + status.ToString());
}

}  // namespace

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  Result<QueryResult> result = RunQuery(sql, options, EpochPtr{});
  if (!result.ok()) RecordQueryFailure(options, result.status());
  return result;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options,
                                    EpochPtr epoch) {
  Result<QueryResult> result = RunQuery(sql, options, std::move(epoch));
  if (!result.ok()) RecordQueryFailure(options, result.status());
  return result;
}

void Database::set_sim_deadline_nanos(uint64_t nanos) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.two_stage.sim_deadline_nanos = nanos;
}

void Database::set_wall_deadline_nanos(uint64_t nanos) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.two_stage.wall_deadline_nanos = nanos;
}

void Database::set_memory_budget_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.two_stage.memory_budget_bytes = bytes;
  memory_budget_->set_limit(bytes);
}

void Database::set_on_resource_exhausted(OnResourceExhausted policy) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.two_stage.on_resource_exhausted = policy;
}

Result<RefreshStats> Database::Refresh() {
  if (options_.mode == IngestionMode::kEager) {
    return Status::NotImplemented(
        "Refresh() requires lazy ingestion; an eager database must reload "
        "actual data to pick up repository changes");
  }
  // One refresh at a time. Queries are never blocked: in-flight ones keep
  // reading their pinned epochs while the scan and the publish proceed.
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  RefreshStats stats;
  obs::TraceSpan span("refresh", "lifecycle");
  const uint64_t t0 = NowNanos();

  // The current epoch is the baseline: files whose size/mtime still match
  // keep their F/R rows without a header parse — a delta refresh, the same
  // reconciliation the instant-on snapshot gives Open().
  const EpochPtr base = epochs_->Pin();
  DEX_ASSIGN_OR_RETURN(TablePtr f_table,
                       base->catalog->GetTable(kFileTableName));
  DEX_ASSIGN_OR_RETURN(TablePtr r_table,
                       base->catalog->GetTable(kRecordTableName));
  const mseed::ScanResult baseline = ScanResultFromTables(*f_table, *r_table);

  // The scan shares the session's governance and fault policy: a deadline
  // armed via the runtime setters (`.timeout`) also bounds the refresh.
  TwoStageOptions ts;
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    ts = options_.two_stage;
  }
  Stage1Options sopts;
  sopts.num_threads = options_.stage1_threads;
  sopts.on_error = ts.on_mount_error;
  sopts.retry = ts.retry;
  sopts.shards = shards_.get();
  // A refresh is maintenance: its scan tasks ride the shared pool at
  // background priority so interactive queries keep their workers.
  sopts.priority = ThreadPool::kPriorityBackground;
  QueryContext qctx({ts.sim_deadline_nanos, ts.wall_deadline_nanos},
                    memory_budget_.get(), nullptr);
  mseed::ScanResult scan;
  {
    // The refresh's charges get their own tee, like a query's: reported
    // sim_io_nanos (and a deadline, when armed) measure this refresh alone.
    SimDisk::QueryTimeScope qscope(&stats.sim_io_nanos);
    if (ts.sim_deadline_nanos != 0 || ts.wall_deadline_nanos != 0) {
      qctx.Start(disk_->stats().sim_nanos);
      qctx.AttachSimCounter(&stats.sim_io_nanos);
      sopts.qctx = &qctx;
    }
    DEX_ASSIGN_OR_RETURN(scan,
                         stage1_->Scan(repo_root_, &baseline, sopts, &stats));
  }
  stats.scan_nanos = NowNanos() - t0;
  // Zones of changed files and of files gone from the scan go before the
  // epoch listing the scan's files is published.
  if (zone_maps_ != nullptr) zone_maps_->Reconcile(scan.files);

  // Adopt the merged metadata wholesale: F and R describe exactly what is on
  // disk now (modulo deadline-skipped files held at their stale rows).
  // Registry entries for removed files stay registered on the simulated disk
  // but are unreachable through metadata.
  DEX_ASSIGN_OR_RETURN(TablePtr new_f, BuildFileTable(scan));
  DEX_ASSIGN_OR_RETURN(TablePtr new_r, BuildRecordTable(scan));
  {
    // Copy-on-write publish. The clone source is the epoch current *now*
    // (under the publish lock), not the scan's baseline pin — a quarantine
    // publish that slipped in between is preserved.
    std::lock_guard<std::mutex> lock(publish_mu_);
    std::unique_ptr<Catalog> next = pinned_latest_->catalog->Clone();
    DEX_RETURN_NOT_OK(next->ReplaceTable(std::move(new_f)));
    DEX_RETURN_NOT_OK(next->ReplaceTable(std::move(new_r)));
    // Quarantine decisions made by the scan become queryable in the same
    // epoch (folded here, under the same lock, to publish once not twice).
    const uint64_t version = registry_->health_version();  // read first
    if (version != quarantine_table_version_) {
      DEX_ASSIGN_OR_RETURN(TablePtr q_table,
                           registry_->BuildQuarantineTable());
      DEX_RETURN_NOT_OK(next->ReplaceTable(std::move(q_table)));
      quarantine_table_version_ = version;
    }
    pinned_latest_ = epochs_->Publish(std::move(next));
    stats.epoch = pinned_latest_->id;
  }
  open_stats_.num_files = scan.files.size();
  open_stats_.num_records = scan.records.size();
  span.AddArg("files_scanned", static_cast<uint64_t>(stats.files_scanned));
  span.AddArg("files_reused", static_cast<uint64_t>(stats.files_reused));
  span.AddArg("epoch", stats.epoch);
  // The reconcile may have dropped the zone maps of changed or removed
  // files; persist the trimmed set when configured.
  SaveZoneMaps();
  PublishRefreshMetrics(stats);
  PublishIoMetrics(disk_->stats());
  if (shards_->enabled()) PublishShardMetrics(shards_->StatusRows());
  return stats;
}

Result<CoverageStats> Database::AnalyzeCoverage() {
  // Copy-on-write like every metadata mutation: derive GAPS/OVERLAPS from
  // the F and R of a clone of the latest epoch, register them in the clone
  // and publish it. In-flight queries keep their pinned (possibly GAPS-less)
  // snapshots.
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::unique_ptr<Catalog> next = pinned_latest_->catalog->Clone();
  DEX_ASSIGN_OR_RETURN(CoverageStats stats, DeriveCoverage(next.get()));
  pinned_latest_ = epochs_->Publish(std::move(next));
  return stats;
}

Result<std::string> Database::Explain(const std::string& sql) {
  const EpochPtr pinned = epochs_->Pin();
  const Catalog& catalog = *pinned->catalog;
  DEX_ASSIGN_OR_RETURN(PlanPtr plan, sql::PlanQuery(sql, catalog));
  std::string out = "-- initial plan --\n" + plan->ToString();
  DEX_ASSIGN_OR_RETURN(plan, PushDownPredicates(plan, catalog));
  out += "-- after predicate pushdown --\n" + plan->ToString();
  if (options_.mode == IngestionMode::kLazy) {
    DEX_ASSIGN_OR_RETURN(SplitResult split, SplitPlan(plan, catalog));
    if (split.qf != nullptr) {
      out += "-- after two-stage decomposition (StageBreak marks Q_f) --\n" +
             split.plan->ToString();
    } else {
      out += "-- no Q_f/Q_s split needed --\n";
    }
  }
  return out;
}

}  // namespace dex

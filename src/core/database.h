#ifndef DEX_CORE_DATABASE_H_
#define DEX_CORE_DATABASE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "core/catalog_epoch.h"
#include "core/coverage.h"
#include "core/eager_loader.h"
#include "core/file_registry.h"
#include "core/format_adapter.h"
#include "core/mounter.h"
#include "core/stage1_scan.h"
#include "core/zone_map.h"
#include "core/two_stage.h"
#include "exec/thread_pool.h"
#include "io/sim_disk.h"
#include "shard/sharded_repository.h"
#include "storage/catalog.h"

namespace dex {

/// \brief How actual data enters the database.
enum class IngestionMode {
  kLazy,   // ALi: two-stage execution, metadata loaded up-front, files of
           // interest mounted per query
  kEager,  // Ei: the whole repository is decompressed and loaded at Open(),
           // PK/FK indexes built, queries run single-stage
};

/// \brief Everything configurable about a database instance.
struct DatabaseOptions {
  IngestionMode mode = IngestionMode::kLazy;

  // Cache policy for lazily ingested data (kLazy only). The paper's
  // preliminary design is kNone: discard after every query.
  CacheManager::Options cache;

  // Durable tier of the cache (kLazy, policy != kNone only). When non-empty,
  // cached partial tables are written through to checksummed columnar files
  // in this directory and recovered — validated, with corrupt entries
  // quarantined — on the next Open(), so a restarted database answers
  // repeated queries without re-mounting ("instant-on" for actual data,
  // complementing metadata_snapshot_path). Empty = in-memory cache only.
  std::string cache_dir;

  // Run-time optimization knobs (kLazy only).
  TwoStageOptions two_stage;

  // Worker threads for the stage-1 metadata scan (Open() and Refresh()):
  // per-file header parses run as parallel tasks. 0 = hardware concurrency,
  // 1 = serial. The catalog, RefreshStats, quarantine decisions, and charged
  // simulated I/O are bit-identical at any value (DESIGN.md §8.9); only
  // wall time and the reported critical path change.
  size_t stage1_threads = 0;

  // Real threads in the database-wide worker pool every query's mount tasks
  // (and every refresh's scan tasks) run on. 0 = hardware concurrency. The
  // pool size never affects results or charged simulated time — per-query
  // `num_threads`/`stage1_threads` drive the deterministic lane counts; this
  // only bounds physical parallelism across concurrent queries.
  size_t pool_threads = 0;

  // Harvest per-record / per-Steim-frame min/max zone maps as a side effect
  // of mounting, and use them to skip decode work in later mounts (see
  // PruningOptions). Cheap (one struct per record + 20 bytes per frame);
  // defaults on. Zone maps are also the derived metadata of §5: under kLazy
  // they back the queryable DM metadata table and file-level pruning, so
  // with this off there is no DM table and `file_level` prunes nothing.
  bool collect_zone_maps = true;

  // When non-empty, zone maps persist to this file (checksummed, atomic
  // rename) after queries/refreshes that changed them, and are recovered on
  // the next Open() — so a restarted database prunes immediately. A corrupt
  // or stale file is discarded wholesale (zone maps are hints; recovery
  // never blocks Open). Empty = in-memory only.
  std::string zone_map_path;

  // Ei knobs.
  bool build_indexes = true;      // PK/FK indexes after the eager load
  bool use_index_joins = false;   // index-assisted joins at query time

  // The simulated storage medium.
  SimDisk::Options disk;

  // Sharding: partition the file catalog across `shard.num_shards` virtual
  // storage nodes behind a simulated interconnect (shard.net). With one
  // shard (the default) everything behaves exactly as before. Stage-1 scans
  // and stage-2 ingestion then run scatter/gather with per-shard charged
  // time; a dead shard degrades queries to deterministic partial results.
  ShardedRepository::Options shard;

  // Repository file format. nullptr = auto-detect from the files present
  // (mSEED first, then the text time-series format).
  std::shared_ptr<FormatAdapter> format;

  // "Instant-on": when non-empty, Open() loads metadata from this snapshot
  // file (re-scanning only files whose size/mtime changed) and saves the
  // current metadata back to it. Empty = always scan.
  std::string metadata_snapshot_path;
};

/// \brief Timings and sizes of Open() — the paper's data-to-insight costs:
/// what its stage-1 scan did (workers, simulated stall time, net time,
/// quarantines, warnings; DESIGN.md §8.9) and, under kEager, the load.
struct OpenStats : Stage1Stats, EagerLoadStats {
  uint64_t metadata_scan_nanos = 0;  // walking the repo, parsing headers
  uint64_t sim_io_nanos = 0;         // simulated I/O charged during Open
  uint64_t repo_bytes = 0;
  uint64_t metadata_bytes = 0;       // size of F + R (the "ALi" column of Table 1)
  size_t num_files = 0;
  size_t num_records = 0;
  // Instant-on: files not re-scanned. A copy of `files_reused`, kept while
  // dexbench reads it.
  size_t snapshot_files_reused = 0;

  // Persistent-cache recovery (cache_dir set): entries that survived the
  // validation ladder, were deleted as corrupt, or were dropped because the
  // source file changed since they were persisted.
  uint64_t cache_entries_recovered = 0;
  uint64_t cache_entries_quarantined = 0;
  uint64_t cache_entries_stale = 0;

  /// Wall-clock-equivalent seconds including simulated I/O.
  double TotalSeconds() const {
    return static_cast<double>(metadata_scan_nanos + load_nanos + index_nanos +
                               sim_io_nanos) /
           1e9;
  }

  /// The published gauges with their metric names (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = OpenStats;
    return std::tuple{
        StatField{"open.metadata_scan_nanos", &S::metadata_scan_nanos},
        StatField{"open.load_nanos", &S::load_nanos},
        StatField{"open.index_nanos", &S::index_nanos},
        StatField{"open.sim_io_nanos", &S::sim_io_nanos},
        StatField{"open.repo_bytes", &S::repo_bytes},
        StatField{"open.metadata_bytes", &S::metadata_bytes},
        StatField{"open.num_files", &S::num_files},
        StatField{"open.num_records", &S::num_records},
        StatField{"open.snapshot_files_reused", &S::snapshot_files_reused},
        StatField{"open.scan_workers", &S::workers},
        StatField{"open.scan_serial_sim_nanos", &S::serial_sim_nanos},
        StatField{"open.scan_parallel_sim_nanos", &S::parallel_sim_nanos},
        StatField{"open.num_shards", &S::num_shards},
        StatField{"open.scan_net_sim_nanos", &S::net_sim_nanos}};
  }
};

/// \brief Per-query statistics reported alongside every result, with the
/// query's degradation notices (retries exhausted, files quarantined).
struct QueryStats : Warnings {
  uint64_t plan_nanos = 0;      // parse + bind + compile-time optimization
  uint64_t exec_nanos = 0;      // both stages, CPU
  /// Simulated I/O stalls charged by *this query* (its own per-query tee of
  /// the shared clock) — independent of what concurrent queries charge.
  uint64_t sim_io_nanos = 0;
  TwoStageStats two_stage;      // stage split details (kLazy)
  /// What ALi's mounts did (kLazy): decode work, fault tolerance (retries,
  /// failed/skipped files, salvage) and zone-map pruning. A copy of
  /// `two_stage.mount.counters`, kept while dexbench reads it.
  Mounter::MountCounters mount;
  uint64_t result_rows = 0;

  /// Id of the catalog epoch this query ran against (snapshot isolation: the
  /// epoch current at admission, unaffected by concurrent Refresh).
  uint64_t epoch = 0;

  /// Reported query time: measured CPU + simulated I/O.
  double TotalSeconds() const {
    return static_cast<double>(plan_nanos + exec_nanos + sim_io_nanos) / 1e9;
  }

  /// The text every surface shows: EXPLAIN ANALYZE's execution section and
  /// the shell's `.stats`, whose first line the shell prints after a query.
  std::string ToString() const;

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = QueryStats;
    return std::tuple{StatField{"query.plan_nanos", &S::plan_nanos},
                      StatField{"query.exec_nanos", &S::exec_nanos},
                      StatField{"query.sim_io_nanos", &S::sim_io_nanos}};
  }
};

/// \brief A query's result table plus its execution statistics.
struct QueryResult {
  TablePtr table;
  QueryStats stats;
};

/// \brief What a Refresh() found in the repository: its stage-1 scan plus
/// its own timing and epoch. Every field except the wall-clock
/// `scan_nanos` is bit-identical at any stage1_threads value.
struct RefreshStats : Stage1Stats {
  uint64_t scan_nanos = 0;    // wall clock, including the parallel scan
  uint64_t sim_io_nanos = 0;  // simulated I/O charged by this refresh

  /// Id of the catalog epoch this refresh published. Queries admitted before
  /// the publish keep reading their pinned pre-refresh epoch; queries
  /// admitted after see this one.
  uint64_t epoch = 0;

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = RefreshStats;
    return std::tuple{
        StatField{"refresh.files_added", &S::files_added},
        StatField{"refresh.files_changed", &S::files_changed},
        StatField{"refresh.files_removed", &S::files_removed},
        StatField{"refresh.files_scanned", &S::files_scanned},
        StatField{"refresh.files_reused", &S::files_reused},
        StatField{"refresh.files_quarantined", &S::files_quarantined},
        StatField{"refresh.read_retries", &S::read_retries},
        StatField{"refresh.scan_nanos", &S::scan_nanos},
        StatField{"refresh.sim_io_nanos", &S::sim_io_nanos},
        StatField{"refresh.serial_sim_nanos", &S::serial_sim_nanos},
        StatField{"refresh.parallel_sim_nanos", &S::parallel_sim_nanos},
        StatField{"governance.files_skipped_deadline",
                  &S::files_skipped_deadline},
        StatField{"shard.files_skipped_shard", &S::files_skipped_shard}};
  }
};

/// \brief Per-query knobs for Database::Query — the single query entry
/// point. Each optional overrides the database-wide TwoStageOptions value
/// for this query only (the database defaults are never mutated); nullopt
/// inherits the current default. See the shell's `.timeout` / `.memlimit` /
/// `--threads` for the session-wide equivalents.
struct QueryOptions {
  /// Simulated-time deadline in nanoseconds (0 = off), measured on the
  /// query's own simulated timeline. Deterministic even under concurrency.
  std::optional<uint64_t> sim_deadline_nanos;
  /// Wall-clock deadline in nanoseconds (0 = off). Nondeterministic.
  std::optional<uint64_t> wall_deadline_nanos;
  /// Per-query memory cap in bytes (0 = unlimited), layered on top of the
  /// database-wide budget: this query's admissions must fit under both.
  /// Other queries are unaffected (the shared budget is never resized).
  std::optional<uint64_t> memory_budget_bytes;
  /// Deadline/budget exhaustion policy (default kPartialResults).
  std::optional<OnResourceExhausted> on_resource_exhausted;
  /// Stage-2 ingestion worker lanes (0 = hardware concurrency, 1 = serial).
  std::optional<size_t> num_threads;
  /// The pruning decision ladder for this query (file/record/frame level +
  /// SIMD kernels), overriding the database-wide TwoStageOptions::pruning.
  /// Shell: `--no-zonemap` / `--no-simd-kernels`.
  std::optional<PruningOptions> pruning;
  /// Shard count for this query on a sharded database (nullopt/0 = the
  /// configured count; other values clamped into [1, configured]). The
  /// query re-partitions on the fly: results are identical at any value,
  /// only the charged scatter/gather critical path changes.
  std::optional<int> num_shards;
  /// Worker-pool priority class (ThreadPool::kPriorityBackground/Normal/
  /// Interactive) for this query's mount tasks on the shared pool. Higher
  /// classes are picked first; a deterministic anti-starvation rule keeps
  /// lower classes draining.
  int priority = ThreadPool::kPriorityNormal;
  /// Stage-boundary callback: sees the informativeness estimate after stage
  /// 1 and may abort; with two_stage.mount_batch_size > 0 it is also called
  /// between ingestion batches (multi-stage execution).
  BreakpointCallback breakpoint;
  /// External cooperative cancellation (e.g. wired to a ^C handler or a
  /// watchdog): operators poll it per batch, mount tasks check it before
  /// starting and between read retries. Cancelling leaves the database
  /// consistent — partial tables never reach the catalog.
  CancelToken* cancel = nullptr;
  /// Force span tracing on for this query (restored afterwards).
  bool trace = false;

  // -- Telemetry context (see DESIGN.md §8.12) -----------------------------
  /// Serving-session name this query runs under; becomes the `session`
  /// label on the query's dimensional metrics and flight-recorder events.
  /// "" = unlabeled (direct Database::Query callers).
  std::string session;
  /// Short caller-supplied tag becoming the `query` label on dimensional
  /// metrics (e.g. a workload step name). "" = unlabeled. Cardinality is
  /// bounded registry-side; prefer a handful of stable tags over raw SQL.
  std::string query_label;
  /// Span id the query's root span should parent under (0 = root). The
  /// serving layer sets this to its submit span so admission wait and
  /// execution render as one tree in the Chrome trace.
  uint64_t trace_parent_span = 0;
};

/// \brief The public facade: a scientific file repository, queryable in SQL.
///
/// ```
/// auto db = dex::Database::Open("/repo", {});
/// auto res = (*db)->Query("SELECT AVG(D.sample_value) FROM F JOIN R ON ...");
/// std::cout << res->table->ToString();
/// ```
///
/// Concurrency: Query() is safe to call from multiple threads. Each query
/// pins the catalog epoch current at submission and runs against that
/// snapshot; Refresh()/AnalyzeCoverage()/quarantine sync publish *new*
/// epochs copy-on-write, so metadata mutation never races a reader. Shared
/// mutable collaborators (disk, registry, cache, memory budget, metrics)
/// synchronize internally. The admission/fairness layer on top lives in
/// serve::SessionManager.
class Database {
 public:
  /// Opens `repo_root`: scans metadata (always), and under kEager also loads
  /// all actual data and builds indexes.
  static Result<std::unique_ptr<Database>> Open(const std::string& repo_root,
                                                const DatabaseOptions& options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Uninstalls this database's simulated clock from the global flight
  /// recorder (installed by Open so events are stamped with charged sim
  /// time; a newer database's clock is left untouched).
  ~Database();

  /// Runs one SELECT statement — the single query entry point. `options`
  /// carries every per-query knob (deadlines, memory cap, worker lanes,
  /// priority, breakpoint callback, cancel token, tracing); the defaults
  /// inherit the database-wide settings. `EXPLAIN SELECT ...` and `EXPLAIN
  /// ANALYZE SELECT ...` are handled here too: both return the plan as a
  /// one-column "QUERY PLAN" table; ANALYZE actually executes the query and
  /// annotates every operator with its measured rows/batches/wall time.
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = QueryOptions{});

  /// Like Query(sql, options) but against a caller-pinned epoch — the
  /// serving layer pins at admission time, possibly long before the query
  /// gets to run (snapshot-at-submission semantics across a wait queue).
  Result<QueryResult> Query(const std::string& sql, const QueryOptions& options,
                            EpochPtr epoch);

  /// EXPLAIN: the optimized plan and, in lazy mode, its Q_f/Q_s split.
  Result<std::string> Explain(const std::string& sql);

  /// Rescans the repository and folds in what changed: new files become
  /// queryable metadata, changed files get fresh F/R rows (their cached
  /// data invalidates via mtime on the next probe), removed files drop out
  /// of F/R so they can never become files of interest again. This is the
  /// e-science reality the paper opens with — "they automatically receive
  /// multiple terabytes of data on a daily basis" — and under ALi it is a
  /// metadata-only operation: only changed/new files get a header parse
  /// (unchanged files keep their catalog rows), dispatched as parallel
  /// tasks on `stage1_threads` workers with bit-identical results at any
  /// worker count. A sim/wall deadline set via `.timeout`/the runtime
  /// setters governs the scan too: it stops admitting header parses on
  /// expiry and returns a deterministic partial refresh (`is_partial`,
  /// `files_skipped_deadline`).
  ///
  /// Under concurrent serving a refresh is snapshot-isolated: it clones the
  /// current catalog, mutates the private clone, and atomically publishes it
  /// as a new epoch. In-flight queries keep reading their pinned pre-refresh
  /// epoch to completion; queries admitted after the publish see the new
  /// one. Eager mode would need a data reload and returns NotImplemented.
  Result<RefreshStats> Refresh();

  /// Derives GAPS/OVERLAPS tables from the latest epoch's F and R (paper
  /// §5's "analyzed data" kind of derived metadata) and registers them as
  /// queryable metadata tables (published as a new epoch, like Refresh).
  /// Re-run after Refresh() to update them.
  Result<CoverageStats> AnalyzeCoverage();

  /// Evicts the buffer pool — the next query runs "cold", as after a server
  /// restart with all buffers flushed.
  void FlushBuffers() { disk_->FlushAll(); }

  // -- Epochs (snapshot isolation) ----------------------------------------
  /// Pins the current catalog epoch. The serving layer calls this at
  /// admission and passes the pin to Query(sql, options, epoch).
  EpochPtr PinEpoch() const { return epochs_->Pin(); }
  /// Id of the current epoch (starts at 0, +1 per publish).
  uint64_t current_epoch() const { return epochs_->current_id(); }
  /// Superseded epochs whose last pin has dropped.
  uint64_t epochs_retired() const { return epochs_->epochs_retired(); }

  // -- Resource governance (runtime knobs; see TwoStageOptions) -----------
  /// Per-query simulated-time deadline (0 = off). Shell: `.timeout`.
  void set_sim_deadline_nanos(uint64_t nanos);
  /// Per-query wall-clock deadline (0 = off).
  void set_wall_deadline_nanos(uint64_t nanos);
  /// Database-wide memory budget in bytes (0 = unlimited). Shell: `.memlimit`.
  void set_memory_budget_bytes(uint64_t bytes);
  /// Deadline/budget exhaustion policy (default kPartialResults).
  void set_on_resource_exhausted(OnResourceExhausted policy);

  // -- Introspection ------------------------------------------------------
  const OpenStats& open_stats() const { return open_stats_; }
  /// The database-wide budget mounted partial tables and cache entries
  /// reserve against (tracks usage even when unlimited).
  MemoryBudget* memory_budget() { return memory_budget_.get(); }
  /// The latest published catalog — introspection between operations, not a
  /// stable snapshot: the pointer is valid only until the next publish
  /// (Refresh/AnalyzeCoverage/quarantine sync). Queries pin an epoch instead.
  /// Its DM entry stays empty: only a query reading DM builds its rows.
  Catalog* catalog() {
    std::lock_guard<std::mutex> lock(publish_mu_);
    return pinned_latest_->catalog.get();
  }
  SimDisk* disk() { return disk_.get(); }
  CacheManager* cache() { return cache_.get(); }
  /// The cache's durable tier (null unless options.cache_dir was set).
  PersistentCache* persistent_cache() { return persistent_cache_.get(); }
  /// The sharded repository (never null; has one shard when unsharded).
  /// Kill/HealShard and StatusRows back the shell's `.shards` command.
  ShardedRepository* shards() { return shards_.get(); }
  FileRegistry* registry() { return registry_.get(); }
  /// The zone-map store (null when options.collect_zone_maps is false):
  /// record/frame pruning, file-level pruning and the DM table all read it.
  ZoneMapStore* zone_maps() { return zone_maps_.get(); }
  FormatAdapter* format() { return format_.get(); }
  /// The database-wide worker pool (mount tasks, refresh scan tasks).
  ThreadPool* pool() { return pool_.get(); }
  /// The options the database was opened with. The runtime setters above
  /// change `two_stage` under a lock; read it between operations.
  const DatabaseOptions& options() const { return options_; }

 private:
  explicit Database(DatabaseOptions options);

  Result<QueryResult> RunQuery(const std::string& sql,
                               const QueryOptions& options, EpochPtr epoch,
                               PlanProfiler* profiler = nullptr);

  /// EXPLAIN ANALYZE body: runs `sql` under a profiler and replaces the
  /// result table with the annotated plan rendering.
  Result<QueryResult> RunExplainAnalyze(const std::string& sql,
                                        const QueryOptions& options,
                                        EpochPtr epoch);

  /// Publishes a new epoch with a rebuilt QUARANTINE metadata table if
  /// registry health changed since the last publish.
  Status SyncQuarantineTable();

  /// Persists the zone maps when a path is configured and they changed.
  /// Best-effort: a failed save is logged, never propagated.
  void SaveZoneMaps();

  DatabaseOptions options_;
  std::string repo_root_;
  std::shared_ptr<FormatAdapter> format_;
  std::unique_ptr<SimDisk> disk_;
  // Catalog partitioning + the simulated shard interconnect (owns the
  // SimNetwork). One shard = the classic single-node behavior.
  std::unique_ptr<ShardedRepository> shards_;
  std::unique_ptr<FileRegistry> registry_;
  std::unique_ptr<CacheManager> cache_;
  // Durable tier behind cache_; created (and recovered from) in Open when
  // options_.cache_dir is set. Destroyed after cache_ would be fine either
  // way: cache_ only calls into it while queries run.
  std::unique_ptr<PersistentCache> persistent_cache_;
  // Database-wide: outlives any one query because cache entries keep their
  // reservations between queries. Created before cache_ is used.
  std::unique_ptr<MemoryBudget> memory_budget_;
  // Mounts harvest record zones into it; Open and Refresh reconcile it
  // with each scan's files.
  std::unique_ptr<ZoneMapStore> zone_maps_;
  std::unique_ptr<Mounter> mounter_;
  // The shared worker pool all queries' mount tasks (and refresh scans)
  // run on, with per-query priority classes. Destroyed after the executors.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TwoStageExecutor> two_stage_;
  // Stage-1 scan driver, shared by Open() and every Refresh().
  std::unique_ptr<Stage1Scanner> stage1_;

  // -- Epochs -------------------------------------------------------------
  std::unique_ptr<EpochManager> epochs_;
  // Serializes copy-on-write publishes (quarantine sync, Refresh's swap,
  // AnalyzeCoverage) and guards pinned_latest_/quarantine_table_version_.
  std::mutex publish_mu_;
  // Pin on the latest published epoch: backs the raw `catalog()` accessor
  // and is the clone source for the next publish. Never null after Open.
  EpochPtr pinned_latest_;
  // Serializes whole refreshes (scan + publish) against each other.
  std::mutex refresh_mu_;
  // Guards options_.two_stage, the database-wide TwoStageOptions defaults
  // (runtime setters vs concurrent queries and refreshes snapshotting them).
  std::mutex options_mu_;

  OpenStats open_stats_;
  // Registry health version the QUARANTINE metadata table last reflected.
  // Guarded by publish_mu_.
  uint64_t quarantine_table_version_ = 0;
};

}  // namespace dex

#endif  // DEX_CORE_DATABASE_H_

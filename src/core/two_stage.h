#ifndef DEX_CORE_TWO_STAGE_H_
#define DEX_CORE_TWO_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache_manager.h"
#include "core/file_registry.h"
#include "core/informativeness.h"
#include "core/mounter.h"
#include "core/plan_splitter.h"
#include "core/stats_base.h"
#include "engine/executor.h"
#include "exec/query_context.h"
#include "exec/thread_pool.h"
#include "shard/sharded_repository.h"

namespace dex {

/// \brief Knobs for the run-time optimization phase between the two stages.
struct TwoStageOptions {
  /// Apply σ_p(∪ ...) → ∪ σ_p(...) and fuse the selection into mounts
  /// (combined select-mount / select-cache-scan access paths).
  bool push_selection_into_union = true;

  /// The paper's strategy question (§3): (a) merge mounted data then run
  /// higher operators in bulk (false), or (b) run higher operators on
  /// sub-tables and merge results (true) — implemented by distributing the
  /// join with Q_f's result over the union of mounts.
  bool distribute_join_over_union = false;

  /// >0 enables multi-stage execution (§5): files of interest are ingested
  /// in batches of this size, with a breakpoint callback between batches.
  size_t mount_batch_size = 0;

  /// The pruning decision ladder (file/record/frame level + kernels). Per
  /// query overridable via QueryOptions::pruning.
  PruningOptions pruning;

  /// Simulated lanes for stage-2 ingestion: the files of interest planned
  /// as mounts are read/salvaged/decoded as tasks before the plan runs, and
  /// an ungoverned wave is charged the critical path of its per-task stall
  /// times list-scheduled over this many lanes (1 = their serial sum).
  /// 0 = hardware concurrency. The charge never depends on how the OS
  /// schedules the real threads.
  size_t num_threads = 0;

  /// What to do when a file of interest cannot be mounted cleanly: fail the
  /// query (the strict pre-fault-tolerance behavior), skip the file, or
  /// salvage every decodable record from it (default). See OnMountError.
  OnMountError on_mount_error = OnMountError::kSalvage;

  /// Retry/backoff for transiently failing file reads; backoff is charged
  /// as simulated I/O time.
  MountRetryPolicy retry;

  // -- Resource governance --------------------------------------------------
  // When any of the three limits below is set, stage-2 mount admission is
  // *governed*: files are admitted one per window, in union-branch order,
  // each against the query's own simulated timeline, so the cutoff — and
  // the partial result — is bit-identical at any num_threads (at the price
  // of no parallel mount overlap for that query). See DESIGN.md §8.8.

  /// Simulated-time deadline per query (0 = none): the query may charge this
  /// many nanoseconds to the SimDisk clock before admission stops /
  /// the query fails, per `on_resource_exhausted`. Deterministic.
  uint64_t sim_deadline_nanos = 0;

  /// Wall-clock deadline per query (0 = none). Inherently nondeterministic —
  /// meant for real interactive sessions, not reproducible experiments.
  uint64_t wall_deadline_nanos = 0;

  /// Database-wide memory budget (0 = unlimited) covering every mounted
  /// partial table of the running query plus all cache entries. On
  /// exhaustion, unpinned cache entries are evicted first; what happens then
  /// is `on_resource_exhausted`.
  uint64_t memory_budget_bytes = 0;

  /// Deadline/budget exhaustion policy: fail the query with
  /// DeadlineExceeded/ResourceExhausted, or degrade to a partial result with
  /// completeness accounting (default). Mirrors OnMountError.
  OnResourceExhausted on_resource_exhausted = OnResourceExhausted::kPartialResults;

  InformativenessModel model;
};

/// \brief Statistics of one two-stage execution. The admission fields
/// describe the stage-2 mount windows; `net_sim_nanos` covers scatter
/// requests and per-file gather responses, resend backoff included.
struct TwoStageStats : AdmissionStats {
  bool split = false;          // Q_f / Q_s decomposition happened
  bool stage1_only = false;    // metadata-only query: stage 1 answered it
  uint64_t stage1_nanos = 0;
  uint64_t rewrite_nanos = 0;  // run-time optimization phase
  uint64_t stage2_nanos = 0;
  size_t files_of_interest = 0;
  size_t files_planned_mount = 0;
  size_t files_planned_cache = 0;
  size_t files_pruned = 0;
  size_t files_quarantined = 0;  // files of interest dropped as quarantined
  size_t mount_tasks = 0;        // stage-2 mounts, each run as a task

  // -- Resource governance ------------------------------------------------
  size_t files_skipped_memory = 0;  // admission refused: budget exhausted
  /// Simulated / wall nanoseconds into the query when admission stopped
  /// (0 when it never did).
  uint64_t cutoff_sim_nanos = 0;
  uint64_t cutoff_wall_nanos = 0;
  /// High-water mark of this query's own reservations for its mounted
  /// partial tables (bytes; cache entries excluded), and cache entries
  /// evicted under budget pressure to admit new mounts.
  uint64_t mem_reserved_peak = 0;
  uint64_t mem_budget_evictions = 0;

  /// One row per shard that served this query's stage-2 mounts: its slice
  /// of the ingestion and what its link cost, summed over the windows. Each
  /// sharded window charges its slowest shard's disk + net time — each
  /// shard is one serial storage node, so the critical path is the slowest
  /// shard, not the slowest worker lane.
  using ShardRow = ShardedRepository::ShardCost;
  std::vector<ShardRow> shard_rows;

  /// What the query's mounts did, merged in branch order when each
  /// admission window commits. Only the counters: the mounts' warnings go
  /// to the query's list (QueryEnv::warnings).
  Mounter::MountOutcome mount;

  ExecStats exec;
  BreakpointInfo breakpoint;
  bool breakpoint_evaluated = false;

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = TwoStageStats;
    return std::tuple{
        StatField{"stage.stage1_nanos", &S::stage1_nanos},
        StatField{"stage.rewrite_nanos", &S::rewrite_nanos},
        StatField{"stage.stage2_nanos", &S::stage2_nanos},
        StatField{"stage.files_of_interest", &S::files_of_interest},
        StatField{"stage.files_planned_mount", &S::files_planned_mount},
        StatField{"stage.files_planned_cache", &S::files_planned_cache},
        StatField{"stage.files_pruned", &S::files_pruned},
        StatField{"stage.files_quarantined", &S::files_quarantined},
        StatField{"stage.mount_tasks", &S::mount_tasks},
        StatField{"stage.parallel_sim_nanos", &S::parallel_sim_nanos},
        StatField{"stage.serial_sim_nanos", &S::serial_sim_nanos},
        StatField{"shard.files_skipped_shard", &S::files_skipped_shard},
        StatField{"governance.files_skipped_deadline",
                  &S::files_skipped_deadline},
        StatField{"governance.files_skipped_memory", &S::files_skipped_memory},
        StatField{"governance.mem_budget_evictions",
                  &S::mem_budget_evictions}};
  }
};

/// \brief Executes queries under the paper's two-stage paradigm.
///
/// The four physical steps of §3: compile-time optimization happened before
/// (binder + predicate pushdown + SplitPlan); this class runs (1) the partial
/// execution of Q_f, (2) the run-time query optimization phase (rewrite rule
/// (1) plus options above), and (3) the second-stage execution with ALi,
/// which admits and mounts the files of interest as tasks before the plan
/// reads them (see TwoStageOptions::num_threads).
class TwoStageExecutor {
 public:
  /// Per-query execution environment for one Execute call. Under concurrent
  /// serving every query runs against its own pinned catalog epoch with its
  /// own effective options (the session's defaults merged with per-call
  /// overrides), so the executor's members — shared across queries — must
  /// not carry per-query state.
  struct QueryEnv {
    /// The query's snapshot catalog (a pinned epoch). Required; must stay
    /// alive for the whole Execute call.
    Catalog* catalog = nullptr;
    /// Effective options for this query. Required.
    const TwoStageOptions* options = nullptr;
    /// Worker-pool priority class for this query's mount tasks.
    int priority = ThreadPool::kPriorityNormal;
    /// The sharded repository (null = unsharded database). With more than
    /// one effective shard, stage-2 ingestion runs scatter/gather: mounts
    /// route to their owning shard's node, gathers charge the interconnect,
    /// and a window costs max over shards instead of a worker-lane makespan.
    ShardedRepository* shards = nullptr;
    /// Per-query shard count (0 = the repository's configured count; other
    /// values are clamped into [1, configured]).
    int num_shards = 0;
    /// The query's warning list: every mount's warnings merge into it in
    /// branch order. Required.
    Warnings* warnings = nullptr;
  };

  /// `pool` runs stage-2 mount tasks: the database-wide pool, so concurrent
  /// queries contend (and are prioritized) on the same workers. The
  /// deterministic time model is unaffected: charged time comes from
  /// list-scheduling task buckets onto `TwoStageOptions::num_threads` lanes,
  /// not from the pool's real size.
  ///
  /// `zone_maps`, when non-null, backs file-level pruning
  /// (PruningOptions::file_level) with its complete files' record zones.
  TwoStageExecutor(FileRegistry* registry, CacheManager* cache, Mounter* mounter,
                   const ZoneMapStore* zone_maps, ThreadPool* pool)
      : registry_(registry),
        cache_(cache),
        mounter_(mounter),
        zone_maps_(zone_maps),
        pool_(pool) {}

  /// Runs `plan` (analyzed, predicates pushed down). `callback` may be null;
  /// when set it is invoked at the stage boundary (and, under multi-stage
  /// execution, after every ingestion batch) and may abort the query.
  /// `profiler`, when set (EXPLAIN ANALYZE), receives per-operator counters
  /// for every executed plan (stage 1, per-batch ingestion, stage 2).
  /// `qctx` governs the execution: its cancel token is polled per batch and
  /// between ingestion batches, its deadline/budget gate mount admission
  /// (see TwoStageOptions' governance knobs), and its budget holds the
  /// query's reservations. `env` supplies the query's pinned catalog,
  /// effective options, priority and shards.
  Result<TablePtr> Execute(const PlanPtr& plan, const BreakpointCallback& callback,
                           TwoStageStats* stats, PlanProfiler* profiler,
                           QueryContext& qctx, const QueryEnv& env);

  /// Distinct values of the stage-1 result's `uri` column — "the files of
  /// interest are identified, and collected as a list of file URIs".
  static Result<std::vector<std::string>> FilesOfInterest(const TablePtr& qf_result);

  /// The pushed-down selection sitting directly on the actual-data scan
  /// (nullptr when the query has no predicate on actual data).
  static ExprPtr FindActualScanPredicate(const PlanPtr& plan,
                                         const Catalog& catalog);

  /// Applies rewrite rule (1): replaces the StageBreak with a result-scan of
  /// `qf_result_id` and every actual-table scan of `catalog` with a union
  /// over per-file access paths according to `decisions`, shaped by `opts`.
  static Result<PlanPtr> RewriteStage2(const PlanPtr& split_plan,
                                       const std::string& qf_result_id,
                                       const std::vector<FileDecision>& decisions,
                                       PlanPtr* union_node_out,
                                       const Catalog& catalog,
                                       const TwoStageOptions& opts);

 private:
  Result<std::vector<FileDecision>> DecideFiles(
      const std::vector<std::string>& files, const ExprPtr& d_predicate,
      const TwoStageOptions& opts);

  FileRegistry* registry_;
  CacheManager* cache_;
  Mounter* mounter_;
  const ZoneMapStore* zone_maps_;  // may be null (zone maps disabled)
  ThreadPool* pool_;               // not owned
};

}  // namespace dex

#endif  // DEX_CORE_TWO_STAGE_H_

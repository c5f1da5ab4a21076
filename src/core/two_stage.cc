#include "core/two_stage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "core/seismic_schema.h"
#include "engine/plan_profile.h"
#include "exec/sim_schedule.h"
#include "exec/task_group.h"
#include "io/file_io.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace dex {

namespace {

constexpr const char* kQfResultId = "__qf";
constexpr const char* kEmptyResultId = "__empty";
constexpr const char* kIngestedResultId = "__ingested";

// Payload of one scatter request ("mount these files") to a shard. Small and
// fixed: the request is dominated by the link latency, not its bytes.
constexpr uint64_t kShardRequestBytes = 256;

// Warnings accumulated into a query's MountOutcome are bounded the same way
// Mounter bounds its own (the database bounds again at copy time).
constexpr size_t kMaxShardWarnings = 32;

void AddShardWarning(Mounter::MountOutcome* outcome, std::string msg) {
  if (outcome->warnings.size() < kMaxShardWarnings) {
    outcome->warnings.push_back(std::move(msg));
  } else {
    ++outcome->warnings_dropped;
  }
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs `fn` at scope exit — used for the cleanup Execute owes on every
/// return path (budget reservations, cache pins).
template <typename F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};
template <typename F>
ScopeExit(F) -> ScopeExit<F>;

/// Book-keeping for stage-2 memory reservations and (when governed)
/// admission, shared with the mount_fn closure. Only touched from the
/// coordinator thread: the mount_fn runs inline as union branches open, and
/// governed queries additionally skip PremountUnion, so access is serial.
struct AdmissionState {
  bool stopped = false;           // no further mounts are admitted
  bool stopped_by_memory = false; // why: budget (true) vs deadline (false)
  Status reason;                  // DeadlineExceeded / ResourceExhausted
  uint64_t reserved_bytes = 0;    // partial-table reservations to release
};

/// Collects the column names read by the expressions of `node`'s subtree:
/// join, filter and fused-mount predicates, projections, group keys,
/// aggregate arguments and sort keys.
void CollectReadNames(const PlanPtr& node,
                      std::unordered_set<std::string>* names) {
  std::vector<std::string> found;
  const auto add = [&found](const ExprPtr& e) {
    if (e != nullptr) e->CollectColumnNames(&found);
  };
  add(node->predicate);
  for (const ExprPtr& e : node->project_exprs) add(e);
  for (const ExprPtr& e : node->group_by) add(e);
  for (const AggSpec& a : node->aggregates) add(a.arg);
  for (const SortKey& k : node->sort_keys) add(k.expr);
  names->insert(found.begin(), found.end());
  for (const PlanPtr& c : node->children) CollectReadNames(c, names);
}

/// True when Q_f's result-scan reaches the output with no Project or
/// Aggregate in between, so every Q_f column is part of the result (as in
/// SELECT *).
bool QfReachesOutput(const PlanPtr& node) {
  if (node->kind == PlanKind::kProject || node->kind == PlanKind::kAggregate) {
    return false;
  }
  if (node->kind == PlanKind::kResultScan && node->result_id == kQfResultId) {
    return true;
  }
  return std::any_of(node->children.begin(), node->children.end(),
                     QfReachesOutput);
}

/// Q_f's result narrowed to the columns `stage2_plan` reads, shared rather
/// than copied, and the plan's Q_f result-scans given its schema. A column
/// stays when its qualified or its bare name is read, so an unqualified
/// `uri` keeps every `uri` and name resolution in stage 2 is unchanged.
TablePtr NarrowQf(const TablePtr& qf, const PlanPtr& stage2_plan) {
  if (QfReachesOutput(stage2_plan)) return qf;
  std::unordered_set<std::string> names;
  CollectReadNames(stage2_plan, &names);
  const Schema& schema = *qf->schema();
  std::vector<size_t> keep;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& f = schema.field(i);
    if (names.count(f.QualifiedName()) > 0 || names.count(f.name) > 0) {
      keep.push_back(i);
    }
  }
  // A batch's row count lives in its columns: keep one even when stage 2
  // reads none (a cartesian product under COUNT(*)).
  if (keep.empty() && schema.num_fields() > 0) keep.push_back(0);
  if (keep.size() == schema.num_fields()) return qf;
  TablePtr narrowed = qf->SelectColumns(keep);
  std::function<void(const PlanPtr&)> retype = [&](const PlanPtr& node) {
    if (node->kind == PlanKind::kResultScan && node->result_id == kQfResultId) {
      node->output_schema = narrowed->schema();
    }
    for (const PlanPtr& c : node->children) retype(c);
  };
  retype(stage2_plan);
  return narrowed;
}

}  // namespace

Result<std::vector<std::string>> TwoStageExecutor::FilesOfInterest(
    const TablePtr& qf_result) {
  // Any column named "uri" identifies the file; F.uri and R.uri agree by the
  // join condition, so the first one found works.
  int uri_idx = -1;
  for (size_t i = 0; i < qf_result->schema()->num_fields(); ++i) {
    if (qf_result->schema()->field(i).name == "uri") {
      uri_idx = static_cast<int>(i);
      break;
    }
  }
  if (uri_idx < 0) {
    return Status::Internal(
        "stage-1 result carries no 'uri' column; files of interest are "
        "unidentifiable in schema " +
        qf_result->schema()->ToString());
  }
  const Column& col = *qf_result->column(static_cast<size_t>(uri_idx));
  std::vector<std::string> files;
  std::unordered_set<int32_t> seen_codes;
  for (size_t r = 0; r < qf_result->num_rows(); ++r) {
    if (seen_codes.insert(col.GetStringCode(r)).second) {
      files.push_back(col.GetString(r));
    }
  }
  return files;
}

ExprPtr TwoStageExecutor::FindActualScanPredicate(const PlanPtr& plan,
                                                  const Catalog& catalog) {
  if (plan->kind == PlanKind::kFilter &&
      plan->children[0]->kind == PlanKind::kScan) {
    auto kind = catalog.GetKind(plan->children[0]->table_name);
    if (kind.ok() && *kind == TableKind::kActual) return plan->predicate;
  }
  for (const PlanPtr& c : plan->children) {
    ExprPtr found = FindActualScanPredicate(c, catalog);
    if (found != nullptr) return found;
  }
  return nullptr;
}

Result<std::vector<FileDecision>> TwoStageExecutor::DecideFiles(
    const std::vector<std::string>& files, const ExprPtr& d_predicate,
    const TwoStageOptions& opts) {
  const std::string pred_repr =
      d_predicate == nullptr ? "" : d_predicate->ToString();
  const CachedWindow query_window = SummarizeTimeWindow(d_predicate);
  double value_lo = 0, value_hi = 0;
  const bool value_bounded =
      opts.pruning.file_level && zone_maps_ != nullptr &&
      ExtractBounds(d_predicate, "sample_value", &value_lo, &value_hi);

  std::vector<FileDecision> decisions;
  decisions.reserve(files.size());
  for (const std::string& uri : files) {
    FileDecision d;
    d.uri = uri;
    DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry_->Get(uri));
    const int64_t mtime = FileMtimeMillis(uri).ValueOr(entry.mtime_ms);
    if (value_bounded &&
        !zone_maps_->MayMatchValueRange(uri, value_lo, value_hi)) {
      d.action = FileDecision::Action::kSkip;
    } else if (cache_ != nullptr &&
               cache_->Probe(uri,
                             cache_->options().granularity ==
                                     CacheGranularity::kTuple
                                 ? pred_repr
                                 : "",
                             mtime, &query_window)) {
      d.action = FileDecision::Action::kCacheScan;
    } else {
      d.action = FileDecision::Action::kMount;
    }
    decisions.push_back(std::move(d));
  }
  return decisions;
}

Result<PlanPtr> TwoStageExecutor::RewriteStage2Impl(
    const PlanPtr& split_plan, const std::string& qf_result_id,
    const std::vector<FileDecision>& decisions, PlanPtr* union_node_out,
    Catalog* catalog, const TwoStageOptions& opts) {
  // Builds the union replacing one actual-table scan. `pred` is the
  // selection that sat on the scan (may be null).
  auto build_union = [&](const std::string& table_name,
                         const ExprPtr& pred) -> PlanPtr {
    std::vector<PlanPtr> branches;
    for (const FileDecision& d : decisions) {
      switch (d.action) {
        case FileDecision::Action::kSkip:
          break;
        case FileDecision::Action::kCacheScan: {
          PlanPtr node = MakeCacheScan(table_name, d.uri);
          if (pred != nullptr && opts.push_selection_into_union) {
            node = MakeFilter(pred, std::move(node));  // σ(cache-scan(f))
          }
          branches.push_back(std::move(node));
          break;
        }
        case FileDecision::Action::kMount: {
          PlanPtr node = MakeMount(table_name, d.uri);
          if (pred != nullptr && opts.push_selection_into_union) {
            node->predicate = pred;  // combined select-mount access path
          }
          branches.push_back(std::move(node));
          break;
        }
      }
    }
    PlanPtr result;
    if (branches.empty()) {
      // Best case of ALi: an empty set of files of interest means no actual
      // data is ever ingested.
      result = MakeResultScan(std::string(kEmptyResultId) + ":" + table_name,
                              nullptr /* filled by caller context */);
    } else {
      result = MakeUnion(std::move(branches));
    }
    if (union_node_out != nullptr) *union_node_out = result;
    if (pred != nullptr && !opts.push_selection_into_union) {
      result = MakeFilter(pred, std::move(result));
    }
    return result;
  };

  std::function<Result<PlanPtr>(const PlanPtr&)> transform =
      [&](const PlanPtr& node) -> Result<PlanPtr> {
    if (node->kind == PlanKind::kStageBreak) {
      return MakeResultScan(qf_result_id, node->children[0]->output_schema);
    }
    // σ_p(scan(a)) and bare scan(a) both expand via rewrite rule (1).
    if (node->kind == PlanKind::kFilter &&
        node->children[0]->kind == PlanKind::kScan) {
      auto kind = catalog->GetKind(node->children[0]->table_name);
      if (kind.ok() && *kind == TableKind::kActual) {
        return build_union(node->children[0]->table_name, node->predicate);
      }
    }
    if (node->kind == PlanKind::kScan) {
      auto kind = catalog->GetKind(node->table_name);
      if (kind.ok() && *kind == TableKind::kActual) {
        return build_union(node->table_name, nullptr);
      }
    }
    auto copy = std::make_shared<LogicalPlan>(*node);
    copy->children.clear();
    for (const PlanPtr& c : node->children) {
      DEX_ASSIGN_OR_RETURN(PlanPtr t, transform(c));
      copy->children.push_back(std::move(t));
    }
    return copy;
  };

  DEX_ASSIGN_OR_RETURN(PlanPtr rewritten, transform(split_plan));

  if (opts.distribute_join_over_union) {
    // Strategy (b): Join(∪ b_i, X) → ∪ Join(b_i, X) — run the join per
    // mounted sub-table, then merge the results.
    std::function<PlanPtr(const PlanPtr&)> distribute =
        [&](const PlanPtr& node) -> PlanPtr {
      auto copy = std::make_shared<LogicalPlan>(*node);
      copy->children.clear();
      for (const PlanPtr& c : node->children) {
        copy->children.push_back(distribute(c));
      }
      if (copy->kind == PlanKind::kJoin &&
          copy->children[0]->kind == PlanKind::kUnion) {
        std::vector<PlanPtr> joined;
        for (const PlanPtr& b : copy->children[0]->children) {
          joined.push_back(MakeJoin(copy->predicate, b, copy->children[1]));
        }
        if (!joined.empty()) return MakeUnion(std::move(joined));
      }
      return copy;
    };
    rewritten = distribute(rewritten);
  }
  return rewritten;
}

ThreadPool* TwoStageExecutor::Pool(size_t workers) {
  // A shared pool serves every query at its real size; `workers` only drives
  // the deterministic lane count in ListScheduleSimTimes, never the number
  // of OS threads actually running tasks.
  if (shared_pool_ != nullptr) return shared_pool_;
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
  }
  return pool_.get();
}

Status TwoStageExecutor::PremountUnion(const PlanPtr& union_node, size_t workers,
                                       int priority, TwoStageStats* stats,
                                       PremountMap* premounted,
                                       QueryContext* qctx,
                                       const PruningOptions* pruning,
                                       ShardedRepository* shards,
                                       int num_shards) {
  if (qctx != nullptr && qctx->has_limits()) {
    // Governed queries serialize admission: every mount opens inline in
    // union-branch order, so the deadline/budget cutoff is a function of the
    // deterministic simulated timeline instead of worker scheduling. The
    // trade (documented in DESIGN.md §8.8): no parallel mount overlap while
    // a deadline or memory budget is armed. (Sharded governed queries charge
    // their gather transfers inline in the mount_fn instead.)
    return Status::OK();
  }
  const bool sharded = shards != nullptr && num_shards > 1;
  if (union_node == nullptr || union_node->kind != PlanKind::kUnion) {
    return Status::OK();
  }
  if (!sharded && workers <= 1) {
    return Status::OK();  // legacy path: mounts open inline, one at a time
  }
  // The union's branch order is the files-of-interest order (URIs,
  // deterministic), so task index doubles as the deterministic tiebreak for
  // error reporting and time aggregation.
  std::vector<const LogicalPlan*> mounts;
  for (const PlanPtr& child : union_node->children) {
    if (child->kind == PlanKind::kMount) mounts.push_back(child.get());
  }
  // Unsharded: overlap needs at least two mounts. Sharded: the wave runs
  // even for a single mount at a single worker — the per-shard cost model
  // (not the worker-lane makespan) is what gets charged, and it must be the
  // same at every worker count.
  if (mounts.empty() || (!sharded && mounts.size() < 2)) return Status::OK();

  struct TaskResult {
    TablePtr table;
    Mounter::MountOutcome outcome;
    uint64_t sim_nanos = 0;
  };
  std::vector<TaskResult> results(mounts.size());
  TaskGroup group(workers > 1 ? Pool(workers) : nullptr, priority);
  for (size_t i = 0; i < mounts.size(); ++i) {
    const LogicalPlan* node = mounts[i];
    TaskResult* slot = &results[i];
    // Trace context (order key + parent span) is captured at spawn time and
    // installed on the worker thread by TaskGroup::Spawn itself, so the span
    // below parents under the coordinator's current span automatically.
    group.Spawn([this, node, slot, qctx, pruning]() -> Status {
      // A cancelled query skips tasks that have not started yet; the cancel
      // reason propagates through the group's lowest-index error rule.
      if (qctx != nullptr) DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
      obs::TraceSpan span("mount_task", "mount");
      span.AddArg("uri", node->uri);
      span.AddArg("lane", static_cast<uint64_t>(obs::CurrentThreadLane()));
      // Route this task's simulated stall time into its own bucket so the
      // wave's cost can be aggregated as a critical path afterwards,
      // independent of real thread interleaving.
      SimDisk::TaskTimeScope scope(&slot->sim_nanos);
      DEX_ASSIGN_OR_RETURN(slot->table,
                           mounter_->Mount(node->table_name, node->uri,
                                           node->predicate, &slot->outcome,
                                           qctx, pruning));
      return Status::OK();
    });
  }
  DEX_RETURN_NOT_OK(group.Wait());

  if (sharded) {
    // Sharded time model: each shard is one storage node with a serial disk
    // behind its own link. The wave costs max over shards of (the shard's
    // summed mount time + the shard's net time) — the slowest *shard*, not
    // the slowest worker lane — so the charge is identical at every worker
    // count and physical pool size. Worker threads only shorten wall time.
    const size_t n = static_cast<size_t>(num_shards);
    std::vector<int> owner(mounts.size());
    std::vector<uint64_t> disk_nanos(n, 0);
    std::vector<uint64_t> net_nanos(n, 0);
    std::vector<size_t> files(n, 0);
    for (size_t i = 0; i < mounts.size(); ++i) {
      owner[i] = shards->ShardOf(mounts[i]->uri, num_shards);
      disk_nanos[static_cast<size_t>(owner[i])] += results[i].sim_nanos;
      ++files[static_cast<size_t>(owner[i])];
    }
    // Gather on the coordinator at the barrier, in shard then branch order:
    // the k-th transfer on a link is the same transfer in every run, so the
    // per-link fault streams replay bit-identically. One scatter request per
    // shard with work, then each mounted table ships back over its link.
    SimNetwork* net = shards->network();
    std::vector<uint64_t> messages(n, 0);
    std::vector<Status> gather_failure(mounts.size(), Status::OK());
    for (int s = 0; s < num_shards; ++s) {
      if (files[static_cast<size_t>(s)] == 0) continue;
      // The shard's transfers land in its own bucket; the global clock is
      // charged once below with the wave's critical path.
      SimDisk::TaskTimeScope scope(&net_nanos[static_cast<size_t>(s)]);
      (void)net->Transfer(shards->LinkOf(s), kShardRequestBytes);
      ++messages[static_cast<size_t>(s)];
      for (size_t i = 0; i < mounts.size(); ++i) {
        if (owner[i] != s || results[i].table == nullptr) continue;
        Result<uint64_t> resp =
            net->Transfer(shards->LinkOf(s), results[i].table->ByteSize());
        ++messages[static_cast<size_t>(s)];
        if (!resp.ok()) gather_failure[i] = resp.status();
      }
    }
    uint64_t wave = 0;
    for (size_t s = 0; s < n; ++s) {
      wave = std::max(wave, disk_nanos[s] + net_nanos[s]);
      stats->serial_sim_nanos += disk_nanos[s] + net_nanos[s];
      stats->net_sim_nanos += net_nanos[s];
      if (files[s] == 0) continue;
      // Per-shard accounting row (merged across batched waves by shard id).
      TwoStageStats::ShardRow* row = nullptr;
      for (TwoStageStats::ShardRow& r : stats->shard_rows) {
        if (r.shard == static_cast<int>(s)) row = &r;
      }
      if (row == nullptr) {
        stats->shard_rows.push_back(TwoStageStats::ShardRow{});
        row = &stats->shard_rows.back();
        row->shard = static_cast<int>(s);
      }
      row->files += files[s];
      row->disk_sim_nanos += disk_nanos[s];
      row->net_sim_nanos += net_nanos[s];
      row->net_messages += messages[s];
      obs::Tracer::Instant(
          "shard_gather", "shard",
          {{"shard", std::to_string(s)},
           {"files", std::to_string(files[s])},
           {"disk_nanos", std::to_string(disk_nanos[s])},
           {"net_nanos", std::to_string(net_nanos[s])}});
    }
    registry_->disk()->ChargeDelay(wave);
    stats->parallel_sim_nanos += wave;
    stats->mount_tasks += mounts.size();
    for (size_t i = 0; i < mounts.size(); ++i) {
      stats->mount.MergeFrom(results[i].outcome);
      if (!gather_failure[i].ok()) {
        // The response never made it across the link (loss past the resend
        // budget, or the shard died mid-wave): quarantine the file and let
        // its branch contribute no rows — the same degradation as a
        // governance skip, and deterministic because the fault streams are.
        registry_->Quarantine(mounts[i]->uri, gather_failure[i].message());
        AddShardWarning(&stats->mount,
                        "gather of '" + mounts[i]->uri +
                            "' failed: " + gather_failure[i].message() +
                            " (file quarantined)");
        (*premounted)[mounts[i]->uri] = PremountEntry{
            mounts[i]->predicate,
            std::make_shared<Table>(mounts[i]->table_name, MakeDataSchema())};
        continue;
      }
      (*premounted)[mounts[i]->uri] =
          PremountEntry{mounts[i]->predicate, std::move(results[i].table)};
    }
    return Status::OK();
  }

  // Deterministic time model: greedy list scheduling of the per-task stall
  // times onto `workers` lanes, in task order. The makespan (longest lane)
  // is what a machine with `workers` disks-worth of overlap would have
  // stalled; it is charged to the medium as this wave's elapsed time.
  // (Contrast with the stage-1 scan, which charges the serial sum and only
  // *reports* the makespan: a query's latency should drop with workers,
  // Open/Refresh cost must not drift with the core count.)
  std::vector<uint64_t> task_nanos;
  task_nanos.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    task_nanos.push_back(results[i].sim_nanos);
    stats->mount.MergeFrom(results[i].outcome);
    (*premounted)[mounts[i]->uri] =
        PremountEntry{mounts[i]->predicate, std::move(results[i].table)};
  }
  const SimSchedule sched = ListScheduleSimTimes(task_nanos, workers);
  registry_->disk()->ChargeDelay(sched.makespan);
  stats->parallel_sim_nanos += sched.makespan;
  stats->serial_sim_nanos += sched.serial_sum;
  stats->mount_tasks += mounts.size();
  return Status::OK();
}

Result<TablePtr> TwoStageExecutor::Execute(const PlanPtr& plan,
                                           const BreakpointCallback& callback,
                                           TwoStageStats* stats,
                                           PlanProfiler* profiler,
                                           QueryContext* qctx,
                                           const QueryEnv* env) {
  DEX_CHECK(stats != nullptr);
  // The query's own view of the world: its pinned catalog epoch, effective
  // options, and pool priority. Defaults reproduce the single-query behavior.
  Catalog* catalog =
      (env != nullptr && env->catalog != nullptr) ? env->catalog : catalog_;
  const TwoStageOptions& opts =
      (env != nullptr && env->options != nullptr) ? *env->options : options_;
  const int priority = env != nullptr ? env->priority
                                      : ThreadPool::kPriorityNormal;
  ShardedRepository* shards =
      (env != nullptr && env->shards != nullptr) ? env->shards : nullptr;
  const int num_shards =
      shards != nullptr ? shards->ClampShardCount(env->num_shards) : 1;
  const bool sharded = shards != nullptr && num_shards > 1;
  stats->num_shards = static_cast<size_t>(num_shards);

  DEX_ASSIGN_OR_RETURN(SplitResult split, SplitPlan(plan, *catalog));

  const bool governed = qctx != nullptr && qctx->has_limits();
  const size_t workers = opts.num_threads == 0
                             ? ThreadPool::DefaultConcurrency()
                             : opts.num_threads;
  // Governed queries serialize stage-2 admission (PremountUnion is a no-op),
  // so report the effective lane count.
  stats->workers = governed ? 1 : workers;

  // Mounts completed ahead of plan execution by worker tasks. The mount_fn
  // serves them on URI + exact-predicate match; anything else (cache-scan
  // fallbacks, re-opened branches) takes the real serial mount path.
  auto premounted = std::make_shared<PremountMap>();
  // Reservation/admission book-keeping, shared with the mount_fn closure.
  // Present for every governed *or merely tracked* query (any qctx): an
  // ungoverned run still reserves against the unlimited budget, so its
  // `mem_reserved_peak` reports what a governed run would have needed.
  auto admission = qctx != nullptr ? std::make_shared<AdmissionState>() : nullptr;
  // URIs pinned in the cache for this query's cache-scan branches.
  std::vector<std::string> pinned_uris;
  ScopeExit cleanup{[&] {
    // All return paths: partial tables never outlive the query, so their
    // budget reservations don't either (the tables themselves are dangling
    // shared_ptrs that die with the plan — nothing reaches the catalog).
    if (admission != nullptr && admission->reserved_bytes > 0) {
      qctx->memory()->Release(admission->reserved_bytes);
    }
    if (cache_ != nullptr) {
      for (const std::string& uri : pinned_uris) cache_->Unpin(uri);
    }
    if (qctx != nullptr) stats->mem_reserved_peak = qctx->memory()->peak();
  }};

  // Flips the admission gate shut and records the cutoff (once).
  auto stop_admission = [this, stats, qctx](AdmissionState* adm, Status reason,
                                            bool by_memory, uint64_t sim_now) {
    adm->stopped = true;
    adm->stopped_by_memory = by_memory;
    adm->reason = std::move(reason);
    stats->cutoff_sim_nanos = sim_now - qctx->sim_start_nanos();
    stats->cutoff_wall_nanos = qctx->wall_elapsed_nanos();
    obs::Tracer::Instant(
        by_memory ? "memory_cutoff" : "deadline_cutoff", "governance",
        {{"cutoff_sim_nanos", std::to_string(stats->cutoff_sim_nanos)}});
    // Governed admission runs serially on the coordinator, so the cutoff
    // event is deterministic: the same file triggers it at any worker count.
    obs::FlightEvent ev;
    ev.kind = by_memory ? "memory_cutoff" : "deadline_cutoff";
    ev.detail = adm->reason.message();
    obs::FlightRecorder::Global().Record(std::move(ev));
  };

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.profiler = profiler;
  ctx.use_simd_kernels = opts.pruning.use_simd_kernels;
  if (qctx != nullptr) {
    // Per-batch cooperative cancellation in the volcano operators. Under
    // kFailQuery a deadline behaves like a cancellation (the whole plan
    // aborts); under kPartialResults it only gates mount admission, so the
    // plan runs to completion over whatever was admitted. Deadlines are
    // measured on the query's own sim timeline (qctx->sim_now): under
    // concurrent serving the global clock advances with everyone's I/O.
    SimDisk* disk = registry_->disk();
    const bool fail_on_deadline =
        qctx->has_deadline() &&
        opts.on_resource_exhausted == OnResourceExhausted::kFailQuery;
    ctx.interrupt_fn = [qctx, disk, fail_on_deadline]() -> Status {
      DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
      if (fail_on_deadline) {
        const uint64_t sim_now = qctx->sim_now(disk->stats().sim_nanos);
        if (qctx->DeadlineExpired(sim_now)) return qctx->DeadlineStatus(sim_now);
      }
      return Status::OK();
    };
  }
  // Gather charge for a mount performed *outside* the sharded premount wave
  // (governed admission serializes mounts inline; premount fallbacks): the
  // file's table still crosses its shard's link exactly once. These run
  // serially in union-branch order on the coordinator, so the per-link fault
  // streams replay deterministically; with no TaskTimeScope installed the
  // transfer charges the global clock (plus the query's tee) directly.
  auto charge_gather = [shards, num_shards, sharded,
                        stats](const std::string& uri, const TablePtr& t) {
    if (!sharded || t == nullptr) return;
    const int s = shards->ShardOf(uri, num_shards);
    Result<uint64_t> r =
        shards->network()->Transfer(shards->LinkOf(s), t->ByteSize());
    // A failed transfer (shard killed mid-query) still charged its attempt;
    // dead shards are normally filtered at planning time, so keep the
    // already-mounted data rather than inventing a second failure path.
    if (r.ok()) stats->net_sim_nanos += *r;
  };
  ctx.mount_fn = [this, stats, premounted, qctx, admission, stop_admission,
                  governed, charge_gather, &opts](
                     const std::string& table, const std::string& uri,
                     const ExprPtr& pred) -> Result<TablePtr> {
    auto it = premounted->find(uri);
    if (it != premounted->end() && it->second.predicate.get() == pred.get()) {
      TablePtr t = std::move(it->second.table);
      premounted->erase(it);  // each union branch opens once
      if (admission != nullptr && qctx->memory()->TryReserve(t->ByteSize())) {
        admission->reserved_bytes += t->ByteSize();
      }
      return Result<TablePtr>(std::move(t));
    }
    if (admission == nullptr) {
      auto mounted = mounter_->Mount(table, uri, pred, &stats->mount, qctx,
                                     &opts.pruning);
      if (mounted.ok()) charge_gather(uri, *mounted);
      return mounted;
    }
    if (!governed) {
      // Tracked but not limited: reservations against the unlimited budget
      // always succeed and only maintain the high-water mark.
      auto mounted = mounter_->Mount(table, uri, pred, &stats->mount, qctx,
                                     &opts.pruning);
      if (!mounted.ok()) return mounted;
      charge_gather(uri, *mounted);
      if (qctx->memory()->TryReserve((*mounted)->ByteSize())) {
        admission->reserved_bytes += (*mounted)->ByteSize();
      }
      return mounted;
    }
    // Governed admission, decided serially in union-branch order against
    // the query's simulated timeline: the set of admitted files is the same
    // at any worker count — and, with a per-query sim counter attached,
    // independent of what concurrent queries charge to the global clock.
    if (!admission->stopped) {
      const uint64_t sim_now =
          qctx->sim_now(registry_->disk()->stats().sim_nanos);
      if (qctx->DeadlineExpired(sim_now)) {
        stop_admission(admission.get(), qctx->DeadlineStatus(sim_now),
                       /*by_memory=*/false, sim_now);
      }
    }
    if (admission->stopped) {
      if (opts.on_resource_exhausted == OnResourceExhausted::kFailQuery) {
        return admission->reason;
      }
      stats->is_partial = true;
      if (admission->stopped_by_memory) {
        ++stats->files_skipped_memory;
      } else {
        ++stats->files_skipped_deadline;
      }
      // Degrade like a quarantined file: the branch contributes no rows.
      return Result<TablePtr>(std::make_shared<Table>(table, MakeDataSchema()));
    }
    auto mounted = mounter_->Mount(table, uri, pred, &stats->mount, qctx,
                                   &opts.pruning);
    if (!mounted.ok()) return mounted;
    // The mounted table ships to the coordinator before memory admission is
    // decided: a table the budget then discards still crossed the link.
    charge_gather(uri, *mounted);
    // Memory admission, two layers: the partial table must fit under the
    // query's own cap (if any) *and* in the shared budget. Eviction of
    // unpinned cache entries is tried only for the shared budget — freeing
    // cache space cannot help a query that exhausted its private cap.
    const uint64_t bytes = (*mounted)->ByteSize();
    MemoryBudget* budget = qctx->memory();
    const uint64_t query_cap = qctx->query_memory_limit();
    const bool over_query_cap =
        query_cap != 0 && admission->reserved_bytes + bytes > query_cap;
    bool reserved = false;
    if (!over_query_cap) {
      reserved = budget->TryReserve(bytes);
      if (!reserved && cache_ != nullptr) {
        const size_t evicted = cache_->EvictUnpinned(bytes);
        stats->mem_budget_evictions += evicted;
        if (evicted > 0) {
          obs::FlightEvent ev;
          ev.kind = "budget_eviction";
          ev.detail = std::to_string(evicted) + " cache entries for '" + uri + "'";
          obs::FlightRecorder::Global().Record(std::move(ev));
        }
        reserved = budget->TryReserve(bytes);
      }
    }
    if (!reserved) {
      const uint64_t sim_now =
          qctx->sim_now(registry_->disk()->stats().sim_nanos);
      stop_admission(
          admission.get(),
          over_query_cap
              ? Status::ResourceExhausted(
                    "per-query memory cap of " + std::to_string(query_cap) +
                    " bytes exhausted mounting '" + uri + "' (" +
                    std::to_string(bytes) + " bytes needed, " +
                    std::to_string(admission->reserved_bytes) + " reserved)")
              : Status::ResourceExhausted(
                    "memory budget of " + std::to_string(budget->limit()) +
                    " bytes exhausted mounting '" + uri + "' (" +
                    std::to_string(bytes) + " bytes needed, " +
                    std::to_string(budget->used()) + " in use)"),
          /*by_memory=*/true, sim_now);
      if (opts.on_resource_exhausted == OnResourceExhausted::kFailQuery) {
        return admission->reason;
      }
      // The triggering file's simulated I/O is already charged (the same
      // file triggers exhaustion at any worker count, so this stays
      // deterministic); its data cannot be admitted and is discarded.
      stats->is_partial = true;
      ++stats->files_skipped_memory;
      return Result<TablePtr>(std::make_shared<Table>(table, MakeDataSchema()));
    }
    admission->reserved_bytes += bytes;
    return mounted;
  };
  ctx.cache_fn = [this](const std::string& table, const std::string& uri) {
    return mounter_->CacheLookup(table, uri);
  };

  // ---- Metadata-only query: the first stage of execution is naturally
  // enough and the query is answered without any actual data ingestion.
  if (!split.references_actual) {
    stats->stage1_only = true;
    const uint64_t t0 = NowNanos();
    TablePtr result;
    {
      obs::TraceSpan span("stage1", "query");
      span.AddArg("stage1_only", uint64_t{1});
      DEX_ASSIGN_OR_RETURN(result, ExecutePlan(split.plan, &ctx));
      span.AddArg("rows", result->num_rows());
    }
    stats->stage1_nanos = NowNanos() - t0;
    stats->exec = ctx.stats;
    if (profiler != nullptr) profiler->AddRoot("stage 1 (metadata only)", split.plan);
    return result;
  }

  // ---- Stage 1: execute Q_f (when the query references metadata at all).
  TablePtr qf_result;
  std::vector<std::string> files;
  if (split.qf != nullptr) {
    stats->split = true;
    const uint64_t t0 = NowNanos();
    {
      obs::TraceSpan span("stage1", "query");
      DEX_ASSIGN_OR_RETURN(qf_result, ExecutePlan(split.qf, &ctx));
      span.AddArg("rows", qf_result->num_rows());
    }
    stats->stage1_nanos = NowNanos() - t0;
    if (profiler != nullptr) profiler->AddRoot("stage 1 (Q_f)", split.qf);
    DEX_ASSIGN_OR_RETURN(files, FilesOfInterest(qf_result));
  } else {
    // Without metadata restriction every available file is "relevant".
    // (AllUris already excludes quarantined files.)
    files = registry_->AllUris();
  }
  // Quarantined files can never be mounted; drop them from the files of
  // interest before planning so a permanently bad file is skipped for free
  // instead of failing (or stalling) every query that touches its stream.
  {
    const size_t before = files.size();
    files.erase(std::remove_if(files.begin(), files.end(),
                               [this](const std::string& uri) {
                                 return registry_->IsQuarantined(uri);
                               }),
                files.end());
    stats->files_quarantined = before - files.size();
  }
  // Files owned by a dead shard cannot be ingested at all: drop them at
  // planning time — before the rewrite builds their branches — so the query
  // degrades to the same deterministic partial-results path a governance
  // cutoff uses, instead of stalling on a link that refuses every transfer.
  if (sharded && shards->HasDeadShards()) {
    const size_t before = files.size();
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const std::string& uri) {
                                 return !shards->IsShardAlive(
                                     shards->ShardOf(uri, num_shards));
                               }),
                files.end());
    stats->files_skipped_shard = before - files.size();
    if (stats->files_skipped_shard > 0) {
      stats->is_partial = true;
      obs::Tracer::Instant(
          "shard_skip", "shard",
          {{"files_skipped_shard",
            std::to_string(stats->files_skipped_shard)}});
    }
  }
  stats->files_of_interest = files.size();

  // ---- Run-time query optimization phase. The span closes where
  // rewrite_nanos stops counting (or at any early return on abort/error).
  const uint64_t t_rw = NowNanos();
  std::optional<obs::TraceSpan> rewrite_span;
  rewrite_span.emplace("rewrite", "query");
  rewrite_span->AddArg("files_of_interest", static_cast<uint64_t>(files.size()));
  const ExprPtr d_predicate = FindActualScanPredicate(split.plan, *catalog);
  DEX_ASSIGN_OR_RETURN(std::vector<FileDecision> decisions,
                       DecideFiles(files, d_predicate, opts));
  for (const FileDecision& d : decisions) {
    switch (d.action) {
      case FileDecision::Action::kMount:
        ++stats->files_planned_mount;
        break;
      case FileDecision::Action::kCacheScan:
        ++stats->files_planned_cache;
        break;
      case FileDecision::Action::kSkip:
        ++stats->files_pruned;
        break;
    }
  }
  // Pin the cache entries the rewritten plan will scan: budget-pressure
  // eviction while the query runs must not invalidate branches of the very
  // plan being executed. Unpinned by `cleanup` on every return path.
  if (cache_ != nullptr) {
    for (const FileDecision& d : decisions) {
      if (d.action == FileDecision::Action::kCacheScan) {
        cache_->Pin(d.uri);
        pinned_uris.push_back(d.uri);
      }
    }
  }

  // Informativeness at the breakpoint. The stage-1-harvested record-window
  // index backs the estimate when Q_f carries no record-level columns.
  // The file list goes only to the callbacks: stats keep its size
  // (files_of_interest), not a copy of every URI per query.
  DEX_ASSIGN_OR_RETURN(
      BreakpointInfo breakpoint,
      EstimateInformativeness(qf_result, files, *registry_, cache_, d_predicate,
                              opts.model, info_index_));
  breakpoint.files_pruned = stats->files_pruned;
  stats->breakpoint_evaluated = true;
  const BreakpointDecision decision =
      callback != nullptr ? callback(breakpoint) : BreakpointDecision::kContinue;
  stats->breakpoint = std::move(breakpoint);
  stats->breakpoint.files_of_interest = {};
  if (decision == BreakpointDecision::kAbort) {
    return Status::Aborted("query aborted by the explorer at the breakpoint");
  }

  PlanPtr union_node;
  DEX_ASSIGN_OR_RETURN(PlanPtr stage2_plan,
                       RewriteStage2Impl(split.plan, kQfResultId, decisions,
                                         &union_node, catalog, opts));

  // Named results available to stage 2: Q_f's result, narrowed to the
  // columns stage 2 reads (stage 1's consumers above saw all of it).
  if (qf_result != nullptr) {
    ctx.named_results[kQfResultId] = NarrowQf(qf_result, stage2_plan);
  }
  // Empty-relation placeholders (one per actual table) for the zero-files
  // case; fix up the result-scan schemas too.
  std::function<Status(const PlanPtr&)> fix_empties =
      [&](const PlanPtr& node) -> Status {
    if (node->kind == PlanKind::kResultScan &&
        node->result_id.rfind(kEmptyResultId, 0) == 0) {
      const std::string table = node->result_id.substr(strlen(kEmptyResultId) + 1);
      DEX_ASSIGN_OR_RETURN(TablePtr base, catalog->GetTable(table));
      auto empty = std::make_shared<Table>(table, base->schema());
      ctx.named_results[node->result_id] = empty;
      node->output_schema = base->schema();
    }
    for (const PlanPtr& c : node->children) {
      DEX_RETURN_NOT_OK(fix_empties(c));
    }
    return Status::OK();
  };
  DEX_RETURN_NOT_OK(fix_empties(stage2_plan));
  DEX_RETURN_NOT_OK(AnalyzePlan(stage2_plan, *catalog));
  if (rewrite_span.has_value()) {
    rewrite_span->AddArg("planned_mount",
                         static_cast<uint64_t>(stats->files_planned_mount));
    rewrite_span->AddArg("planned_cache",
                         static_cast<uint64_t>(stats->files_planned_cache));
    rewrite_span->AddArg("pruned", static_cast<uint64_t>(stats->files_pruned));
    rewrite_span.reset();
  }
  stats->rewrite_nanos = NowNanos() - t_rw;

  // ---- Stage 2: multi-stage (batched) or single-shot.
  const uint64_t t2 = NowNanos();
  std::optional<obs::TraceSpan> stage2_span;
  stage2_span.emplace("stage2", "query");
  const bool batched = opts.mount_batch_size > 0 && union_node != nullptr &&
                       union_node->kind == PlanKind::kUnion &&
                       union_node->children.size() > opts.mount_batch_size;
  if (batched) {
    // Ingest the union's branches in batches, with a breakpoint after each.
    DEX_ASSIGN_OR_RETURN(TablePtr base, catalog->GetTable(kDataTableName));
    auto buffer = std::make_shared<Table>(kIngestedResultId, base->schema());
    const size_t batch = opts.mount_batch_size;
    const size_t num_batches =
        (union_node->children.size() + batch - 1) / batch;
    for (size_t b = 0; b < num_batches; ++b) {
      // Clean cancellation point between ingestion batches: nothing of the
      // aborted query survives except cache/quarantine entries already
      // committed, which are consistent on their own.
      if (qctx != nullptr) DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
      std::vector<PlanPtr> group(
          union_node->children.begin() + static_cast<long>(b * batch),
          union_node->children.begin() +
              static_cast<long>(std::min((b + 1) * batch,
                                         union_node->children.size())));
      PlanPtr sub = MakeUnion(std::move(group));
      DEX_RETURN_NOT_OK(AnalyzePlan(sub, *catalog));
      obs::TraceSpan batch_span("ingest_batch", "query");
      batch_span.AddArg("batch", static_cast<uint64_t>(b + 1));
      // Parallelism is per ingestion wave: each batch's mounts overlap, the
      // breakpoint between batches stays a clean barrier.
      DEX_RETURN_NOT_OK(PremountUnion(sub, workers, priority, stats,
                                      premounted.get(), qctx, &opts.pruning,
                                      shards, num_shards));
      DEX_ASSIGN_OR_RETURN(TablePtr part, ExecutePlan(sub, &ctx));
      if (profiler != nullptr) {
        profiler->AddRoot("stage 2 ingestion (batch " + std::to_string(b + 1) +
                              ")",
                          sub);
      }
      DEX_RETURN_NOT_OK(buffer->AppendTable(*part));
      if (callback != nullptr) {
        BreakpointInfo progress = stats->breakpoint;
        progress.files_of_interest = files;
        progress.batch_index = b + 1;
        progress.num_batches = num_batches;
        progress.rows_ingested_so_far = buffer->num_rows();
        if (callback(progress) == BreakpointDecision::kAbort) {
          return Status::Aborted("query aborted during multi-stage ingestion");
        }
      }
    }
    ctx.named_results[kIngestedResultId] = buffer;
    // Splice the buffer in place of the union and run the rest of the plan.
    std::function<PlanPtr(const PlanPtr&)> splice =
        [&](const PlanPtr& node) -> PlanPtr {
      if (node == union_node) {
        return MakeResultScan(kIngestedResultId, base->schema());
      }
      auto copy = std::make_shared<LogicalPlan>(*node);
      copy->children.clear();
      for (const PlanPtr& c : node->children) copy->children.push_back(splice(c));
      return copy;
    };
    stage2_plan = splice(stage2_plan);
    DEX_RETURN_NOT_OK(AnalyzePlan(stage2_plan, *catalog));
  } else {
    DEX_RETURN_NOT_OK(PremountUnion(union_node, workers, priority, stats,
                                    premounted.get(), qctx, &opts.pruning,
                                    shards, num_shards));
  }
  DEX_ASSIGN_OR_RETURN(TablePtr result, ExecutePlan(stage2_plan, &ctx));
  if (profiler != nullptr) profiler->AddRoot("stage 2", stage2_plan);
  if (stage2_span.has_value()) {
    stage2_span->AddArg("rows", result->num_rows());
    stage2_span.reset();
  }
  stats->stage2_nanos = NowNanos() - t2;
  stats->exec = ctx.stats;
  stats->exec.range_skipped_rows += stats->mount.counters.range_skipped_rows;
  return result;
}

}  // namespace dex

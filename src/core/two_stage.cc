#include "core/two_stage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>
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

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs `fn` at scope exit — used for the cleanup Execute owes on every
/// return path (cache pins).
template <typename F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};
template <typename F>
ScopeExit(F) -> ScopeExit<F>;

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

/// One query's stage-2 admission: the only caller of Mounter::Mount here.
/// Mount branches are taken in union order and cut into admission windows,
/// all of them in one window when the query has no limits and one file per
/// window when it is governed. A window
///  1. checks the deadline (governed only);
///  2. runs its mounts as tasks, each into its own SimDisk::TaskTimeScope
///     bucket;
///  3. charges its cost as one delay: the makespan of the buckets
///     list-scheduled onto the query's lanes, or, sharded, the slowest
///     shard of ShardedRepository::ScatterGather;
///  4. commits in branch order: outcomes merge, a failed gather quarantines
///     its file, and each table reserves its bytes in the memory budget,
///     evicting unpinned cache entries first. A table that still does not
///     fit stops admission.
/// A skipped or quarantined file becomes an empty table, so its branch
/// contributes no rows. Governed windows run one after another on the
/// query's own simulated timeline, so the cutoff falls on the same file at
/// any lane count. Only the coordinator thread touches this object.
class Stage2Admission {
 public:
  Stage2Admission(Mounter* mounter, FileRegistry* registry,
                  CacheManager* cache, ThreadPool* pool, QueryContext* qctx,
                  const TwoStageOptions* opts, TwoStageStats* stats,
                  Warnings* warnings, ShardedRepository* shards,
                  int num_shards, size_t lanes, int priority)
      : mounter_(mounter),
        registry_(registry),
        cache_(cache),
        pool_(pool),
        qctx_(qctx),
        opts_(opts),
        stats_(stats),
        warnings_(warnings),
        shards_(shards),
        num_shards_(num_shards),
        lanes_(lanes),
        priority_(priority),
        governed_(qctx->has_limits()) {}

  // Partial tables die with the query's plan and never reach the catalog,
  // so their reservations end with the query on every return path.
  ~Stage2Admission() { qctx_->memory()->Release(reserved_bytes_); }

  Stage2Admission(const Stage2Admission&) = delete;
  Stage2Admission& operator=(const Stage2Admission&) = delete;

  /// Admits the mount branches of `union_node` ahead of the plan that reads
  /// them (nothing for a node that is not a union).
  Status AdmitUnion(const PlanPtr& union_node) {
    std::vector<const LogicalPlan*> mounts;
    if (union_node != nullptr && union_node->kind == PlanKind::kUnion) {
      for (const PlanPtr& branch : union_node->children) {
        if (branch->kind == PlanKind::kMount) mounts.push_back(branch.get());
      }
    }
    DEX_ASSIGN_OR_RETURN(std::vector<TablePtr> tables, Wave(mounts));
    for (size_t i = 0; i < mounts.size(); ++i) {
      admitted_[mounts[i]->uri] = {mounts[i]->predicate, std::move(tables[i])};
    }
    return Status::OK();
  }

  /// The plan's mount_fn. An admitted table is handed out once, on URI and
  /// exact predicate-instance match (each union branch opens once). Any
  /// other mount the plan opens, such as a cache-scan whose entry is gone
  /// or a branch outside the admitted union, runs as a one-file window.
  Result<TablePtr> Open(const std::string& table, const std::string& uri,
                        const ExprPtr& pred) {
    auto it = admitted_.find(uri);
    if (it != admitted_.end() && it->second.predicate.get() == pred.get()) {
      TablePtr t = std::move(it->second.table);
      admitted_.erase(it);
      return t;
    }
    PlanPtr node = MakeMount(table, uri);
    node->predicate = pred;
    DEX_ASSIGN_OR_RETURN(std::vector<TablePtr> one, Wave({node.get()}));
    return std::move(one[0]);
  }

 private:
  struct Admitted {
    ExprPtr predicate;  // the plan node's fused-predicate instance
    TablePtr table;
  };
  struct Slot {
    TablePtr table;
    Mounter::MountOutcome outcome;
    uint64_t sim_nanos = 0;
  };

  /// One table per mount, in order: its rows, or an empty table.
  Result<std::vector<TablePtr>> Wave(
      const std::vector<const LogicalPlan*>& mounts) {
    std::vector<TablePtr> tables(mounts.size());
    const size_t window = governed_ ? 1 : mounts.size();
    for (size_t begin = 0; begin < mounts.size(); begin += window) {
      if (governed_ && !stopped_ && qctx_->DeadlineExpired(SimNow())) {
        Stop(qctx_->DeadlineStatus(SimNow()), /*by_memory=*/false);
      }
      if (stopped_) {
        for (size_t i = begin; i < mounts.size(); ++i) {
          DEX_ASSIGN_OR_RETURN(tables[i], Skip(*mounts[i]));
        }
        break;
      }
      std::vector<Slot> slots(std::min(window, mounts.size() - begin));
      TaskGroup group(slots.size() > 1 ? pool_ : nullptr, priority_);
      for (size_t i = 0; i < slots.size(); ++i) {
        const LogicalPlan* node = mounts[begin + i];
        Slot* slot = &slots[i];
        // TaskGroup::Spawn captures the trace context, so the span parents
        // under the coordinator's current span on any thread.
        group.Spawn([this, node, slot]() -> Status {
          // A cancelled query skips the tasks that have not started yet.
          DEX_RETURN_NOT_OK(qctx_->CheckInterrupt());
          obs::TraceSpan span("mount_task", "mount");
          span.AddArg("uri", node->uri);
          span.AddArg("lane", static_cast<uint64_t>(obs::CurrentThreadLane()));
          SimDisk::TaskTimeScope scope(&slot->sim_nanos);
          DEX_ASSIGN_OR_RETURN(
              slot->table,
              mounter_->Mount(node->table_name, node->uri, node->predicate,
                              &slot->outcome, qctx_, &opts_->pruning));
          return Status::OK();
        });
      }
      DEX_RETURN_NOT_OK(group.Wait());
      const std::vector<Status> gathered = Charge(&mounts[begin], slots);
      for (size_t i = 0; i < slots.size(); ++i) {
        DEX_ASSIGN_OR_RETURN(tables[begin + i],
                             Commit(*mounts[begin + i], &slots[i], gathered[i]));
      }
    }
    return tables;
  }

  /// Charges a window to the simulated clock as one delay and returns each
  /// mount's gather status (all OK when unsharded).
  std::vector<Status> Charge(const LogicalPlan* const* mounts,
                             const std::vector<Slot>& slots) {
    std::vector<Status> gathered(slots.size(), Status::OK());
    uint64_t critical_path = 0;
    if (shards_ != nullptr) {
      std::vector<ShardedRepository::GatherItem> items;
      for (size_t i = 0; i < slots.size(); ++i) {
        items.push_back({shards_->ShardOf(mounts[i]->uri, num_shards_),
                         slots[i].sim_nanos, true, slots[i].table->ByteSize()});
      }
      ShardedRepository::GatherCost cost = shards_->ScatterGather(items);
      critical_path = cost.critical_path_nanos;
      stats_->serial_sim_nanos += cost.serial_nanos;
      stats_->net_sim_nanos += cost.net_nanos;
      // Rows merge across windows by shard id.
      for (const ShardedRepository::ShardCost& s : cost.shards) {
        auto row = std::find_if(
            stats_->shard_rows.begin(), stats_->shard_rows.end(),
            [&s](const TwoStageStats::ShardRow& r) { return r.shard == s.shard; });
        if (row == stats_->shard_rows.end()) {
          stats_->shard_rows.push_back(s);
          continue;
        }
        row->files += s.files;
        row->disk_sim_nanos += s.disk_sim_nanos;
        row->net_sim_nanos += s.net_sim_nanos;
        row->net_messages += s.net_messages;
      }
      gathered = std::move(cost.failures);
    } else {
      std::vector<uint64_t> task_nanos;
      for (const Slot& slot : slots) task_nanos.push_back(slot.sim_nanos);
      const SimSchedule sched = ListScheduleSimTimes(task_nanos, lanes_);
      critical_path = sched.makespan;
      stats_->serial_sim_nanos += sched.serial_sum;
    }
    registry_->disk()->ChargeDelay(critical_path);
    stats_->parallel_sim_nanos += critical_path;
    stats_->mount_tasks += slots.size();
    return gathered;
  }

  /// Commits one mounted file: its outcome merges, then a failed gather
  /// quarantines it, else its table reserves its bytes or stops admission.
  Result<TablePtr> Commit(const LogicalPlan& node, Slot* slot,
                          const Status& gathered) {
    stats_->mount.counters += slot->outcome.counters;
    warnings_->MergeWarnings(slot->outcome);
    if (!gathered.ok()) {
      // The response never crossed the link (loss past the resend budget,
      // or the shard died mid-query): the file is quarantined and serves no
      // rows, deterministically because the link fault streams are.
      registry_->Quarantine(node.uri, gathered.message());
      warnings_->AddWarning("gather of '" + node.uri + "' failed: " +
                            gathered.message() + " (file quarantined)");
      return Empty(node);
    }
    if (stopped_) return Skip(node);
    // The table must fit under the query's own cap (if any) and in the
    // shared budget. Evicting unpinned cache entries can only help the
    // shared budget.
    const uint64_t bytes = slot->table->ByteSize();
    MemoryBudget* budget = qctx_->memory();
    const uint64_t query_cap = qctx_->query_memory_limit();
    const bool over_query_cap =
        query_cap != 0 && reserved_bytes_ + bytes > query_cap;
    bool reserved = false;
    if (!over_query_cap) {
      reserved = budget->TryReserve(bytes);
      if (!reserved && cache_ != nullptr) {
        const size_t evicted = cache_->EvictUnpinned(bytes);
        stats_->mem_budget_evictions += evicted;
        if (evicted > 0) {
          obs::FlightEvent ev;
          ev.kind = "budget_eviction";
          ev.detail = std::to_string(evicted) + " cache entries for '" +
                      node.uri + "'";
          obs::FlightRecorder::Global().Record(std::move(ev));
        }
        reserved = budget->TryReserve(bytes);
      }
    }
    if (!reserved) {
      const std::string needed = " bytes exhausted mounting '" + node.uri +
                                 "' (" + std::to_string(bytes) +
                                 " bytes needed, ";
      Stop(over_query_cap
               ? Status::ResourceExhausted(
                     "per-query memory cap of " + std::to_string(query_cap) +
                     needed + std::to_string(reserved_bytes_) + " reserved)")
               : Status::ResourceExhausted(
                     "memory budget of " + std::to_string(budget->limit()) +
                     needed + std::to_string(budget->used()) + " in use)"),
           /*by_memory=*/true);
      // The file's simulated I/O is charged already, and the same file
      // exhausts the budget at any lane count; its rows are discarded.
      return Skip(node);
    }
    reserved_bytes_ += bytes;
    // Reservations are held until the query ends, so the running total is
    // the query's own high-water mark.
    stats_->mem_reserved_peak = reserved_bytes_;
    return std::move(slot->table);
  }

  /// A branch refused admission: the query fails under kFailQuery, else
  /// the result is partial and the branch reads no rows.
  Result<TablePtr> Skip(const LogicalPlan& node) {
    if (opts_->on_resource_exhausted == OnResourceExhausted::kFailQuery) {
      return reason_;
    }
    stats_->is_partial = true;
    ++(stopped_by_memory_ ? stats_->files_skipped_memory
                          : stats_->files_skipped_deadline);
    return Empty(node);
  }

  static TablePtr Empty(const LogicalPlan& node) {
    return std::make_shared<Table>(node.table_name, MakeDataSchema());
  }

  /// Closes admission and records the cutoff, once.
  void Stop(Status reason, bool by_memory) {
    stopped_ = true;
    stopped_by_memory_ = by_memory;
    reason_ = std::move(reason);
    stats_->cutoff_sim_nanos = SimNow() - qctx_->sim_start_nanos();
    stats_->cutoff_wall_nanos = qctx_->wall_elapsed_nanos();
    const char* kind = by_memory ? "memory_cutoff" : "deadline_cutoff";
    obs::Tracer::Instant(
        kind, "governance",
        {{"cutoff_sim_nanos", std::to_string(stats_->cutoff_sim_nanos)}});
    obs::FlightEvent ev;
    ev.kind = kind;
    ev.detail = reason_.message();
    obs::FlightRecorder::Global().Record(std::move(ev));
  }

  /// The query's position on its own simulated timeline.
  uint64_t SimNow() const {
    return qctx_->sim_now(registry_->disk()->stats().sim_nanos);
  }

  Mounter* mounter_;
  FileRegistry* registry_;
  CacheManager* cache_;
  ThreadPool* pool_;  // null: tasks run inline on the coordinator
  QueryContext* qctx_;
  const TwoStageOptions* opts_;
  TwoStageStats* stats_;
  Warnings* warnings_;
  ShardedRepository* shards_;  // null when the query runs unsharded
  int num_shards_;
  size_t lanes_;
  int priority_;
  bool governed_;
  bool stopped_ = false;            // no further mounts are admitted
  bool stopped_by_memory_ = false;  // why: budget (true) or deadline (false)
  Status reason_;                   // DeadlineExceeded / ResourceExhausted
  uint64_t reserved_bytes_ = 0;     // this query's reservations
  std::unordered_map<std::string, Admitted> admitted_;  // not yet opened
};

}  // namespace

Result<std::vector<std::string>> TwoStageExecutor::FilesOfInterest(
    const TablePtr& qf_result) {
  DEX_ASSIGN_OR_RETURN(size_t uri_idx, FirstUriColumn(*qf_result->schema()));
  const Column& col = *qf_result->column(uri_idx);
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

  // A cache that cannot hit needs no mtime: Probe counts the miss before
  // it looks at one.
  const bool cache_can_hit =
      cache_ != nullptr && cache_->options().policy != CachePolicy::kNone;

  std::vector<FileDecision> decisions;
  decisions.reserve(files.size());
  for (const std::string& uri : files) {
    FileDecision d;
    d.uri = uri;
    DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry_->Get(uri));
    d.size_bytes = entry.size_bytes;
    if (value_bounded &&
        !zone_maps_->MayMatchValueRange(uri, value_lo, value_hi)) {
      d.action = FileDecision::Action::kSkip;
    } else if (cache_ != nullptr &&
               cache_->Probe(uri,
                             cache_->options().granularity ==
                                     CacheGranularity::kTuple
                                 ? pred_repr
                                 : "",
                             cache_can_hit
                                 ? FileMtimeMillis(uri).ValueOr(entry.mtime_ms)
                                 : entry.mtime_ms,
                             &query_window)) {
      d.action = FileDecision::Action::kCacheScan;
    } else {
      d.action = FileDecision::Action::kMount;
    }
    decisions.push_back(std::move(d));
  }
  return decisions;
}

Result<PlanPtr> TwoStageExecutor::RewriteStage2(
    const PlanPtr& split_plan, const std::string& qf_result_id,
    const std::vector<FileDecision>& decisions, PlanPtr* union_node_out,
    const Catalog& catalog, const TwoStageOptions& opts) {
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
      auto kind = catalog.GetKind(node->children[0]->table_name);
      if (kind.ok() && *kind == TableKind::kActual) {
        return build_union(node->children[0]->table_name, node->predicate);
      }
    }
    if (node->kind == PlanKind::kScan) {
      auto kind = catalog.GetKind(node->table_name);
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

Result<TablePtr> TwoStageExecutor::Execute(const PlanPtr& plan,
                                           const BreakpointCallback& callback,
                                           TwoStageStats* stats,
                                           PlanProfiler* profiler,
                                           QueryContext& qctx,
                                           const QueryEnv& env) {
  DEX_CHECK(stats != nullptr && env.warnings != nullptr);
  Catalog* catalog = env.catalog;
  const TwoStageOptions& opts = *env.options;
  const int num_shards =
      env.shards != nullptr ? env.shards->ClampShardCount(env.num_shards) : 1;
  // Null when the query runs unsharded.
  ShardedRepository* shards = num_shards > 1 ? env.shards : nullptr;
  stats->num_shards = static_cast<size_t>(num_shards);

  DEX_ASSIGN_OR_RETURN(SplitResult split, SplitPlan(plan, *catalog));

  const bool governed = qctx.has_limits();
  const size_t workers = opts.num_threads == 0
                             ? ThreadPool::DefaultConcurrency()
                             : opts.num_threads;
  // Governed admission runs one-file windows, one after another.
  stats->workers = governed ? 1 : workers;
  Stage2Admission admission(mounter_, registry_, cache_,
                            governed || workers <= 1 ? nullptr : pool_,
                            &qctx, &opts, stats, env.warnings, shards,
                            num_shards, workers, env.priority);

  // URIs pinned in the cache for this query's cache-scan branches.
  std::vector<std::string> pinned_uris;
  ScopeExit cleanup{[&] {
    if (cache_ != nullptr) {
      for (const std::string& uri : pinned_uris) cache_->Unpin(uri);
    }
  }};

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.profiler = profiler;
  ctx.use_simd_kernels = opts.pruning.use_simd_kernels;
  // Per-batch cooperative cancellation in the volcano operators. Under
  // kFailQuery a deadline behaves like a cancellation (the whole plan
  // aborts); under kPartialResults it only gates mount admission, so the
  // plan runs to completion over whatever was admitted. Deadlines are
  // measured on the query's own sim timeline (qctx.sim_now): under
  // concurrent serving the global clock advances with everyone's I/O.
  SimDisk* disk = registry_->disk();
  const bool fail_on_deadline =
      qctx.has_deadline() &&
      opts.on_resource_exhausted == OnResourceExhausted::kFailQuery;
  ctx.interrupt_fn = [&qctx, disk, fail_on_deadline]() -> Status {
    DEX_RETURN_NOT_OK(qctx.CheckInterrupt());
    if (fail_on_deadline) {
      const uint64_t sim_now = qctx.sim_now(disk->stats().sim_nanos);
      if (qctx.DeadlineExpired(sim_now)) return qctx.DeadlineStatus(sim_now);
    }
    return Status::OK();
  };
  ctx.mount_fn = [&admission](const std::string& table, const std::string& uri,
                              const ExprPtr& pred) {
    return admission.Open(table, uri, pred);
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
    // Without metadata restriction every file of the query's epoch is
    // "relevant": F's uris, in row (enumeration) order.
    DEX_ASSIGN_OR_RETURN(TablePtr f_table, catalog->GetTable(kFileTableName));
    DEX_ASSIGN_OR_RETURN(files, FilesOfInterest(f_table));
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
  if (shards != nullptr && shards->HasDeadShards()) {
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
  // Informativeness at the breakpoint: the decisions, counted once, and the
  // records of the files they read, from Q_f or the query's own R.
  DEX_ASSIGN_OR_RETURN(
      stats->breakpoint,
      EstimateInformativeness(qf_result, decisions, *catalog, d_predicate,
                              opts.model));
  stats->breakpoint_evaluated = true;
  stats->files_planned_cache = stats->breakpoint.files_cached;
  stats->files_pruned = stats->breakpoint.files_pruned;
  stats->files_planned_mount =
      decisions.size() - stats->files_planned_cache - stats->files_pruned;
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
  // The file list goes only to the callback: stats keep its size
  // (files_of_interest), not a copy of every URI per query.
  if (callback != nullptr) {
    BreakpointInfo seen = stats->breakpoint;
    seen.files_of_interest = files;
    if (callback(seen) == BreakpointDecision::kAbort) {
      return Status::Aborted("query aborted by the explorer at the breakpoint");
    }
  }

  PlanPtr union_node;
  DEX_ASSIGN_OR_RETURN(PlanPtr stage2_plan,
                       RewriteStage2(split.plan, kQfResultId, decisions,
                                     &union_node, *catalog, opts));

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
      DEX_RETURN_NOT_OK(qctx.CheckInterrupt());
      std::vector<PlanPtr> group(
          union_node->children.begin() + static_cast<long>(b * batch),
          union_node->children.begin() +
              static_cast<long>(std::min((b + 1) * batch,
                                         union_node->children.size())));
      PlanPtr sub = MakeUnion(std::move(group));
      DEX_RETURN_NOT_OK(AnalyzePlan(sub, *catalog));
      obs::TraceSpan batch_span("ingest_batch", "query");
      batch_span.AddArg("batch", static_cast<uint64_t>(b + 1));
      // Each batch is its own admission: its mounts overlap, and the
      // breakpoint between batches stays a clean barrier.
      DEX_RETURN_NOT_OK(admission.AdmitUnion(sub));
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
    DEX_RETURN_NOT_OK(admission.AdmitUnion(union_node));
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

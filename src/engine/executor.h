#ifndef DEX_ENGINE_EXECUTOR_H_
#define DEX_ENGINE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/stat_fields.h"
#include "engine/logical_plan.h"
#include "storage/catalog.h"

namespace dex {

class PlanProfiler;

/// \brief Counters filled during plan execution.
struct ExecStats {
  uint64_t rows_scanned = 0;    // rows streamed out of base-table scans
  uint64_t files_mounted = 0;   // ALi mounts performed
  uint64_t mounted_rows = 0;    // rows ingested by mounts
  uint64_t cache_scans = 0;     // cache-scan access paths taken
  uint64_t index_probes = 0;    // index-join probe rows

  // Vectorized-kernel coverage (engine/kernel.h): batches that ran on the
  // branchless SIMD path vs. batches that fell back to the scalar
  // expression interpreter, and selection vectors materialized at
  // kernel-unaware operator boundaries. The filter counts are FilterOp's
  // alone: join residuals and fused mount selections share its
  // PredicateSelector but are not counted. They count batches, not rows,
  // so kernel_filter_batches falls when a time range restricts the source
  // below the filter (a cache-scan of one window hands it one batch, not
  // the file's). The join counts are probe batches of HashJoinOp:
  // run-keyed (kernel) vs. row at a time. agg_run_batches counts the
  // vectorized aggregate batches that were a run-keyed join's key runs
  // rather than filled rows (engine/batch.h); they count in
  // kernel_agg_batches too.
  uint64_t kernel_filter_batches = 0;
  uint64_t scalar_filter_batches = 0;
  uint64_t kernel_join_batches = 0;
  uint64_t scalar_join_batches = 0;
  uint64_t kernel_agg_batches = 0;
  uint64_t agg_run_batches = 0;
  uint64_t scalar_agg_batches = 0;
  uint64_t selection_compactions = 0;
  // Rows a time range kept out of cache-scans and select-mounts
  // (kernel::ResolveRowRanges): never streamed, filtered or copied. The
  // select-mounts' share arrives through the mount counters.
  uint64_t range_skipped_rows = 0;

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = ExecStats;
    return std::tuple{
        StatField{"exec.rows_scanned", &S::rows_scanned},
        StatField{"exec.files_mounted", &S::files_mounted},
        StatField{"exec.mounted_rows", &S::mounted_rows},
        StatField{"exec.cache_scans", &S::cache_scans},
        StatField{"exec.index_probes", &S::index_probes},
        StatField{"kernel.filter_batches", &S::kernel_filter_batches},
        StatField{"kernel.filter_scalar_batches", &S::scalar_filter_batches},
        StatField{"kernel.join_batches", &S::kernel_join_batches},
        StatField{"kernel.join_scalar_batches", &S::scalar_join_batches},
        StatField{"kernel.agg_batches", &S::kernel_agg_batches},
        StatField{"kernel.agg_run_batches", &S::agg_run_batches},
        StatField{"kernel.agg_scalar_batches", &S::scalar_agg_batches},
        StatField{"kernel.selection_compactions", &S::selection_compactions},
        StatField{"kernel.range_skipped_rows", &S::range_skipped_rows}};
  }
};

/// \brief Everything a physical plan needs at run time.
///
/// The engine stays decoupled from the mSEED substrate: mounting and cache
/// lookups are injected as callbacks by the core library (the `mount`
/// operator "extracts, transforms and ingests actual data from individual
/// external files" — how, is the format adapter's business).
struct ExecContext {
  Catalog* catalog = nullptr;

  /// Materialized results addressable by result-scan nodes (the paper's
  /// result-scan access path; stage 2 reads Q_f's result through this).
  std::unordered_map<std::string, TablePtr> named_results;

  /// mount(uri) -> dangling partial table with `table`'s schema. The third
  /// argument is an optional selection fused into the mount (the paper's
  /// combined select-mount access path); nullptr mounts the whole file.
  std::function<Result<TablePtr>(const std::string& table, const std::string& uri,
                                 const ExprPtr& fused_predicate)>
      mount_fn;
  /// cache-scan(uri) -> previously ingested partial table.
  std::function<Result<TablePtr>(const std::string& table, const std::string& uri)>
      cache_fn;

  /// Ei option: use prebuilt hash indexes for joins against indexed base
  /// tables instead of building a hash table on the fly.
  bool use_index_joins = false;

  /// Route eligible filters, joins, join residuals and aggregations through
  /// the branchless kernels in engine/kernel.h (selection vectors, run-keyed
  /// joins, compact group-by). Off = always use the scalar expression
  /// interpreter and the row-at-a-time join
  /// (PruningOptions::use_simd_kernels).
  bool use_simd_kernels = true;

  /// Charge SimDisk I/O for base-table scans / index reads (disabled in
  /// pure-logic tests).
  bool charge_io = true;

  /// When set (EXPLAIN ANALYZE), every built operator is wrapped in a
  /// profiling decorator that records rows/batches/wall time per plan node.
  PlanProfiler* profiler = nullptr;

  /// When set, every built operator polls this before producing a batch and
  /// aborts the plan on a non-OK return — the cooperative-cancellation seam
  /// for query deadlines and CancelToken (injected by the core library, like
  /// mount_fn, so the engine stays decoupled from QueryContext).
  std::function<Status()> interrupt_fn;

  ExecStats stats;
};

/// \brief Executes an analyzed logical plan to a materialized table.
///
/// StageBreak nodes are transparent here; the two-stage executor in
/// src/core intercepts them before calling this.
Result<TablePtr> ExecutePlan(const PlanPtr& plan, ExecContext* ctx);

}  // namespace dex

#endif  // DEX_ENGINE_EXECUTOR_H_

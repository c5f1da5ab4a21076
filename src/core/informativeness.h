#ifndef DEX_CORE_INFORMATIVENESS_H_
#define DEX_CORE_INFORMATIVENESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "engine/expr.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace dex {

/// \brief What the system learned at the breakpoint between the two stages.
///
/// This realizes the paper's "interactive query execution" direction (§5):
/// after Q_f runs, the system "can let the explorer learn expected time and
/// resource consumption of his query at the breakpoint and let him even
/// change the destiny of his query".
struct BreakpointInfo {
  /// Handed to BreakpointCallbacks only; TwoStageStats::breakpoint keeps it
  /// empty and counts the files in TwoStageStats::files_of_interest.
  std::vector<std::string> files_of_interest;
  uint64_t files_cached = 0;       // planned as cache-scans
  uint64_t files_pruned = 0;       // skipped via derived metadata
  uint64_t bytes_to_mount = 0;     // repository bytes the planned mounts read
  uint64_t est_rows_to_ingest = 0; // Σ n_samples over matching records
  uint64_t est_result_rows = 0;    // time-window-overlap scaled estimate
  double est_stage2_seconds = 0.0;

  // Multi-stage execution (§5): progress at intermediate ingestion
  // breakpoints. batch 0 of n is the classic post-Q_f breakpoint.
  size_t batch_index = 0;
  size_t num_batches = 1;
  uint64_t rows_ingested_so_far = 0;
};

enum class BreakpointDecision { kContinue, kAbort };

/// Return kAbort to cancel the query before (or during) ingestion; the query
/// then fails with StatusCode::kAborted and no further files are mounted.
using BreakpointCallback = std::function<BreakpointDecision(const BreakpointInfo&)>;

/// \brief Extracts the [lo, hi] window that conjuncts of `predicate` impose
/// on column `column_name` (comparisons against literals). Returns false
/// when unconstrained on that column.
bool ExtractBounds(const ExprPtr& predicate, const std::string& column_name,
                   double* lo, double* hi);

/// \brief Summarizes `predicate` as a time window for cache subsumption:
/// `pure` is set only when every conjunct is a comparison of sample_time
/// against a literal (so the cached tuple set is exactly the window).
CachedWindow SummarizeTimeWindow(const ExprPtr& predicate);

/// \brief Cost-model constants for the stage-2 time estimate.
struct InformativenessModel {
  double mount_mb_per_sec = 120.0;   // matches SimDisk read bandwidth
  double ingest_rows_per_sec = 2e7;  // decode+transform throughput
};

/// \brief The index of the first column of a stage-1 result's `schema`
/// named `uri`: F.uri and R.uri agree by the join condition, so the first
/// one found names the row's file. An error when there is none.
Result<size_t> FirstUriColumn(const Schema& schema);

/// \brief What the run-time rewriter decided for one file of interest.
/// `size_bytes` is the file's registry size: what a mount of it reads.
struct FileDecision {
  enum class Action { kMount, kCacheScan, kSkip };
  std::string uri;
  Action action = Action::kMount;
  uint64_t size_bytes = 0;
};

/// \brief Estimates stage-2 cost and result size from the stage-1 output
/// and the rewrite's `decisions`.
///
/// The file counts and `bytes_to_mount` are the decisions' own: cache-scans
/// are `files_cached`, skips `files_pruned`, and mounts add their sizes.
/// Record-level estimates cover the records of the files the rewrite reads
/// (pruned files' records leave them). They come from R-level columns
/// (start_time, end_time, n_samples) in `qf_result` when present — the
/// precise record set the query restricted to. When Q_f does not carry
/// n_samples (the query joins F directly with D, or reads no metadata),
/// they come from one pass over the R table of `catalog`, the query's own
/// epoch. `d_predicate` is the selection that will be pushed into the
/// mounts (nullable). `files_of_interest` is left to the caller.
Result<BreakpointInfo> EstimateInformativeness(
    const TablePtr& qf_result, const std::vector<FileDecision>& decisions,
    const Catalog& catalog, const ExprPtr& d_predicate,
    const InformativenessModel& model);

}  // namespace dex

#endif  // DEX_CORE_INFORMATIVENESS_H_

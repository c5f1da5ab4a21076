#ifndef DEX_CORE_INFORMATIVENESS_H_
#define DEX_CORE_INFORMATIVENESS_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "core/file_registry.h"
#include "core/stats_collector.h"
#include "engine/expr.h"
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
  uint64_t files_cached = 0;       // servable by cache-scan
  uint64_t files_pruned = 0;       // skipped via derived metadata
  uint64_t bytes_to_mount = 0;     // repository bytes ALi will pull
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

/// \brief Per-file record windows harvested from stage-1 scan events — the
/// breakpoint estimator's fallback when Q_f carries no record-level columns.
///
/// Before the StatsCollector unification the estimator re-scanned the whole
/// R table per query to find the records of the files of interest; now the
/// stage-1 scan (which walks every record's metadata anyway) indexes them
/// per uri as a side effect, and the estimator does one hash lookup per
/// file. Rebuilt on every scan pass (ScanStarted clears). The estimate is a
/// cost model, not a result: a query pinned to an older epoch reading a
/// newer index is acceptable by design.
class InformativenessIndex : public StatsCollector {
 public:
  struct RecordWindow {
    int64_t start_ms = 0;
    int64_t end_ms = 0;
    uint32_t num_samples = 0;
  };

  std::string name() const override { return "informativeness"; }

  void ScanStarted(const std::string& root) override {
    (void)root;
    std::lock_guard<std::mutex> lock(mu_);
    windows_.clear();
  }

  void FileScanned(const mseed::FileMeta& file,
                   const std::vector<mseed::RecordMeta>& records) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& w = windows_[file.uri];
    w.clear();
    w.reserve(records.size());
    for (const mseed::RecordMeta& r : records) {
      w.push_back({r.start_time_ms, r.end_time_ms, r.num_samples});
    }
  }

  /// The record windows of `uri` (empty when unknown). Copy: the index may
  /// be rebuilt by a concurrent refresh while the caller iterates.
  std::vector<RecordWindow> WindowsFor(const std::string& uri) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = windows_.find(uri);
    return it == windows_.end() ? std::vector<RecordWindow>{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<RecordWindow>> windows_;
};

/// \brief Estimates stage-2 cost and result size from the stage-1 output.
///
/// Record-level estimates come from R-level columns (start_time, end_time,
/// n_samples) in `qf_result` when present — the precise record set the query
/// restricted to. When Q_f does not carry them (e.g. the query joins F
/// directly with D), the estimator falls back to `index` (the stage-1
/// harvested per-file record windows, nullable) for the files of interest.
/// `d_predicate` is the selection that will be pushed into the mounts
/// (nullable).
Result<BreakpointInfo> EstimateInformativeness(
    const TablePtr& qf_result, const std::vector<std::string>& files_of_interest,
    const FileRegistry& registry, const CacheManager* cache,
    const ExprPtr& d_predicate, const InformativenessModel& model,
    const InformativenessIndex* index = nullptr);

}  // namespace dex

#endif  // DEX_CORE_INFORMATIVENESS_H_

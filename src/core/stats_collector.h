#ifndef DEX_CORE_STATS_COLLECTOR_H_
#define DEX_CORE_STATS_COLLECTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mseed/scanner.h"

namespace dex {

/// \brief The one interface through which the stage-1 metadata scan feeds
/// statistics harvested as a side effect of work it does anyway (paper §5:
/// derived metadata "as a side-effect of ALi").
///
/// The Stage1Scanner drives a StatsCollectorSet; each consumer — coverage
/// (GAPS/OVERLAPS), the informativeness index, zone maps — is a collector
/// behind this interface. Stage 2 has a single harvest target, so the
/// Mounter writes record zones straight into the ZoneMapStore, which also
/// serves DM and file-level pruning (core/zone_map.h).
///
/// ## Delivery contract
///
///  - Events (`ScanStarted`/`FileScanned`/`ScanFinished`) are delivered from
///    the scan coordinator thread only, in repository enumeration order,
///    *including* files whose metadata was reused from the baseline — among
///    them files a deadline or a dead shard skipped that keep their stale
///    baseline row — so a collector always sees the complete catalog,
///    deterministically, at any worker count. Implementations need no
///    locking against other stage-1 events.
///  - A collector must tolerate redundant delivery: the same file may be
///    re-scanned on refresh.
class StatsCollector {
 public:
  virtual ~StatsCollector() = default;

  /// Short name for diagnostics and metrics ("coverage", "zonemap", ...).
  virtual std::string name() const = 0;

  /// A stage-1 scan pass over `root` is beginning.
  virtual void ScanStarted(const std::string& root) { (void)root; }

  /// One file's scan metadata, in enumeration order. Delivered exactly for
  /// the files whose metadata enters the catalog: scanned files, files
  /// reused from the baseline, and files a deadline or a dead shard skipped
  /// that keep their stale baseline row (delivered as reused). Parse-
  /// quarantined files, and skipped files with no baseline row, are not
  /// delivered. `records` are the file's record windows.
  virtual void FileScanned(const mseed::FileMeta& file,
                           const std::vector<mseed::RecordMeta>& records) {
    (void)file;
    (void)records;
  }

  /// All FileScanned events of the pass have been delivered. Files present
  /// in an earlier pass but absent from this one have left the catalog.
  virtual Status ScanFinished() { return Status::OK(); }
};

/// \brief An ordered set of collectors, broadcast to in registration order.
/// Non-owning; the database owns the collectors and outlives the scanner.
/// Copyable so the scanner can hold it by value.
class StatsCollectorSet {
 public:
  void Register(StatsCollector* collector) {
    if (collector != nullptr) collectors_.push_back(collector);
  }

  bool empty() const { return collectors_.empty(); }
  size_t size() const { return collectors_.size(); }

  void ScanStarted(const std::string& root) const {
    for (StatsCollector* c : collectors_) c->ScanStarted(root);
  }

  void FileScanned(const mseed::FileMeta& file,
                   const std::vector<mseed::RecordMeta>& records) const {
    for (StatsCollector* c : collectors_) c->FileScanned(file, records);
  }

  Status ScanFinished() const {
    for (StatsCollector* c : collectors_) {
      DEX_RETURN_NOT_OK(c->ScanFinished());
    }
    return Status::OK();
  }

 private:
  std::vector<StatsCollector*> collectors_;
};

}  // namespace dex

#endif  // DEX_CORE_STATS_COLLECTOR_H_

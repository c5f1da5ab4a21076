#ifndef DEX_CORE_ZONE_MAP_H_
#define DEX_CORE_ZONE_MAP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mseed/reader.h"
#include "mseed/scanner.h"
#include "mseed/steim.h"
#include "storage/table.h"

namespace dex {

/// \brief Value statistics of one fully decoded record.
struct RecordValueStats {
  double min = 0;
  double max = 0;
  double sum = 0;
  uint64_t count = 0;
};

/// The value zone of a fully decoded record: folded from the frame stats
/// its decode harvested, or computed from its samples when it harvested
/// none (Steim2, tscsv). Both give the same zone.
RecordValueStats RecordValues(const mseed::DecodedRecord& rec);

/// \brief The one store of per-record statistics: per-record and
/// per-Steim-frame min/max zone maps, harvested for free while mount decodes
/// records anyway (the Mounter calls RecordMounted), and read three ways:
///
///  - *record-level* pruning: a record whose [min,max] value zone is
///    disjoint from the predicate's sample_value bounds is dropped before
///    its payload is touched (it keeps a positional placeholder slot so
///    record ids stay stable);
///  - *frame-level* pruning (Steim1 only): per-64-byte-frame stats let the
///    decoder unpack only frames that may contain matching samples,
///    resuming the integration chain from each frame's recorded entry value;
///  - derived metadata (paper §5): the queryable DM table is built from the
///    record zones (BuildDerivedTable), and file-level pruning is a rollup
///    over a complete file's record zones (MayMatchValueRange).
///
/// ## Safety ladder
/// A zone map is a hint validated against the stage-1 scan:
///  1. Reconcile drops a file's zones when its size/mtime identity changed
///     (stale after rewrite) and forgets the files the scan did not list
///     (removed) — at Open and at every Refresh, so every reader above sees
///     the same staleness rule.
///  2. Persisted zone maps carry an FNV-1a checksum; any corruption or
///     format violation discards the whole persisted set (counted, logged).
///  3. Even a wrong-but-plausible frame zone is caught at decode time: the
///     selective Steim1 decode verifies the entry/exit integration chain
///     and falls back to a full decode on mismatch (PruneStats::fallbacks).
/// A file rewritten after the last scan is not detected until the next
/// Refresh — the same window in which its F/R rows are stale.
///
/// Thread-safe: reconciles come from Open and Refresh, record zones from
/// concurrent mount tasks, pruners and DM builds from concurrent query
/// sessions. One mutex guards everything; MakePruner snapshots (copies) the
/// file's zones so a pruner never races later updates.
class ZoneMapStore {
 public:
  /// Value zone of one record, plus its per-frame stats when the record's
  /// payload was Steim1 and the decode harvested them.
  struct RecordZone {
    RecordValueStats values;
    std::vector<mseed::Steim1::FrameStat> frames;
  };

  struct Stats {
    uint64_t files = 0;             // files with at least one record zone
    uint64_t records = 0;           // record zones held
    uint64_t frames = 0;            // frame stats held
    uint64_t persisted_loads = 0;   // files restored from disk
    uint64_t stale_dropped = 0;     // files dropped on identity change
    uint64_t corrupt_discarded = 0; // persisted sets discarded on corruption
  };

  ZoneMapStore() = default;

  // Stage 1 -------------------------------------------------------------

  /// Aligns the store with a successful stage-1 scan's `files` (the F rows
  /// about to be published, in order): a file whose size/mtime identity
  /// changed loses its zones, every listed file takes its identity and
  /// record count, and a file not listed left the catalog, so its zones
  /// (and DM rows) go too.
  void Reconcile(const std::vector<mseed::FileMeta>& files);

  // Harvest -------------------------------------------------------------

  /// Record `record_id` of `uri` was fully decoded by a mount (possibly
  /// concurrently with other mounts). `frames` carries per-Steim-frame stats
  /// when the decode harvested them (null otherwise); `expected_records` is
  /// the file's record count as the mount saw it (stage 1's count wins).
  /// Idempotent per (uri, record_id): a re-mount only adds missing frames.
  /// `values` gives the record's value zone; it is called, under the
  /// store's lock, only when the store does not hold the record yet (the
  /// first harvest wins), so a re-mount computes nothing.
  void RecordMounted(const std::string& uri, int64_t record_id,
                     const std::function<RecordValueStats()>& values,
                     const std::vector<mseed::Steim1::FrameStat>* frames,
                     uint32_t expected_records);
  /// Same, with the values at hand.
  void RecordMounted(const std::string& uri, int64_t record_id,
                     const RecordValueStats& values,
                     const std::vector<mseed::Steim1::FrameStat>* frames,
                     uint32_t expected_records) {
    RecordMounted(uri, record_id, [&values] { return values; }, frames,
                  expected_records);
  }

  // Query side ----------------------------------------------------------

  /// A pruner restricting decode to samples that may lie in [lo, hi],
  /// backed by a snapshot of `uri`'s current zones. Unknown records are
  /// decoded fully with frame-stat harvest (so the next query can prune).
  /// Returns null when the store holds nothing for `uri` and `harvest` is
  /// also off — no pruner beats a no-op pruner.
  std::unique_ptr<mseed::RecordPruner> MakePruner(const std::string& uri,
                                                  double lo, double hi,
                                                  bool record_level,
                                                  bool frame_level,
                                                  bool harvest = true) const;

  /// True when every record of `uri` has a zone (given stage 1 reported
  /// `expected_records` for it).
  bool HasCompleteFile(const std::string& uri) const;

  /// File-level pruning: false only when `uri`'s zones are complete and no
  /// record holding samples has a [min, max] that intersects [lo, hi].
  /// Unknown or partially known files return true (must mount).
  bool MayMatchValueRange(const std::string& uri, double lo, double hi) const;

  /// The DM table (kDerivedTableName) as of now: one row per record zone,
  /// in URI then record-id order, so its row order is independent of the
  /// order mounts ran in. A fresh table each call — the caller owns it.
  Result<TablePtr> BuildDerivedTable() const;

  // Persistence ---------------------------------------------------------

  /// Serializes all zones to `path` (atomic temp+rename, FNV-1a footer,
  /// deterministic uri-sorted order). No-op when nothing changed since the
  /// last save/load.
  Status SaveIfDirty(const std::string& path);

  /// Restores zones from `path`. Missing file is OK (cold start). Any
  /// corruption — bad magic, truncation, checksum mismatch, implausible
  /// counts — discards the whole persisted set and returns OK: zone maps
  /// are hints, recovery must never block opening the database.
  Status Load(const std::string& path);

  Stats GetStats() const;

 private:
  struct FileZones {
    uint64_t size_bytes = 0;  // identity at harvest time
    int64_t mtime_ms = 0;
    uint32_t expected_records = 0;
    std::map<int64_t, RecordZone> records;  // ordered for determinism

    bool complete() const {
      return expected_records > 0 && records.size() == expected_records;
    }
  };
  using FileEntry = std::pair<const std::string, FileZones>;

  /// Files holding at least one record zone, in URI order. Requires mu_.
  std::vector<const FileEntry*> SortedFilesLocked() const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, FileZones> files_;
  bool dirty_ = false;
  uint64_t persisted_loads_ = 0;
  uint64_t stale_dropped_ = 0;
  uint64_t corrupt_discarded_ = 0;
};

}  // namespace dex

#endif  // DEX_CORE_ZONE_MAP_H_

#ifndef DEX_CORE_STAGE1_SCAN_H_
#define DEX_CORE_STAGE1_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/file_registry.h"
#include "core/format_adapter.h"
#include "core/mounter.h"
#include "core/stats_base.h"
#include "exec/query_context.h"
#include "exec/thread_pool.h"
#include "mseed/scanner.h"
#include "shard/sharded_repository.h"

namespace dex {

/// \brief Knobs for one stage-1 metadata scan (Open()/Refresh()).
struct Stage1Options {
  /// Worker threads for per-file header parses. 0 = hardware concurrency;
  /// 1 = serial. Any value yields bit-identical catalogs, quarantine
  /// decisions, and simulated time (see DESIGN.md §8.9).
  size_t num_threads = 1;

  /// What to do with a file whose header parse fails (corrupt): kFail aborts
  /// the whole scan; kSkipFile/kSalvage quarantine the file and keep going —
  /// at metadata granularity the two degrade identically, there is nothing
  /// record-level to salvage from an unparseable header.
  OnMountError on_error = OnMountError::kSalvage;

  /// Retry/backoff for transiently failing header reads; backoff is charged
  /// as simulated I/O, mirroring the stage-2 mount path.
  MountRetryPolicy retry;

  /// Optional governance. With a deadline armed the scan admits one file
  /// per window (the same trade as governed stage-2 admission) and stops
  /// admitting header parses on expiry: files not yet scanned keep their
  /// stale baseline metadata when they have one, and are counted in
  /// `files_skipped_deadline` either way. A cancel token is honored with or
  /// without a deadline. The deadline is measured on the context's
  /// per-query timeline (QueryContext::sim_now), so concurrent queries
  /// charging the shared clock cannot shift this scan's cutoff.
  QueryContext* qctx = nullptr;

  /// Worker-pool priority class for the scan's header-parse tasks (only
  /// meaningful on a shared pool; a private pool runs one scan at a time).
  int priority = ThreadPool::kPriorityNormal;

  /// The sharded repository, when the database is sharded. The scanner
  /// always re-assigns the enumerated catalog (keeping the partition map in
  /// sync with what the epoch publishes); with more than one shard the scan
  /// additionally runs scatter/gather — every parsed header ships its bytes
  /// back over its shard's link (charged, deterministic fault streams) and
  /// files owned by a *dead* shard are skipped in the pre-pass: they keep
  /// their stale baseline rows when they have one and are counted in
  /// `files_skipped_shard` (`is_partial` set), like a deadline cutoff. A
  /// governed scan pays the same model per one-file window: one request
  /// and one response per admitted file.
  ShardedRepository* shards = nullptr;
};

/// \brief What one stage-1 scan did. Every field is a pure function of the
/// repository state and the options — not of the worker count. The serial
/// sum of the header reads' stall time is what the scan charges; the
/// critical path is what a medium with that much overlap would have
/// stalled (bench_refresh's speedup). Warnings (quarantines) merge in
/// enumeration order.
struct Stage1Stats : AdmissionStats, Warnings {
  size_t files_scanned = 0;     // headers physically parsed this scan
  size_t files_reused = 0;      // metadata served from the baseline
  size_t files_added = 0;       // scanned files the registry did not know
  size_t files_changed = 0;     // scanned files whose size/mtime differed
  size_t files_removed = 0;     // baseline files gone from disk
  size_t files_quarantined = 0; // corrupt header or permanent read failure
  uint64_t read_retries = 0;    // transient header-read failures absorbed
};

/// \brief Parallel stage-1 metadata scan: the enumerate-then-ScanFile driver
/// behind Database::Open and Database::Refresh.
///
/// The coordinator enumerates files (sorted), stats each one against an
/// optional baseline (metadata snapshot at Open, the current catalog at
/// Refresh), and admits the changed/new files in admission windows: all of
/// them in one window, or one file per window when a deadline is armed.
/// A window registers its new files with the simulated disk *before* any of
/// its tasks runs — so object ids, and with them the per-object PRNG fault
/// streams, are a pure function of the enumeration — and dispatches one
/// ScanFile task per file on a worker pool. Per-task simulated stall time
/// goes into `SimDisk::TaskTimeScope` buckets and is aggregated by
/// deterministic list scheduling (exec/sim_schedule.h) or, sharded, by
/// ShardedRepository::ScatterGather; results are merged in enumeration
/// order. The catalog, RefreshStats, quarantine decisions, and sim_io_nanos
/// are therefore bit-identical at any worker count.
class Stage1Scanner {
 public:
  /// `shared_pool`, when non-null, runs the scan's tasks on the database-wide
  /// pool (with Stage1Options::priority) instead of a private one, so a
  /// Refresh competes for workers with in-flight queries rather than
  /// oversubscribing the machine. The deterministic time model is unaffected.
  Stage1Scanner(FormatAdapter* format, FileRegistry* registry,
                ThreadPool* shared_pool = nullptr)
      : format_(format), registry_(registry), shared_pool_(shared_pool) {}

  /// Scans `root`. `baseline`, when non-null, lets unchanged files (same
  /// size and mtime) skip the header parse and reuse their old metadata.
  /// Returns the merged repository metadata in enumeration order: scanned,
  /// reused and read-failed files, and files a deadline or a dead shard
  /// skipped that keep their stale baseline row. Parse-quarantined files,
  /// and skipped files without a baseline row, are not in it.
  Result<mseed::ScanResult> Scan(const std::string& root,
                                 const mseed::ScanResult* baseline,
                                 const Stage1Options& options,
                                 Stage1Stats* stats);

 private:
  /// The shared pool when one was injected, else a cached private pool
  /// (re)built to `workers` threads when needed.
  ThreadPool* Pool(size_t workers);

  FormatAdapter* format_;
  FileRegistry* registry_;
  ThreadPool* shared_pool_;  // not owned; may be null
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dex

#endif  // DEX_CORE_STAGE1_SCAN_H_

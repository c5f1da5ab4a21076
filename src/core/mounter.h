#ifndef DEX_CORE_MOUNTER_H_
#define DEX_CORE_MOUNTER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "core/file_registry.h"
#include "core/format_adapter.h"
#include "core/stats_collector.h"
#include "core/zone_map.h"
#include "engine/expr.h"
#include "exec/query_context.h"

namespace dex {

/// \brief Every pruning decision the execution pipeline can make, in one
/// struct — replacing the per-knob sprawl (`use_derived_pruning` et al.)
/// that grew one boolean per optimization. The decision ladder, coarse to
/// fine (each level only sees work the previous level let through):
///
///   1. `file_level`  — skip mounting files whose complete derived metadata
///      (DM) proves no sample lies in the predicate's value range (§5
///      "Extending metadata"). Changes charged simulated I/O: skipped files
///      are never read.
///   2. `record_level` — per-record zone maps: a record whose value zone is
///      disjoint from the range keeps its positional slot but its payload is
///      never decoded. CPU only; the whole file was already charged.
///   3. `frame_level` — per-Steim1-frame zone maps: decode only frames that
///      may contain matching samples. CPU only.
///   4. `use_simd_kernels` — vectorize the residual filter/aggregate work on
///      whatever survived pruning (engine/kernel.h).
///
/// `file_level` defaults off because it needs opt-in DM collection and
/// changes the I/O accounting experiments compare; the CPU-only levels
/// default on (results and charged I/O are bit-identical either way).
struct PruningOptions {
  bool file_level = false;
  bool record_level = true;
  bool frame_level = true;
  bool use_simd_kernels = true;

  /// Record/frame zone-map pruning enabled at all?
  bool zonemap_enabled() const { return record_level || frame_level; }
};

/// \brief What to do when a file of interest cannot be mounted cleanly.
///
/// The repository is a real-world file dump: reads fail, records rot. A
/// production system serving a 1000-file query cannot drop 997 good files
/// because 3 are bad, so the default degrades gracefully.
enum class OnMountError {
  kFail,      // strict: the first bad file fails the whole query
  kSkipFile,  // drop unreadable/corrupt files, keep the rest of the result
  kSalvage,   // like kSkipFile, but additionally recover every decodable
              // record from corrupt files (record-level resynchronization)
};

/// \brief Retry policy for transiently failing file reads. Backoff time is
/// charged to the simulated medium, so retry overhead shows up in
/// QueryStats::sim_io_nanos like any other I/O stall.
struct MountRetryPolicy {
  int max_retries = 3;               // retry attempts after the first failure
  double backoff_base_millis = 2.0;  // first backoff; doubles per retry
  double backoff_multiplier = 2.0;
};

/// \brief Implements the mount access path: "extracts, transforms (to comply
/// with database schema) and ingests actual data from individual external
/// files" (paper §3).
///
/// The resulting tables are *dangling partial tables* — they are never
/// appended to the catalog's D table; they exist for the duration of the
/// query (and afterwards only if the cache policy retains them).
///
/// The mounter holds no mutable state of its own: every call reports what it
/// did through a caller-supplied MountOutcome, so concurrent mount tasks (and
/// interleaved queries) each account their own work without races. Thread
/// safety of a concurrent Mount reduces to that of the shared collaborators
/// (registry health, cache, stats collectors, zone maps, simulated disk),
/// which all synchronize internally.
class Mounter {
 public:
  struct MountCounters {
    uint64_t mounts = 0;
    uint64_t records_decoded = 0;
    uint64_t samples_decoded = 0;
    uint64_t bytes_read = 0;
    // Fault tolerance.
    uint64_t read_retries = 0;      // transient read failures retried
    uint64_t files_failed = 0;      // reads failing after all retries (quarantined)
    uint64_t files_skipped = 0;     // corrupt files dropped whole (kSkipFile)
    uint64_t records_salvaged = 0;  // records recovered past corruption
    uint64_t records_skipped = 0;   // corrupt records dropped (kSalvage)
    // Zone-map pruning (CPU saved; the file's bytes were still charged).
    uint64_t records_skipped_zonemap = 0;  // records proven non-matching
    uint64_t frames_skipped_zonemap = 0;   // Steim frames skipped selectively
    uint64_t frames_decoded_zonemap = 0;   // frames decoded in selective mode
    uint64_t zonemap_fallbacks = 0;        // failed verification → full decode

    MountCounters& operator+=(const MountCounters& o) {
      mounts += o.mounts;
      records_decoded += o.records_decoded;
      samples_decoded += o.samples_decoded;
      bytes_read += o.bytes_read;
      read_retries += o.read_retries;
      files_failed += o.files_failed;
      files_skipped += o.files_skipped;
      records_salvaged += o.records_salvaged;
      records_skipped += o.records_skipped;
      records_skipped_zonemap += o.records_skipped_zonemap;
      frames_skipped_zonemap += o.frames_skipped_zonemap;
      frames_decoded_zonemap += o.frames_decoded_zonemap;
      zonemap_fallbacks += o.zonemap_fallbacks;
      return *this;
    }
  };

  /// What one (or, accumulated, several) Mount call(s) did. Warnings are
  /// bounded; overflow is counted in `warnings_dropped`.
  struct MountOutcome {
    MountCounters counters;
    std::vector<std::string> warnings;
    uint64_t warnings_dropped = 0;

    /// Folds another outcome in (bounded warnings). The parallel mount path
    /// merges per-task outcomes in task order at the barrier, so merged
    /// warning order is deterministic.
    void MergeFrom(const MountOutcome& o);
  };

  /// `collectors` receive one RecordMounted event per record of every
  /// mounted file (possibly concurrently across mounts); `zone_maps`, when
  /// non-null, additionally powers record/frame pruning (it is normally also
  /// one of the collectors, registered by the database).
  Mounter(FileRegistry* registry, CacheManager* cache,
          StatsCollectorSet collectors, ZoneMapStore* zone_maps,
          FormatAdapter* format,
          OnMountError on_error = OnMountError::kSalvage,
          MountRetryPolicy retry = MountRetryPolicy{})
      : registry_(registry),
        cache_(cache),
        collectors_(std::move(collectors)),
        zone_maps_(zone_maps),
        format_(format),
        on_error_(on_error),
        retry_(retry) {}

  /// Mounts `uri` as a partial `table_name` table. When `fused_predicate` is
  /// non-null, only satisfying tuples are returned (combined select-mount);
  /// the cache is offered the data either way, tagged with the predicate.
  ///
  /// Under kSkipFile/kSalvage a permanently failing or unsalvageable file
  /// yields an *empty* partial table (plus health bookkeeping and a warning)
  /// instead of an error, so the enclosing union still returns every healthy
  /// file's rows.
  ///
  /// When `outcome` is non-null, counters and warnings for this call are
  /// *accumulated* into it (never reset), so a caller may thread one
  /// accumulator through a whole query's mounts.
  ///
  /// When `qctx` is non-null, its cancel token is checked between retry
  /// attempts in the read path, so a cancelled query stops backing off
  /// instead of riding out the full retry schedule.
  ///
  /// `pruning`, when non-null with record/frame levels enabled and a zone-map
  /// store attached, lets the kSalvage decode path skip records and Steim
  /// frames the zone maps prove non-matching for the value bounds that
  /// `fused_predicate` imposes on sample_value. Pruning never changes the
  /// returned tuples (the fused selection still runs on whatever was
  /// decoded, and zone-skipped data could not have satisfied it) — only the
  /// CPU spent decoding. Charged simulated I/O is unchanged: the whole file
  /// is read either way. `pruning->use_simd_kernels` picks the selection
  /// kernels or the expression interpreter for the fused selection (null
  /// `pruning`: kernels); both keep the same tuples.
  Result<TablePtr> Mount(const std::string& table_name, const std::string& uri,
                         const ExprPtr& fused_predicate,
                         MountOutcome* outcome = nullptr,
                         const QueryContext* qctx = nullptr,
                         const PruningOptions* pruning = nullptr);

  /// The cache-scan access path: returns previously ingested data.
  Result<TablePtr> CacheLookup(const std::string& table_name,
                               const std::string& uri);

  OnMountError on_mount_error() const { return on_error_; }

 private:
  /// Reads the file's bytes off the simulated medium, absorbing transient
  /// faults with exponential backoff. Non-OK only when the failure survived
  /// every retry (a permanent fault), the query was cancelled between
  /// attempts, or the failure is not an I/O fault at all.
  Status ChargeReadWithRetry(const std::string& uri, MountOutcome* outcome,
                             const QueryContext* qctx);

  static void AddWarning(MountOutcome* outcome, std::string msg);

  FileRegistry* registry_;
  CacheManager* cache_;
  StatsCollectorSet collectors_;
  ZoneMapStore* zone_maps_;  // may be null (zone maps disabled)
  FormatAdapter* format_;
  const OnMountError on_error_;
  const MountRetryPolicy retry_;
};

}  // namespace dex

#endif  // DEX_CORE_MOUNTER_H_

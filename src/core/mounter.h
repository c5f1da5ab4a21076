#ifndef DEX_CORE_MOUNTER_H_
#define DEX_CORE_MOUNTER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/cache_manager.h"
#include "common/stat_fields.h"
#include "core/file_registry.h"
#include "core/format_adapter.h"
#include "core/stats_base.h"
#include "core/zone_map.h"
#include "engine/expr.h"
#include "exec/query_context.h"

namespace dex {

/// \brief Every pruning decision the execution pipeline can make, in one
/// struct — replacing the per-knob sprawl (`use_derived_pruning` et al.)
/// that grew one boolean per optimization. The decision ladder, coarse to
/// fine (each level only sees work the previous level let through):
///
///   1. `file_level`  — skip mounting files whose complete record zones (the
///      rollup that also backs the DM table) prove no sample lies in the
///      predicate's value range (§5 "Extending metadata"). Changes charged
///      simulated I/O: skipped files are never read.
///   2. `record_level` — per-record zone maps: a record whose value zone is
///      disjoint from the range keeps its positional slot but its payload is
///      never decoded. CPU only; the whole file was already charged.
///   3. `frame_level` — per-Steim1-frame zone maps: decode only frames that
///      may contain matching samples. CPU only.
///   4. `use_simd_kernels` — vectorize the residual filter/join/aggregate
///      work on whatever survived pruning (engine/kernel.h).
///
/// `file_level` defaults off because it changes the I/O accounting
/// experiments compare; the CPU-only levels default on (results and charged
/// I/O are bit-identical either way). Every level reads the database's one
/// ZoneMapStore, so with `DatabaseOptions::collect_zone_maps` off none of
/// them has anything to consult.
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
/// (registry health, cache, zone maps, simulated disk), which all
/// synchronize internally.
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
    // Rows of select-mounts outside their time window, never selected or
    // copied; stage 2 reports them in ExecStats::range_skipped_rows.
    uint64_t range_skipped_rows = 0;

    /// Every counter with its metric name (common/stat_fields.h).
    static constexpr auto Fields() {
      using S = MountCounters;
      return std::tuple{
          StatField{"mount.mounts", &S::mounts},
          StatField{"mount.records_decoded", &S::records_decoded},
          StatField{"mount.samples_decoded", &S::samples_decoded},
          StatField{"mount.bytes_read", &S::bytes_read},
          StatField{"fault.read_retries", &S::read_retries},
          StatField{"fault.files_failed", &S::files_failed},
          StatField{"fault.files_skipped", &S::files_skipped},
          StatField{"fault.records_salvaged", &S::records_salvaged},
          StatField{"fault.records_skipped", &S::records_skipped},
          StatField{"zonemap.records_skipped", &S::records_skipped_zonemap},
          StatField{"zonemap.frames_skipped", &S::frames_skipped_zonemap},
          StatField{"zonemap.frames_decoded", &S::frames_decoded_zonemap},
          StatField{"zonemap.fallbacks", &S::zonemap_fallbacks},
          // Published in ExecStats' kernel.range_skipped_rows.
          StatField{nullptr, &S::range_skipped_rows}};
    }

    MountCounters& operator+=(const MountCounters& o) {
      ForEachStatField(Fields(), [&](const auto& f) {
        this->*f.member += o.*f.member;
      });
      return *this;
    }
  };

  /// What one (or, accumulated, several) Mount call(s) did: counters and
  /// bounded warnings.
  struct MountOutcome : Warnings {
    MountCounters counters;
  };

  /// `zone_maps`, when non-null, receives the value zone of every fully
  /// decoded record of every mounted file (possibly concurrently across
  /// mounts) and powers record/frame pruning.
  Mounter(FileRegistry* registry, CacheManager* cache, ZoneMapStore* zone_maps,
          FormatAdapter* format,
          OnMountError on_error = OnMountError::kSalvage,
          MountRetryPolicy retry = MountRetryPolicy{})
      : registry_(registry),
        cache_(cache),
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

  /// The cache-scan access path: returns previously ingested data, or
  /// NotFound when the entry is gone (evicted, or spilled to the durable
  /// tier and refused reload).
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

  FileRegistry* registry_;
  CacheManager* cache_;
  ZoneMapStore* zone_maps_;  // may be null (zone maps disabled)
  FormatAdapter* format_;
  const OnMountError on_error_;
  const MountRetryPolicy retry_;
};

}  // namespace dex

#endif  // DEX_CORE_MOUNTER_H_

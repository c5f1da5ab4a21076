#ifndef DEX_CORE_PERSISTENT_CACHE_H_
#define DEX_CORE_PERSISTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stat_fields.h"
#include "io/columnar_file.h"
#include "io/sim_disk.h"
#include "storage/table.h"

namespace dex {

/// \brief The durable tier of the mount cache: one checksummed columnar file
/// per cached URI plus a footer-sealed manifest, all written via the atomic
/// temp-file + fsync + rename protocol.
///
/// The cache directory is the engine's *own* durable state — the first such
/// state in the system — so it is treated as hostile until proven intact.
/// Nothing read from it is ever served without passing the validation
/// ladder:
///
///   1. manifest magic + generation + footer checksum (else: wipe the dir);
///   2. per entry, the source file's current size/mtime vs what the entry
///      was persisted against (else: stale → delete, rescan is authoritative);
///   3. per entry, the columnar file's magic, header checksum, every frame
///      checksum, and the whole-file footer checksum (else: corrupt →
///      quarantine-and-delete, flight-recorder `cache_quarantine` event).
///
/// A failure never propagates: the entry degrades to a re-mount of the
/// source file. Wrong answers are impossible by construction because no
/// unvalidated byte reaches a query.
///
/// Fault injection: writes and reads consult the disk's FaultInjector
/// (torn_write_rate / bit_flip_rate / short_read_rate) through per-file
/// streams keyed by FNV-1a(uri), so persistence fault schedules are
/// replayable and independent of thread interleavings. Injected faults are
/// applied *physically* to the real bytes (a torn write really truncates the
/// entry file), so recovery exercises the real ladder, not a simulation of
/// it.
///
/// Simulated-time model: the cache directory lives on the same medium as the
/// repository but is written append-style by the engine itself, so reads
/// back are modeled as sequential — one seek per Recover()/Load() plus
/// transfer at the configured bandwidth, against the repository's
/// seek-per-file mount cost. Manifest updates are modeled as a fixed-size
/// append (a constant, so per-entry persist charges stay independent of
/// insertion order — required for worker-count-invariant replay).
///
/// Thread-safe; the CacheManager calls in under its own lock, which also
/// serializes manifest updates with entry-file writes.
class PersistentCache {
 public:
  /// On-disk format generation. Bump when the manifest or entry layout
  /// changes incompatibly: a mismatching directory is discarded wholesale
  /// (clean re-ingestion, never a misparse).
  static constexpr uint64_t kGeneration = 1;

  struct Options {
    std::string dir;  // cache directory (created on first persist)
    uint64_t generation = kGeneration;
  };

  struct Stats {
    uint64_t persisted = 0;        // entry files written successfully
    uint64_t persisted_bytes = 0;  // encoded bytes written (cumulative)
    uint64_t persist_failures = 0; // encode/write errors (entry not durable)
    uint64_t loads = 0;            // entry files read back + validated
    uint64_t load_failures = 0;    // validation failed at load → quarantined
    uint64_t recovered = 0;        // entries that survived open-time recovery
    uint64_t quarantined = 0;      // corrupt entries deleted (CACHE_QUARANTINE)
    uint64_t stale_dropped = 0;    // source size/mtime changed → deleted

    /// Every counter with its metric name (common/stat_fields.h).
    static constexpr auto Fields() {
      using S = Stats;
      return std::tuple{
          StatField{"cache.disk.persisted", &S::persisted},
          StatField{"cache.disk.persisted_bytes", &S::persisted_bytes},
          StatField{"cache.disk.persist_failures", &S::persist_failures},
          StatField{"cache.disk.loads", &S::loads},
          StatField{"cache.disk.load_failures", &S::load_failures},
          StatField{"cache.disk.recovered", &S::recovered},
          StatField{"cache.disk.quarantined", &S::quarantined},
          StatField{"cache.disk.stale_dropped", &S::stale_dropped}};
    }
  };

  /// One entry that survived the full validation ladder at recovery.
  struct RecoveredEntry {
    std::string uri;
    ColumnarFileMeta meta;
    TablePtr table;  // fully decoded and checksum-verified
  };

  /// `disk` provides the simulated-time charges and the fault injector;
  /// not owned, must outlive this.
  PersistentCache(SimDisk* disk, const Options& options);

  /// Writes `table` through to disk for `uri` (atomic replace + manifest
  /// update), applying any injected write fault physically. Returns true if
  /// the entry is now durable. Best-effort: a failure is counted, never
  /// surfaced to the query. Note an injected torn write or bit flip still
  /// returns true — that is the point: the damage is discovered (and
  /// quarantined) by the validation ladder on the next load, exactly like
  /// real silent corruption.
  bool Persist(const std::string& uri, const Table& table,
               ColumnarFileMeta meta);

  /// Reads `uri`'s entry back, applying any injected short read, and runs
  /// the full integrity ladder (magic, header/frame/footer checksums). On
  /// success returns the decoded table. On any failure the entry is
  /// quarantined-and-deleted (flight-recorder event, stats) and Corruption
  /// is returned — the caller falls back to re-mounting the source file.
  Result<TablePtr> Load(const std::string& uri, ColumnarFileMeta* meta);

  /// Open-time recovery: validates the manifest (magic/generation/footer
  /// checksum — a bad manifest wipes the directory), deletes entry files
  /// the manifest does not list, then walks the listed entries oldest-uri
  /// first: stale sources are dropped, corrupt files quarantined, and every
  /// survivor is returned fully decoded. Deterministic: the manifest is
  /// uri-sorted and recovery is single-threaded.
  std::vector<RecoveredEntry> Recover();

  /// Deletes `uri`'s entry (source invalidated). No-op if absent.
  void Remove(const std::string& uri);

  /// Deletes every entry and the manifest (repository regenerated).
  void RemoveAll();

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  size_t num_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return manifest_.size();
  }
  const Options& options() const { return options_; }

 private:
  struct ManifestEntry {
    std::string file;            // entry file name within dir
    uint64_t encoded_bytes = 0;  // size of the (intended) entry file
    uint64_t source_size_bytes = 0;
    int64_t source_mtime_ms = 0;
  };

  // All helpers require mu_ to be held.
  Status WriteManifestLocked();
  Status ReadManifestLocked();
  void QuarantineLocked(const std::string& uri, const std::string& reason);
  void ChargeWrite(uint64_t bytes);
  void ChargeRead(uint64_t bytes);
  void ChargeSeek();

  SimDisk* disk_;  // not owned
  const Options options_;
  mutable std::mutex mu_;
  // uri -> entry; std::map so the manifest bytes (and recovery order) are
  // deterministic regardless of insertion order.
  std::map<std::string, ManifestEntry> manifest_;
  Stats stats_;
};

}  // namespace dex

#endif  // DEX_CORE_PERSISTENT_CACHE_H_

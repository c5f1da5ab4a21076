#ifndef DEX_CORE_CACHE_MANAGER_H_
#define DEX_CORE_CACHE_MANAGER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/stat_fields.h"
#include "core/persistent_cache.h"
#include "exec/query_context.h"
#include "storage/table.h"

namespace dex {

/// \brief What happens to data ingested by a mount once the query finishes.
///
/// The paper's preliminary design discards it ("the data ingested by ALi is
/// discarded as soon as the query has been evaluated"), noting that caching
/// "requires a detailed study". CacheManager is that study's apparatus.
enum class CachePolicy {
  kNone,  // paper default: discard after the query; always re-mount
  kLru,   // keep up to capacity_bytes, evicting least-recently-used files
  kAll,   // keep everything (turns repeated exploration into Ei-like state)
};

/// \brief Granularity of cached entries (paper §3: "it leaves a question
/// behind, when and how one cache granularity is better than the other").
///
/// kFile caches the file's full ingested data: any later query over the file
/// hits. kTuple caches only the tuples that survived the selection pushed
/// into the mount (smaller footprint), so a later query hits only when its
/// pushed-down selection is covered by the cached one; otherwise the whole
/// file must be re-mounted — exactly the trade-off the paper describes.
enum class CacheGranularity { kFile, kTuple };

/// \brief Summary of the selection a tuple-granular entry was filtered by,
/// when that selection is a pure time window (every conjunct compares
/// sample_time against a literal). Enables subsumption: a cached superset
/// window serves any narrower query, with the narrower filter re-applied on
/// top of the cache-scan.
struct CachedWindow {
  bool pure = false;  // predicate constrains only sample_time
  double lo = 0;
  double hi = 0;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;      // dropped because the file changed on disk
  uint64_t budget_rejections = 0;  // insertions refused by the memory budget
  // Tiered (persistent) operation; all zero without an attached
  // PersistentCache.
  uint64_t spills = 0;           // resident entries demoted to on-disk stubs
  uint64_t reloads = 0;          // stubs promoted back to resident on touch
  uint64_t reload_failures = 0;  // stub reload refused (corrupt or no budget)
  uint64_t persisted = 0;        // entries written through to the durable tier
  uint64_t persist_failures = 0;

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = CacheStats;
    return std::tuple{
        StatField{"cache.hits", &S::hits},
        StatField{"cache.misses", &S::misses},
        StatField{"cache.insertions", &S::insertions},
        StatField{"cache.evictions", &S::evictions},
        StatField{"cache.invalidations", &S::invalidations},
        StatField{"cache.budget_rejections", &S::budget_rejections},
        StatField{"cache.spills", &S::spills},
        StatField{"cache.reloads", &S::reloads},
        StatField{"cache.reload_failures", &S::reload_failures},
        StatField{"cache.persisted", &S::persisted},
        StatField{"cache.persist_failures", &S::persist_failures}};
  }
};

/// \brief Keeps ingested file data between queries, keyed by URI.
///
/// Thread-safe: admission, lookup, and eviction take one internal mutex, so
/// concurrent mount tasks can insert their partial tables directly.
class CacheManager {
 public:
  struct Options {
    CachePolicy policy = CachePolicy::kNone;
    CacheGranularity granularity = CacheGranularity::kFile;
    uint64_t capacity_bytes = 256ull << 20;
  };

  CacheManager() : CacheManager(Options{}) {}
  explicit CacheManager(const Options& options) : options_(options) {}

  /// Unifies the cache with the database-wide memory budget: every insertion
  /// reserves its bytes, every eviction/invalidation releases them, and a
  /// reservation failure first evicts unpinned entries, then refuses the
  /// insertion (best-effort cache — never fails the query). Call once,
  /// before any query runs; `budget` is not owned and must outlive this.
  void AttachBudget(MemoryBudget* budget) { budget_ = budget; }

  /// Attaches the durable tier: insertions write through to `persistent`,
  /// budget/capacity eviction demotes persisted entries to on-disk *stubs*
  /// (metadata retained, bytes dropped) instead of discarding them, and a
  /// probed stub is reloaded — revalidated checksums and all — on touch.
  /// Call once, before any query runs; not owned, must outlive this.
  void AttachPersistent(PersistentCache* persistent) {
    persistent_ = persistent;
  }

  /// Seeds the cache with one entry recovered from the durable tier at open
  /// (already fully validated by PersistentCache::Recover). Adopted resident
  /// when `table` is non-null and the budget admits it, otherwise as a stub
  /// that reloads on first touch.
  void AdoptRecovered(const std::string& uri, const ColumnarFileMeta& meta,
                      TablePtr table);

  /// True if a later query with pushed-down selection `predicate_repr`
  /// (empty = unrestricted) can be served for `uri`, given the file's
  /// current mtime. Used by the run-time rewriter to choose cache-scan vs
  /// mount; counts a hit/miss.
  /// `window` (optional) summarizes the query's pushed-down selection for
  /// tuple-granular subsumption checks.
  bool Probe(const std::string& uri, const std::string& predicate_repr,
             int64_t current_mtime_ms, const CachedWindow* window = nullptr);

  /// Like Probe but without mutating stats or LRU order (used by the
  /// informativeness estimator, which must not distort cache accounting).
  bool WouldHit(const std::string& uri, const std::string& predicate_repr,
                int64_t current_mtime_ms,
                const CachedWindow* window = nullptr) const;

  /// Returns the cached partial table (call only after a true Probe; a miss
  /// here is an internal error surfaced as NotFound).
  Result<TablePtr> Lookup(const std::string& uri);

  /// Offers freshly mounted data to the cache. `predicate_repr` describes
  /// the selection applied before insertion (empty = whole file). No-op
  /// under kNone.
  void Insert(const std::string& uri, const std::string& predicate_repr,
              int64_t mtime_ms, TablePtr data,
              const CachedWindow* window = nullptr);

  /// Pins `uri` against eviction (both LRU-capacity and budget-pressure
  /// eviction). The two-stage executor pins the URIs its rewritten plan
  /// cache-scans, so freeing budget for new mounts cannot invalidate
  /// branches of the very plan being executed. No-op for unknown URIs;
  /// pins nest (Pin twice needs Unpin twice).
  void Pin(const std::string& uri);
  void Unpin(const std::string& uri);

  /// Evicts unpinned entries in LRU order until at least `min_bytes` were
  /// freed (or none are left). Called by the two-stage executor when a
  /// mount's budget reservation fails, before declaring memory exhaustion.
  /// Returns the number of entries evicted.
  size_t EvictUnpinned(uint64_t min_bytes);

  /// Drops every entry (e.g. after the repository was regenerated).
  void Clear();

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  uint64_t bytes_used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_used_;
  }
  size_t num_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  const Options& options() const { return options_; }

 private:
  struct Entry {
    // Residency marker: non-null = resident (listed in lru_); null = spilled
    // stub whose bytes live only in the durable tier (never in lru_).
    TablePtr data;
    std::string predicate_repr;
    CachedWindow window;
    int64_t mtime_ms = 0;
    uint64_t bytes = 0;  // in-memory footprint (kept while spilled, for reload)
    uint32_t pins = 0;
    bool persisted = false;  // a validated copy exists in the durable tier
    std::list<std::string>::iterator lru_it;  // valid only while resident
  };

  enum class ReloadResult { kOk, kNoBudget, kCorrupt };

  // Helpers below require mu_ to be held.
  bool TupleEntryServes(const Entry& entry, const std::string& predicate_repr,
                        const CachedWindow* window) const;

  void EvictIfNeeded();
  size_t EvictUnpinnedLocked(uint64_t min_bytes);
  void Erase(const std::string& uri);
  /// Demotes a resident persisted entry to a stub (frees budget + memory).
  void SpillLocked(const std::string& uri, Entry* entry);
  /// Promotes a stub back to resident via the durable tier's full validation
  /// ladder. kCorrupt means the entry was quarantined on disk — the caller
  /// must erase the stub and treat the probe/lookup as a miss.
  ReloadResult ReloadLocked(const std::string& uri, Entry* entry);
  /// Writes `table` through to the durable tier; returns success.
  bool PersistLocked(const std::string& uri, const Table& table,
                     const std::string& predicate_repr,
                     const CachedWindow& window, int64_t mtime_ms);

  const Options options_;
  MemoryBudget* budget_ = nullptr;  // set once before use; not owned
  PersistentCache* persistent_ = nullptr;  // durable tier; may stay null
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t bytes_used_ = 0;
  CacheStats stats_;
};

}  // namespace dex

#endif  // DEX_CORE_CACHE_MANAGER_H_

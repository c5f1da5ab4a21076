#include "core/cache_manager.h"

#include <vector>

#include "io/file_io.h"
#include "obs/trace.h"

namespace dex {

bool CacheManager::TupleEntryServes(const Entry& entry,
                                    const std::string& predicate_repr,
                                    const CachedWindow* window) const {
  if (entry.predicate_repr == predicate_repr) return true;
  // Window subsumption: the cached tuples cover [lo, hi]; any query window
  // inside it can be served (its narrower filter re-applies on top).
  return window != nullptr && window->pure && entry.window.pure &&
         entry.window.lo <= window->lo && entry.window.hi >= window->hi;
}

bool CacheManager::Probe(const std::string& uri,
                         const std::string& predicate_repr,
                         int64_t current_mtime_ms, const CachedWindow* window) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.policy == CachePolicy::kNone) {
    ++stats_.misses;
    return false;
  }
  auto it = entries_.find(uri);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  Entry& entry = it->second;
  if (entry.mtime_ms != current_mtime_ms) {
    // The file changed on disk; cached data is stale. The paper notes the
    // discard-always design "inherently ensures up-to-date data" — with
    // caching we must invalidate explicitly.
    ++stats_.invalidations;
    ++stats_.misses;
    Erase(uri);
    return false;
  }
  if (options_.granularity == CacheGranularity::kTuple &&
      !TupleEntryServes(entry, predicate_repr, window)) {
    // Tuple-granular entries only cover the selection they were filtered
    // by (or a window containing the query's); "we need to mount the whole
    // file even if there is one required tuple missing in the cache".
    ++stats_.misses;
    return false;
  }
  if (options_.granularity == CacheGranularity::kFile &&
      !entry.predicate_repr.empty()) {
    // A tuple-level entry can't serve file-granular expectations.
    ++stats_.misses;
    return false;
  }
  if (entry.data == nullptr) {
    // Spilled stub: the bytes live only in the durable tier. Promote them
    // back through the full validation ladder before promising a hit.
    switch (ReloadLocked(uri, &entry)) {
      case ReloadResult::kOk:
        break;
      case ReloadResult::kNoBudget:
        // Keep the stub (the data on disk is fine); this query mounts.
        ++stats_.misses;
        return false;
      case ReloadResult::kCorrupt:
        // The durable copy was quarantined-and-deleted underneath us; the
        // stub now points at nothing.
        Erase(uri);
        ++stats_.misses;
        return false;
    }
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  obs::Tracer::Instant("cache_hit", "cache", {{"uri", uri}});
  return true;
}

bool CacheManager::WouldHit(const std::string& uri,
                            const std::string& predicate_repr,
                            int64_t current_mtime_ms,
                            const CachedWindow* window) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.policy == CachePolicy::kNone) return false;
  auto it = entries_.find(uri);
  if (it == entries_.end()) return false;
  const Entry& entry = it->second;
  if (entry.mtime_ms != current_mtime_ms) return false;
  if (options_.granularity == CacheGranularity::kTuple) {
    return TupleEntryServes(entry, predicate_repr, window);
  }
  return entry.predicate_repr.empty();
}

Result<TablePtr> CacheManager::Lookup(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(uri);
  if (it == entries_.end()) {
    return Status::NotFound("no cached data for '" + uri + "'");
  }
  if (it->second.data == nullptr) {
    // The entry was spilled between probe and lookup (budget pressure from a
    // concurrent query). Reload; on failure the cache-scan falls back to
    // mounting the source file, so the query still answers correctly.
    switch (ReloadLocked(uri, &it->second)) {
      case ReloadResult::kOk:
        break;
      case ReloadResult::kNoBudget:
        return Status::NotFound("cached data for '" + uri +
                                "' spilled and budget refuses reload");
      case ReloadResult::kCorrupt:
        Erase(uri);
        return Status::NotFound("cached data for '" + uri +
                                "' quarantined on reload");
    }
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.data;
}

void CacheManager::Insert(const std::string& uri,
                          const std::string& predicate_repr, int64_t mtime_ms,
                          TablePtr data, const CachedWindow* window) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.policy == CachePolicy::kNone || data == nullptr) return;
  if (options_.granularity == CacheGranularity::kFile && !predicate_repr.empty()) {
    // File-granular cache stores whole files only; filtered mounts are not
    // cacheable under this configuration.
    return;
  }
  Erase(uri);
  Entry entry;
  entry.bytes = data->ByteSize();
  entry.predicate_repr = predicate_repr;
  if (window != nullptr) entry.window = *window;
  entry.mtime_ms = mtime_ms;
  if (budget_ != nullptr && !budget_->TryReserve(entry.bytes)) {
    // Make room at the expense of colder entries before giving up; the
    // cache is best-effort, so a refused insertion never fails the query.
    (void)EvictUnpinnedLocked(entry.bytes);
    if (!budget_->TryReserve(entry.bytes)) {
      ++stats_.budget_rejections;
      obs::Tracer::Instant("cache_reject", "cache", {{"uri", uri}});
      // No room in memory — but the durable tier has no budget. Persist and
      // keep a stub, so a later (less pressured) query can reload instead of
      // re-mounting.
      if (persistent_ != nullptr &&
          PersistLocked(uri, *data, entry.predicate_repr, entry.window,
                        mtime_ms)) {
        entry.persisted = true;
        ++stats_.spills;
        entries_.emplace(uri, std::move(entry));  // data stays null: a stub
      }
      return;
    }
  }
  if (persistent_ != nullptr) {
    entry.persisted = PersistLocked(uri, *data, entry.predicate_repr,
                                    entry.window, mtime_ms);
  }
  entry.data = std::move(data);
  lru_.push_front(uri);
  entry.lru_it = lru_.begin();
  bytes_used_ += entry.bytes;
  entries_.emplace(uri, std::move(entry));
  ++stats_.insertions;
  EvictIfNeeded();
}

void CacheManager::EvictIfNeeded() {
  if (options_.policy != CachePolicy::kLru) return;
  // Collect victims tail-first, skipping pinned entries (their data is
  // planned into a running query's cache-scan branches).
  std::vector<std::string> victims;
  uint64_t would_free = 0;
  for (auto it = lru_.rbegin();
       it != lru_.rend() && bytes_used_ - would_free > options_.capacity_bytes;
       ++it) {
    const Entry& entry = entries_.at(*it);
    if (entry.pins > 0) continue;
    victims.push_back(*it);
    would_free += entry.bytes;
  }
  for (const std::string& victim : victims) {
    Entry& entry = entries_.at(victim);
    if (entry.persisted) {
      SpillLocked(victim, &entry);  // demote, don't discard: reload is cheap
    } else {
      obs::Tracer::Instant("cache_evict", "cache", {{"uri", victim}});
      Erase(victim);
      ++stats_.evictions;
    }
  }
}

size_t CacheManager::EvictUnpinnedLocked(uint64_t min_bytes) {
  std::vector<std::string> victims;
  uint64_t would_free = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend() && would_free < min_bytes;
       ++it) {
    const Entry& entry = entries_.at(*it);
    if (entry.pins > 0) continue;
    victims.push_back(*it);
    would_free += entry.bytes;
  }
  for (const std::string& victim : victims) {
    Entry& entry = entries_.at(victim);
    if (entry.persisted) {
      SpillLocked(victim, &entry);
    } else {
      obs::Tracer::Instant("cache_evict", "cache",
                           {{"uri", victim}, {"reason", "memory_budget"}});
      Erase(victim);
      ++stats_.evictions;
    }
  }
  return victims.size();
}

size_t CacheManager::EvictUnpinned(uint64_t min_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictUnpinnedLocked(min_bytes);
}

void CacheManager::Pin(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(uri);
  if (it != entries_.end()) ++it->second.pins;
}

void CacheManager::Unpin(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(uri);
  if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
}

void CacheManager::Erase(const std::string& uri) {
  auto it = entries_.find(uri);
  if (it == entries_.end()) return;
  if (it->second.data != nullptr) {  // stubs hold no memory and no lru slot
    if (budget_ != nullptr) budget_->Release(it->second.bytes);
    bytes_used_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
  }
  // An erased entry is gone for good (invalidated or replaced), so its
  // durable copy must go too — a stale disk file must never outlive the
  // in-memory decision that it is no longer trustworthy.
  if (it->second.persisted && persistent_ != nullptr) {
    persistent_->Remove(uri);
  }
  entries_.erase(it);
}

void CacheManager::SpillLocked(const std::string& uri, Entry* entry) {
  if (budget_ != nullptr) budget_->Release(entry->bytes);
  bytes_used_ -= entry->bytes;
  lru_.erase(entry->lru_it);
  entry->data = nullptr;
  ++stats_.spills;
  obs::Tracer::Instant("cache_spill", "cache", {{"uri", uri}});
}

CacheManager::ReloadResult CacheManager::ReloadLocked(const std::string& uri,
                                                      Entry* entry) {
  ColumnarFileMeta meta;
  auto loaded = persistent_ != nullptr
                    ? persistent_->Load(uri, &meta)
                    : Result<TablePtr>(Status::NotFound("no durable tier"));
  if (!loaded.ok()) {
    ++stats_.reload_failures;
    return ReloadResult::kCorrupt;
  }
  const uint64_t bytes = (*loaded)->ByteSize();
  if (budget_ != nullptr && !budget_->TryReserve(bytes)) {
    (void)EvictUnpinnedLocked(bytes);
    if (!budget_->TryReserve(bytes)) {
      ++stats_.reload_failures;
      return ReloadResult::kNoBudget;
    }
  }
  entry->data = std::move(*loaded);
  entry->bytes = bytes;
  lru_.push_front(uri);
  entry->lru_it = lru_.begin();
  bytes_used_ += bytes;
  ++stats_.reloads;
  obs::Tracer::Instant("cache_reload", "cache", {{"uri", uri}});
  return ReloadResult::kOk;
}

bool CacheManager::PersistLocked(const std::string& uri, const Table& table,
                                 const std::string& predicate_repr,
                                 const CachedWindow& window, int64_t mtime_ms) {
  ColumnarFileMeta meta;
  meta.source_uri = uri;
  meta.predicate_repr = predicate_repr;
  meta.window_pure = window.pure;
  meta.window_lo = window.lo;
  meta.window_hi = window.hi;
  meta.source_size_bytes = FileSize(uri).ValueOr(0);
  meta.source_mtime_ms = mtime_ms;
  const bool ok = persistent_->Persist(uri, table, meta);
  if (ok) {
    ++stats_.persisted;
  } else {
    ++stats_.persist_failures;
  }
  return ok;
}

void CacheManager::AdoptRecovered(const std::string& uri,
                                  const ColumnarFileMeta& meta, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.policy == CachePolicy::kNone) return;
  Erase(uri);
  Entry entry;
  entry.predicate_repr = meta.predicate_repr;
  entry.window.pure = meta.window_pure;
  entry.window.lo = meta.window_lo;
  entry.window.hi = meta.window_hi;
  entry.mtime_ms = meta.source_mtime_ms;
  entry.bytes = table != nullptr ? table->ByteSize() : meta.table_byte_size;
  entry.persisted = true;
  const bool admit = table != nullptr &&
                     (budget_ == nullptr || budget_->TryReserve(entry.bytes));
  if (admit) {
    entry.data = std::move(table);
    lru_.push_front(uri);
    entry.lru_it = lru_.begin();
    bytes_used_ += entry.bytes;
  } else {
    ++stats_.spills;  // adopted as a stub; first touch reloads
  }
  entries_.emplace(uri, std::move(entry));
  EvictIfNeeded();
}

void CacheManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (budget_ != nullptr) budget_->Release(bytes_used_);
  entries_.clear();
  lru_.clear();
  bytes_used_ = 0;
  if (persistent_ != nullptr) persistent_->RemoveAll();
}

}  // namespace dex

#include "core/persistent_cache.h"

#include <array>
#include <cstdio>

#include "common/fnv.h"
#include "io/byte_codec.h"
#include "io/file_io.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace dex {

namespace {

constexpr char kManifestMagic[8] = {'D', 'X', 'M', 'A', 'N', '0', '0', '1'};
constexpr char kManifestName[] = "MANIFEST";
constexpr char kEntryExtension[] = ".dxcol";

// Manifest updates are modeled as one fixed-size append: the charge per
// persist must not depend on how many entries happen to precede it, or the
// per-task sim buckets (and with them the replayed critical path) would vary
// with insertion order across worker counts.
constexpr uint64_t kManifestAppendBytes = 4096;

uint32_t StreamFor(const std::string& uri) {
  return static_cast<uint32_t>(Fnv1aString(uri));
}

std::string HexName(const std::string& uri) {
  const uint64_t h = Fnv1aString(uri);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf) + kEntryExtension;
}

/// Emits the CACHE_QUARANTINE decision to the flight recorder (mirroring
/// PR 1's file-quarantine surfacing) and auto-dumps the ring: a corrupt
/// persistent entry is exactly the "what led up to this?" moment the
/// recorder exists for.
void EmitQuarantineEvent(const std::string& kind, const std::string& uri,
                         const std::string& reason) {
  obs::FlightEvent e;
  e.kind = kind;
  e.detail = "CACHE_QUARANTINE: '" + uri + "' (" + reason + ")";
  if (kind == "cache_stale") e.detail = "'" + uri + "' (" + reason + ")";
  obs::FlightRecorder::Global().Record(std::move(e));
  obs::Tracer::Instant(kind.c_str(), "cache",
                       {{"uri", uri}, {"reason", reason}});
  if (kind == "cache_quarantine") {
    obs::FlightRecorder::Global().AutoDump("cache_quarantine: " + uri);
  }
}

}  // namespace

PersistentCache::PersistentCache(SimDisk* disk, const Options& options)
    : disk_(disk), options_(options) {}

void PersistentCache::ChargeWrite(uint64_t bytes) {
  const double mbps = disk_->options().write_mb_per_sec;
  disk_->ChargeDelay(static_cast<uint64_t>(bytes * 1000.0 / mbps));
}

void PersistentCache::ChargeRead(uint64_t bytes) {
  const double mbps = disk_->options().read_mb_per_sec;
  disk_->ChargeDelay(static_cast<uint64_t>(bytes * 1000.0 / mbps));
}

void PersistentCache::ChargeSeek() {
  disk_->ChargeDelay(
      static_cast<uint64_t>(disk_->options().seek_millis * 1e6));
}

Status PersistentCache::WriteManifestLocked() {
  ByteWriter out;
  out.Bytes(kManifestMagic, sizeof(kManifestMagic));
  out.U64(options_.generation);
  out.U64(manifest_.size());
  for (const auto& [uri, e] : manifest_) {
    out.Str(uri);
    out.Str(e.file);
    out.U64(e.encoded_bytes);
    out.U64(e.source_size_bytes);
    out.I64(e.source_mtime_ms);
  }
  out.Seal();
  ChargeWrite(kManifestAppendBytes);
  return WriteFileAtomic(options_.dir + "/" + kManifestName, out.bytes());
}

Status PersistentCache::ReadManifestLocked() {
  const std::string path = options_.dir + "/" + kManifestName;
  if (!FileExists(path)) {
    manifest_.clear();
    return Status::OK();  // empty cache, nothing to recover
  }
  std::string data;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &data));
  ChargeRead(data.size());
  DEX_ASSIGN_OR_RETURN(ByteReader in,
                       Unseal(data, kManifestMagic, "cache manifest"));
  DEX_ASSIGN_OR_RETURN(uint64_t generation, in.U64());
  if (generation != options_.generation) {
    return Status::Corruption("cache manifest generation " +
                              std::to_string(generation) + " != expected " +
                              std::to_string(options_.generation));
  }
  DEX_ASSIGN_OR_RETURN(uint64_t count, in.U64());
  std::map<std::string, ManifestEntry> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    DEX_ASSIGN_OR_RETURN(std::string uri, in.Str());
    ManifestEntry e;
    DEX_ASSIGN_OR_RETURN(e.file, in.Str());
    DEX_ASSIGN_OR_RETURN(e.encoded_bytes, in.U64());
    DEX_ASSIGN_OR_RETURN(e.source_size_bytes, in.U64());
    DEX_ASSIGN_OR_RETURN(e.source_mtime_ms, in.I64());
    loaded.emplace(std::move(uri), std::move(e));
  }
  DEX_RETURN_NOT_OK(in.End());
  manifest_ = std::move(loaded);
  return Status::OK();
}

void PersistentCache::QuarantineLocked(const std::string& uri,
                                       const std::string& /*reason*/) {
  auto it = manifest_.find(uri);
  if (it != manifest_.end()) {
    (void)std::remove((options_.dir + "/" + it->second.file).c_str());
    manifest_.erase(it);
  }
  ++stats_.quarantined;
  (void)WriteManifestLocked();
}

bool PersistentCache::Persist(const std::string& uri, const Table& table,
                              ColumnarFileMeta meta) {
  meta.source_uri = uri;
  if (meta.table_byte_size == 0) meta.table_byte_size = table.ByteSize();
  std::string bytes = EncodeColumnarFile(table, meta);
  const uint64_t intended = bytes.size();

  // Draw this file's write fate from its own stream, then apply it
  // physically: the bytes that land are really torn/flipped, so recovery
  // exercises the genuine validation ladder.
  const FaultInjector::CacheWriteFault fault =
      disk_->fault_injector()->OnCacheWrite(StreamFor(uri), intended);
  if (fault.torn) bytes.resize(fault.keep_bytes);
  if (fault.bit_flip && fault.flip_offset < bytes.size()) {
    bytes[fault.flip_offset] =
        static_cast<char>(static_cast<uint8_t>(bytes[fault.flip_offset]) ^
                          fault.flip_mask);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ChargeSeek();
  ChargeWrite(bytes.size());
  const std::string file = HexName(uri);
  const Status st = WriteFileAtomic(options_.dir + "/" + file, bytes);
  if (!st.ok()) {
    ++stats_.persist_failures;
    return false;
  }
  ManifestEntry e;
  e.file = file;
  e.encoded_bytes = intended;
  e.source_size_bytes = meta.source_size_bytes;
  e.source_mtime_ms = meta.source_mtime_ms;
  manifest_[uri] = std::move(e);
  if (!WriteManifestLocked().ok()) {
    ++stats_.persist_failures;
    return false;
  }
  ++stats_.persisted;
  stats_.persisted_bytes += bytes.size();
  return true;
}

Result<TablePtr> PersistentCache::Load(const std::string& uri,
                                       ColumnarFileMeta* meta) {
  std::string quarantine_reason;
  Result<TablePtr> out = [&]() -> Result<TablePtr> {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = manifest_.find(uri);
    if (it == manifest_.end()) {
      return Status::NotFound("no persisted cache entry for '" + uri + "'");
    }
    const std::string path = options_.dir + "/" + it->second.file;
    std::string bytes;
    const Status read = ReadFileToString(path, &bytes);
    if (!read.ok()) {
      quarantine_reason = read.message();
      QuarantineLocked(uri, quarantine_reason);
      ++stats_.load_failures;
      return Status::Corruption("cache entry unreadable: " + read.message());
    }
    // An injected short read returns only a prefix of the real bytes — the
    // decode must catch it exactly like a physically truncated file.
    const FaultInjector::CacheReadFault fault =
        disk_->fault_injector()->OnCacheRead(StreamFor(uri), bytes.size());
    if (fault.short_read) bytes.resize(fault.keep_bytes);
    ChargeSeek();
    ChargeRead(bytes.size());
    auto decoded = DecodeColumnarFile(bytes, meta);
    if (!decoded.ok()) {
      quarantine_reason = decoded.status().message();
      QuarantineLocked(uri, quarantine_reason);
      ++stats_.load_failures;
      return decoded.status();
    }
    ++stats_.loads;
    return decoded;
  }();
  if (!quarantine_reason.empty()) {
    EmitQuarantineEvent("cache_quarantine", uri, quarantine_reason);
  }
  return out;
}

std::vector<PersistentCache::RecoveredEntry> PersistentCache::Recover() {
  std::vector<RecoveredEntry> survivors;
  // kind, uri, reason — emitted after the lock is released.
  std::vector<std::array<std::string, 3>> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ChargeSeek();  // one seek: the cache dir is read back sequentially
    const Status mst = ReadManifestLocked();
    if (!mst.ok()) {
      // The manifest itself is untrustworthy: discard the whole directory.
      // Losing a valid entry to a bad manifest only costs a re-mount;
      // trusting a bad manifest could cost correctness.
      auto files = ListFiles(options_.dir, kEntryExtension);
      if (files.ok()) {
        for (const std::string& f : *files) (void)std::remove(f.c_str());
      }
      (void)std::remove((options_.dir + "/" + kManifestName).c_str());
      manifest_.clear();
      ++stats_.quarantined;
      events.push_back({"cache_quarantine", options_.dir, mst.message()});
    } else {
      // Orphan entry files (present on disk, absent from the sealed
      // manifest — e.g. a crash between entry write and manifest write)
      // are deleted: the manifest is the only source of truth.
      auto files = ListFiles(options_.dir, kEntryExtension);
      if (files.ok()) {
        for (const std::string& f : *files) {
          const std::string base = f.substr(f.find_last_of('/') + 1);
          bool listed = false;
          for (const auto& [uri, e] : manifest_) {
            if (e.file == base) {
              listed = true;
              break;
            }
          }
          if (!listed) (void)std::remove(f.c_str());
        }
      }
      std::vector<std::string> drop_stale, drop_corrupt;
      std::vector<std::string> corrupt_reasons;
      for (const auto& [uri, e] : manifest_) {
        // Ladder step 2: the source file must still be exactly what the
        // entry was persisted against.
        auto size = FileSize(uri);
        auto mtime = FileMtimeMillis(uri);
        if (!size.ok() || !mtime.ok() || *size != e.source_size_bytes ||
            *mtime != e.source_mtime_ms) {
          drop_stale.push_back(uri);
          events.push_back({"cache_stale", uri,
                            "source file changed or vanished since persist"});
          continue;
        }
        // Ladder step 3: read the entry back (short-read faults apply) and
        // verify every checksum by fully decoding it.
        const std::string path = options_.dir + "/" + e.file;
        std::string bytes;
        const Status read = ReadFileToString(path, &bytes);
        if (!read.ok()) {
          drop_corrupt.push_back(uri);
          corrupt_reasons.push_back(read.message());
          continue;
        }
        const FaultInjector::CacheReadFault fault =
            disk_->fault_injector()->OnCacheRead(StreamFor(uri), bytes.size());
        if (fault.short_read) bytes.resize(fault.keep_bytes);
        ChargeRead(bytes.size());
        RecoveredEntry rec;
        rec.uri = uri;
        auto decoded = DecodeColumnarFile(bytes, &rec.meta);
        if (!decoded.ok()) {
          drop_corrupt.push_back(uri);
          corrupt_reasons.push_back(decoded.status().message());
          continue;
        }
        rec.table = std::move(*decoded);
        ++stats_.recovered;
        survivors.push_back(std::move(rec));
      }
      for (const std::string& uri : drop_stale) {
        auto it = manifest_.find(uri);
        if (it != manifest_.end()) {
          (void)std::remove((options_.dir + "/" + it->second.file).c_str());
          manifest_.erase(it);
        }
        ++stats_.stale_dropped;
      }
      for (size_t i = 0; i < drop_corrupt.size(); ++i) {
        const std::string& uri = drop_corrupt[i];
        auto it = manifest_.find(uri);
        if (it != manifest_.end()) {
          (void)std::remove((options_.dir + "/" + it->second.file).c_str());
          manifest_.erase(it);
        }
        ++stats_.quarantined;
        events.push_back({"cache_quarantine", uri, corrupt_reasons[i]});
      }
      if (!drop_stale.empty() || !drop_corrupt.empty()) {
        (void)WriteManifestLocked();
      }
    }
  }
  for (const auto& [kind, uri, reason] : events) {
    EmitQuarantineEvent(kind, uri, reason);
  }
  return survivors;
}

void PersistentCache::Remove(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = manifest_.find(uri);
  if (it == manifest_.end()) return;
  (void)std::remove((options_.dir + "/" + it->second.file).c_str());
  manifest_.erase(it);
  (void)WriteManifestLocked();
}

void PersistentCache::RemoveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [uri, e] : manifest_) {
    (void)std::remove((options_.dir + "/" + e.file).c_str());
  }
  manifest_.clear();
  (void)std::remove((options_.dir + "/" + kManifestName).c_str());
}

}  // namespace dex

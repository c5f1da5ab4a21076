#include "io/sim_disk.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/trace.h"

namespace dex {

thread_local uint64_t* SimDisk::tls_sim_nanos_sink_ = nullptr;
thread_local uint64_t* SimDisk::tls_query_sink_ = nullptr;

SimDisk::TaskTimeScope::TaskTimeScope(uint64_t* sink)
    : prev_(tls_sim_nanos_sink_) {
  tls_sim_nanos_sink_ = sink;
}

SimDisk::TaskTimeScope::~TaskTimeScope() { tls_sim_nanos_sink_ = prev_; }

SimDisk::QueryTimeScope::QueryTimeScope(uint64_t* sink)
    : prev_(tls_query_sink_) {
  tls_query_sink_ = sink;
}

SimDisk::QueryTimeScope::~QueryTimeScope() { tls_query_sink_ = prev_; }

SimDisk::SimDisk(const Options& options)
    : options_(options), injector_(options.faults) {
  DEX_CHECK_GT(options_.page_bytes, 0u);
  objects_.emplace_back();  // slot 0 = kInvalidObjectId
  max_pages_ = std::max<uint64_t>(1, options_.buffer_pool_bytes / options_.page_bytes);
}

ObjectId SimDisk::Register(const std::string& name, uint64_t size,
                           bool fault_injectable) {
  std::lock_guard<std::mutex> lock(mu_);
  Object obj;
  obj.name = name;
  obj.size = size;
  obj.live = true;
  obj.fault_injectable = fault_injectable;
  objects_.push_back(std::move(obj));
  return static_cast<ObjectId>(objects_.size() - 1);
}

Status SimDisk::CheckLive(ObjectId id) const {
  if (id == kInvalidObjectId || id >= objects_.size() || !objects_[id].live) {
    return Status::NotFound("unknown storage object id " + std::to_string(id));
  }
  return Status::OK();
}

Status SimDisk::ResizeLocked(ObjectId id, uint64_t new_size) {
  DEX_RETURN_NOT_OK(CheckLive(id));
  const uint64_t old_pages =
      (objects_[id].size + options_.page_bytes - 1) / options_.page_bytes;
  const uint64_t new_pages = (new_size + options_.page_bytes - 1) / options_.page_bytes;
  // Shrinking: drop now-out-of-range pages.
  for (uint64_t p = new_pages; p < old_pages; ++p) {
    auto it = lru_map_.find(PageKey(id, p));
    if (it != lru_map_.end()) {
      lru_list_.erase(it->second);
      lru_map_.erase(it);
      --resident_pages_;
    }
  }
  objects_[id].size = new_size;
  return Status::OK();
}

Status SimDisk::Resize(ObjectId id, uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResizeLocked(id, new_size);
}

Status SimDisk::Unregister(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(ResizeLocked(id, 0));
  objects_[id].live = false;
  return Status::OK();
}

void SimDisk::Touch(uint64_t key) {
  auto it = lru_map_.find(key);
  DEX_CHECK(it != lru_map_.end());
  lru_list_.splice(lru_list_.begin(), lru_list_, it->second);
}

void SimDisk::Insert(uint64_t key) {
  lru_list_.push_front(key);
  lru_map_[key] = lru_list_.begin();
  ++resident_pages_;
  EvictIfNeeded();
}

void SimDisk::EvictIfNeeded() {
  while (resident_pages_ > max_pages_) {
    const uint64_t victim = lru_list_.back();
    lru_list_.pop_back();
    lru_map_.erase(victim);
    --resident_pages_;
  }
}

void SimDisk::ChargeTime(uint64_t nanos) {
  // A task scope routes this thread's stall time to the task's own bucket;
  // the parallel mount path later charges the aggregated critical path back
  // through ChargeDelay on the coordinating thread.
  if (tls_sim_nanos_sink_ != nullptr) {
    *tls_sim_nanos_sink_ += nanos;
  } else {
    stats_.sim_nanos += nanos;
    // Per-query tee: mirrors exactly what this thread advanced the global
    // clock by. Task-bucketed charges above are excluded — the coordinator
    // folds their aggregate back in through ChargeDelay, which passes here.
    if (tls_query_sink_ != nullptr) *tls_query_sink_ += nanos;
  }
  // Observability mirror (thread-local; never feeds back into accounting):
  // lets open trace spans attribute this stall to their sim clock.
  obs::AddSimCharge(nanos);
}

void SimDisk::ChargeTransfer(uint64_t bytes, double mb_per_sec) {
  // nanos = bytes / (MB/s * 1e6 B/s) * 1e9.
  ChargeTime(static_cast<uint64_t>(
      static_cast<double>(bytes) / (mb_per_sec * 1e6) * 1e9));
}

void SimDisk::ChargeSeek() {
  stats_.seeks += 1;
  ChargeTime(static_cast<uint64_t>(options_.seek_millis * 1e6));
}

void SimDisk::ChargeDelay(uint64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  ChargeTime(nanos);
}

Status SimDisk::ReadLocked(ObjectId id, uint64_t offset, uint64_t length) {
  DEX_RETURN_NOT_OK(CheckLive(id));
  if (length == 0) return Status::OK();
  const Object& obj = objects_[id];
  if (offset + length > obj.size) {
    return Status::InvalidArgument("read past end of '" + obj.name + "' (" +
                                   std::to_string(offset + length) + " > " +
                                   std::to_string(obj.size) + ")");
  }
  const uint64_t first = offset / options_.page_bytes;
  const uint64_t last = (offset + length - 1) / options_.page_bytes;

  // Fault injection point: a read that would touch the physical medium (at
  // least one page miss) may fail or stall. Permanently failed objects fail
  // every read — their bytes cannot be delivered regardless of caching.
  if (obj.fault_injectable) {
    const bool permanently_failed = injector_.IsFailed(id);
    bool would_miss = permanently_failed;
    for (uint64_t p = first; p <= last && !would_miss; ++p) {
      would_miss = !IsResident(PageKey(id, p));
    }
    if (would_miss &&
        (injector_.options().active() || injector_.has_permanent_faults())) {
      const FaultInjector::ReadFault fault = injector_.OnDiskRead(id);
      ChargeTime(fault.extra_latency_nanos);
      if (fault.fail) {
        // The failed attempt still paid for positioning the head; no pages
        // become resident.
        ChargeSeek();
        ++stats_.read_faults;
        if (fault.permanent) {
          return Status::IOError("permanent I/O failure reading '" + obj.name +
                                 "'");
        }
        return Status::IOError("transient read error on '" + obj.name + "'");
      }
    }
  }

  bool in_miss_run = false;
  uint64_t miss_pages = 0;
  for (uint64_t p = first; p <= last; ++p) {
    const uint64_t key = PageKey(id, p);
    if (IsResident(key)) {
      Touch(key);
      in_miss_run = false;
    } else {
      if (!in_miss_run) {
        ChargeSeek();
        in_miss_run = true;
      }
      ++miss_pages;
      Insert(key);
    }
  }
  const uint64_t miss_bytes = miss_pages * options_.page_bytes;
  const uint64_t total_pages = last - first + 1;
  stats_.disk_bytes_read += miss_bytes;
  stats_.cached_bytes_read += (total_pages - miss_pages) * options_.page_bytes;
  ChargeTransfer(miss_bytes, options_.read_mb_per_sec);
  return Status::OK();
}

Status SimDisk::Read(ObjectId id, uint64_t offset, uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadLocked(id, offset, length);
}

Status SimDisk::ReadAll(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  return ReadLocked(id, 0, objects_[id].size);
}

Status SimDisk::Write(ObjectId id, uint64_t offset, uint64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  if (length == 0) return Status::OK();
  Object& obj = objects_[id];
  obj.size = std::max(obj.size, offset + length);
  const uint64_t first = offset / options_.page_bytes;
  const uint64_t last = (offset + length - 1) / options_.page_bytes;
  for (uint64_t p = first; p <= last; ++p) {
    const uint64_t key = PageKey(id, p);
    if (IsResident(key)) {
      Touch(key);
    } else {
      Insert(key);
    }
  }
  stats_.bytes_written += length;
  ChargeTransfer(length, options_.write_mb_per_sec);
  return Status::OK();
}

void SimDisk::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_list_.clear();
  lru_map_.clear();
  resident_pages_ = 0;
}

Status SimDisk::Prefault(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  const Object& obj = objects_[id];
  const uint64_t pages = (obj.size + options_.page_bytes - 1) / options_.page_bytes;
  for (uint64_t p = 0; p < pages; ++p) {
    const uint64_t key = PageKey(id, p);
    if (!IsResident(key)) Insert(key);
  }
  return Status::OK();
}

Result<uint64_t> SimDisk::ObjectSize(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  return objects_[id].size;
}

Result<std::string> SimDisk::ObjectName(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  return objects_[id].name;
}

Result<double> SimDisk::ResidentFraction(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DEX_RETURN_NOT_OK(CheckLive(id));
  const Object& obj = objects_[id];
  const uint64_t pages = (obj.size + options_.page_bytes - 1) / options_.page_bytes;
  if (pages == 0) return 1.0;
  uint64_t resident = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (IsResident(PageKey(id, p))) ++resident;
  }
  return static_cast<double>(resident) / static_cast<double>(pages);
}

}  // namespace dex

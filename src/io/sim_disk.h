#ifndef DEX_IO_SIM_DISK_H_
#define DEX_IO_SIM_DISK_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/fault_injector.h"
#include "io/io_stats.h"

namespace dex {

/// Identifies a persistent byte range ("storage object") on the simulated
/// disk: a repository file, a loaded column, or an index.
using ObjectId = uint32_t;
constexpr ObjectId kInvalidObjectId = 0;

/// \brief A simulated spinning-disk storage medium with a page-granular
/// LRU buffer pool.
///
/// This is the reproduction substitute for the paper's physical testbed
/// (7200rpm disk, 16 GB RAM): every persistent byte in the system — mSEED
/// repository files, eagerly loaded tables, and indexes — is *registered* as
/// a storage object and *accessed* through `Read`. A read that misses the
/// buffer pool charges simulated seek + transfer time; a hit is free. This
/// makes the paper's "cold" (restart, buffers flushed) and "hot" (buffers
/// pre-loaded) runs deterministic: cold = `FlushAll()`, hot = run twice.
///
/// The class does not hold data — contents live in the real structures that
/// own them (std::vector columns, real files). It accounts only for *where
/// the bytes would have been* and what moving them would cost.
///
/// All methods are thread-safe (one internal mutex). Concurrent *time*
/// accounting additionally supports per-task attribution: a worker thread
/// that installs a `TaskTimeScope` has all simulated stall time it incurs
/// accumulated into its own sink instead of the global `stats().sim_nanos`.
/// The parallel mount path uses this to compute a deterministic critical
/// path (makespan over worker lanes) that it then charges back via
/// `ChargeDelay` — simulated elapsed time stays independent of how the OS
/// actually interleaved the worker threads.
class SimDisk {
 public:
  struct Options {
    double seek_millis = 8.0;          // average seek+rotational latency
    double read_mb_per_sec = 120.0;    // sequential read bandwidth
    double write_mb_per_sec = 100.0;   // sequential write bandwidth
    uint64_t buffer_pool_bytes = 4ull << 30;  // RAM available for caching
    uint64_t page_bytes = 256 * 1024;  // buffer pool page size
    /// I/O fault injection (seeded, deterministic). Only objects registered
    /// as fault-injectable (repository files) are affected.
    FaultInjector::Options faults;
  };

  /// \brief RAII redirection of this thread's simulated-time charges.
  ///
  /// While alive, any `sim_nanos` the current thread would add to the global
  /// stats goes to `*sink` instead (byte/seek/fault counters still go to the
  /// shared stats — those are order-independent sums). Scopes nest; the
  /// previous sink is restored on destruction. The sink must outlive the
  /// scope and is only written by this thread, so no synchronisation is
  /// needed to read it after the owning task finished.
  class TaskTimeScope {
   public:
    explicit TaskTimeScope(uint64_t* sink);
    ~TaskTimeScope();

    TaskTimeScope(const TaskTimeScope&) = delete;
    TaskTimeScope& operator=(const TaskTimeScope&) = delete;

   private:
    uint64_t* prev_;
  };

  /// \brief RAII per-query attribution of this thread's *global* sim charges.
  ///
  /// While alive, every nanosecond the current thread adds to the global
  /// `stats().sim_nanos` is *also* added to `*sink` — a tee, not a redirect.
  /// Charges that a TaskTimeScope routes into a task bucket are excluded (the
  /// coordinator later folds them back in via ChargeDelay of the aggregated
  /// schedule, at which point they do hit the query sink), so the sink ends
  /// up equal to exactly what this query advanced the global clock by. The
  /// serving layer installs one per query on the coordinating thread, which
  /// makes per-query `sim_io_nanos` independent of what other concurrent
  /// queries charge — the global start/end diff is not.
  class QueryTimeScope {
   public:
    explicit QueryTimeScope(uint64_t* sink);
    ~QueryTimeScope();

    QueryTimeScope(const QueryTimeScope&) = delete;
    QueryTimeScope& operator=(const QueryTimeScope&) = delete;

   private:
    uint64_t* prev_;
  };

  SimDisk() : SimDisk(Options{}) {}
  explicit SimDisk(const Options& options);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Registers a new object of `size` bytes. Registration itself does not
  /// charge I/O (use Write for that). `name` is for diagnostics only.
  /// `fault_injectable` marks objects the fault injector may fail — the
  /// repository's files, as opposed to catalog tables and indexes whose
  /// durability is the database's own responsibility.
  ObjectId Register(const std::string& name, uint64_t size,
                    bool fault_injectable = false);

  /// Grows/shrinks an object (e.g. a column being appended to).
  Status Resize(ObjectId id, uint64_t new_size);

  /// Forgets the object and evicts its cached pages.
  Status Unregister(ObjectId id);

  /// Simulates reading [offset, offset+length) of `id`. Misses charge
  /// simulated time and pull pages into the buffer pool.
  Status Read(ObjectId id, uint64_t offset, uint64_t length);

  /// Convenience: read the whole object.
  Status ReadAll(ObjectId id);

  /// Simulates writing [offset, offset+length), growing the object if
  /// needed; written pages become resident (write-back caching).
  Status Write(ObjectId id, uint64_t offset, uint64_t length);

  /// Evicts everything: the next reads are cold. Equivalent to the paper's
  /// "right after restarting the server with all buffers flushed".
  void FlushAll();

  /// Pre-loads all pages of `id` without charging time (test/bench helper
  /// for constructing a hot state directly).
  Status Prefault(ObjectId id);

  /// Charges `nanos` of simulated wall time without moving any bytes (e.g.
  /// retry backoff in the fault-tolerant mount path, or the aggregated
  /// critical path of a parallel mount wave).
  void ChargeDelay(uint64_t nanos);

  Result<uint64_t> ObjectSize(ObjectId id) const;
  Result<std::string> ObjectName(ObjectId id) const;

  /// Fraction of the object's pages currently resident, in [0, 1].
  Result<double> ResidentFraction(ObjectId id) const;

  IoStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  uint64_t buffer_pool_used_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resident_pages_ * options_.page_bytes;
  }
  const Options& options() const { return options_; }

  /// The disk's fault injector (always present; inert unless configured via
  /// Options::faults or FailObject).
  FaultInjector* fault_injector() { return &injector_; }
  const FaultInjector& fault_injector() const { return injector_; }

 private:
  struct Object {
    std::string name;
    uint64_t size = 0;
    bool live = false;
    bool fault_injectable = false;
  };

  // Page key: object id in the high bits, page number in the low 40 bits.
  static uint64_t PageKey(ObjectId id, uint64_t page) {
    return (static_cast<uint64_t>(id) << 40) | page;
  }

  // All helpers below require mu_ to be held.
  bool IsResident(uint64_t key) const { return lru_map_.count(key) > 0; }
  void Touch(uint64_t key);
  void Insert(uint64_t key);
  void EvictIfNeeded();
  void ChargeTime(uint64_t nanos);
  void ChargeTransfer(uint64_t bytes, double mb_per_sec);
  void ChargeSeek();
  Status CheckLive(ObjectId id) const;
  Status ResizeLocked(ObjectId id, uint64_t new_size);
  Status ReadLocked(ObjectId id, uint64_t offset, uint64_t length);

  // Where this thread's sim-time charges land (null = global stats). Both
  // sinks are touched only in sim_disk.cc: inline accesses from other
  // translation units trip UBSan's null check on the thread_local wrapper.
  static thread_local uint64_t* tls_sim_nanos_sink_;
  // Per-query tee for charges that land on the global clock (null = none).
  static thread_local uint64_t* tls_query_sink_;

  const Options options_;
  mutable std::mutex mu_;
  std::vector<Object> objects_;  // index = ObjectId (0 unused)
  // LRU: front = most recent.
  std::list<uint64_t> lru_list_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> lru_map_;
  uint64_t resident_pages_ = 0;
  uint64_t max_pages_ = 0;
  IoStats stats_;
  FaultInjector injector_;
};

}  // namespace dex

#endif  // DEX_IO_SIM_DISK_H_

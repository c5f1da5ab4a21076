#ifndef DEX_EXEC_QUERY_CONTEXT_H_
#define DEX_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace dex {

/// \brief What to do when a query hits its deadline or memory budget.
///
/// Mirrors `OnMountError` (mounter.h): a small policy enum consulted at the
/// point of failure instead of hard-coded behavior.
enum class OnResourceExhausted {
  /// Fail the whole query with DeadlineExceeded / ResourceExhausted. All
  /// partial tables are rolled back (they are never published to the
  /// catalog, so they die with the query; budget reservations are released).
  kFailQuery,
  /// Stop admitting new mounts, finish what is in flight, and return the
  /// rows from files already ingested, with completeness accounting in
  /// `TwoStageStats` (`is_partial`, skip counters, cutoff timestamps).
  kPartialResults,
};

/// \brief Cooperative cancellation flag shared between a query's driver and
/// its workers.
///
/// `Cancel` is sticky and first-reason-wins: the first caller's status (e.g.
/// Aborted for a user ^C, DeadlineExceeded for a watchdog) is what every
/// subsequent `status()` reports. Checking is one relaxed-ish atomic load,
/// cheap enough to poll once per batch.
class CancelToken {
 public:
  /// Requests cancellation. `reason` must be non-OK; the first reason wins.
  void Cancel(Status reason = Status::Aborted("query cancelled"));

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// OK while not cancelled; afterwards the first `Cancel` reason.
  Status status() const;

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  Status reason_;  // guarded by mu_, set once before cancelled_ flips
};

/// \brief A byte budget with atomic reservation/release.
///
/// A limit of 0 means unlimited — reservations always succeed but usage and
/// the high-water mark are still tracked, so an ungoverned run can report
/// how much a governed run would have needed. Shared database-wide: the
/// cache manager reserves for entries that outlive a query, the two-stage
/// executor reserves for the partial tables of the query in flight.
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  /// Attempts to reserve `bytes`; false iff a non-zero limit would be
  /// exceeded (the reservation is not applied in that case).
  bool TryReserve(uint64_t bytes);

  void Release(uint64_t bytes);

  /// Changes the limit (shell `.memlimit`). Existing reservations are kept
  /// even if they now exceed the limit; only new reservations are refused.
  void set_limit(uint64_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }

  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> limit_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> rejections_{0};
};

/// \brief Per-query resource-governance state: deadline (dual wall/sim
/// clocks), cancellation token, memory budget.
///
/// Created by `Database` for every lazy query and plumbed through
/// `TwoStageExecutor` → `TaskGroup` tasks → `Mounter` retry loops → the
/// volcano operators (via `ExecContext::interrupt_fn`, checked per batch).
///
/// Deadlines are *relative* budgets armed by `Start`: the sim deadline
/// counts nanoseconds on the `SimDisk` simulated clock from the query's
/// start, the wall deadline counts std::chrono::steady_clock nanoseconds.
/// Sim-clock deadlines are deterministic (same cutoff at any worker count);
/// wall-clock deadlines inherently are not, and are intended for real
/// interactive sessions rather than reproducible experiments.
class QueryContext {
 public:
  struct Limits {
    uint64_t sim_deadline_nanos = 0;   // 0 = no simulated-time deadline
    uint64_t wall_deadline_nanos = 0;  // 0 = no wall-clock deadline
  };

  /// `budget` and `external` may be null and are not owned; a null budget
  /// falls back to an internal unlimited one, a null token to an internal
  /// never-externally-cancelled one.
  explicit QueryContext(Limits limits = Limits{0, 0},
                        MemoryBudget* budget = nullptr,
                        CancelToken* external = nullptr);

  /// Arms the clocks. `sim_now_nanos` is the simulated clock at query start
  /// (`SimDisk::stats().sim_nanos`); the wall clock is read internally.
  void Start(uint64_t sim_now_nanos);

  /// Attaches this query's own sim-time counter (the sink of a
  /// `SimDisk::QueryTimeScope` installed on the coordinating thread). Once
  /// attached, `sim_now(...)` measures the query's *own* charges instead of
  /// the shared global clock — under concurrent queries the global clock
  /// advances with everyone's I/O, which would make deadlines depend on what
  /// the neighbors are doing. The counter must outlive this context.
  void AttachSimCounter(const uint64_t* query_sim_nanos) {
    sim_counter_ = query_sim_nanos;
  }

  /// The query's position on its deadline timeline: the attached per-query
  /// counter when one is present (deterministic under concurrency), else the
  /// caller-supplied global clock reading (the legacy single-query behavior,
  /// kept for contexts constructed outside Database).
  uint64_t sim_now(uint64_t global_sim_nanos) const {
    return sim_counter_ != nullptr ? sim_start_ + *sim_counter_
                                   : global_sim_nanos;
  }

  /// True when any deadline or a finite memory budget (shared or per-query)
  /// is configured — i.e. stage-2 admission is governed: one file per
  /// admission window, so the cutoff is deterministic at the price of
  /// parallel mount overlap (DESIGN.md §8.8).
  bool has_limits() const {
    return has_deadline() || memory_->limit() != 0 || query_memory_limit_ != 0;
  }
  bool has_deadline() const {
    return limits_.sim_deadline_nanos != 0 || limits_.wall_deadline_nanos != 0;
  }

  CancelToken* cancel() { return token_; }
  const CancelToken* cancel() const { return token_; }
  MemoryBudget* memory() { return memory_; }

  /// Per-query memory cap (0 = none), layered *on top of* the shared budget:
  /// an admission must fit under both. Unlike the shared budget, exhaustion
  /// here is private to this query — cache eviction cannot help, and other
  /// queries are unaffected. Set from QueryOptions::memory_budget_bytes.
  void set_query_memory_limit(uint64_t bytes) { query_memory_limit_ = bytes; }
  uint64_t query_memory_limit() const { return query_memory_limit_; }

  /// The query's effective limit for diagnostics: the tighter of the
  /// per-query cap and the shared budget's limit (0 = unlimited).
  uint64_t effective_memory_limit() const {
    const uint64_t shared = memory_->limit();
    if (query_memory_limit_ == 0) return shared;
    if (shared == 0) return query_memory_limit_;
    return query_memory_limit_ < shared ? query_memory_limit_ : shared;
  }

  /// Non-OK iff the token was cancelled (returns its reason). Deadline
  /// expiry is *not* an interrupt by itself: under kPartialResults it only
  /// stops mount admission; under kFailQuery the executor turns expiry into
  /// a cancellation so in-flight operators stop too.
  Status CheckInterrupt() const {
    if (!token_->cancelled()) return Status::OK();
    return token_->status();
  }

  /// True when either armed deadline has passed. The sim clock is supplied
  /// by the caller (global `SimDisk::stats().sim_nanos`) so this stays a
  /// pure function of the deterministic simulated timeline.
  bool DeadlineExpired(uint64_t sim_now_nanos) const;

  /// A DeadlineExceeded status describing which clock expired.
  Status DeadlineStatus(uint64_t sim_now_nanos) const;

  uint64_t sim_start_nanos() const { return sim_start_; }

  /// Wall nanoseconds elapsed since Start.
  uint64_t wall_elapsed_nanos() const;

  const Limits& limits() const { return limits_; }

 private:
  Limits limits_;
  CancelToken own_token_;
  CancelToken* token_;
  MemoryBudget own_budget_;  // unlimited; used when no shared budget given
  MemoryBudget* memory_;
  uint64_t query_memory_limit_ = 0;       // 0 = no per-query cap
  const uint64_t* sim_counter_ = nullptr; // per-query sim charges (tee sink)
  uint64_t sim_start_ = 0;
  uint64_t wall_start_ = 0;
};

}  // namespace dex

#endif  // DEX_EXEC_QUERY_CONTEXT_H_

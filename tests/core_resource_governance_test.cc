// Resource governance: deadlines, memory budgets, cooperative cancellation,
// and partial-result degradation. The core guarantee under test: governed
// admission is decided on the *simulated* clock in union-branch order, so a
// partial result — rows, skip counters, and charged simulated I/O — is
// bit-identical at any worker count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/seismic_schema.h"
#include "exec/query_context.h"
#include "io/file_io.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

/// 64 files: 4 stations x 4 channels x 4 days — enough mounts that a
/// half-way deadline lands mid-ingestion.
mseed::GeneratorOptions SixtyFourFileRepo() {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;
  gen.channels_per_station = 4;
  gen.num_days = 4;
  return gen;
}

const char* kCountAll = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";
const char* kPerStation =
    "SELECT F.station, AVG(D.sample_value), COUNT(*) "
    "FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station ORDER BY F.station";

std::unique_ptr<Database> OpenWithThreads(const std::string& root,
                                          size_t num_threads,
                                          DatabaseOptions opts = {}) {
  opts.two_stage.num_threads = num_threads;
  auto db = Database::Open(root, opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

/// The query's full (ungoverned) simulated I/O cost on a cold database.
/// Open()'s metadata scan leaves the files buffer-resident, so flush first —
/// the governed runs below do the same, putting both on the same timeline.
uint64_t FullSimCost(const std::string& root, const char* sql) {
  auto db = OpenWithThreads(root, 1);
  db->FlushBuffers();
  auto r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->stats.sim_io_nanos : 0;
}

TEST(ResourceGovernance, SimDeadlinePartialResultIsDeterministicAcrossWorkers) {
  ScopedRepo repo("govern_deadline", SixtyFourFileRepo());
  const uint64_t full_sim = FullSimCost(repo.root(), kPerStation);
  ASSERT_GT(full_sim, 0u);

  auto run = [&](size_t threads) {
    DatabaseOptions opts;
    opts.two_stage.sim_deadline_nanos = full_sim / 2;
    auto db = OpenWithThreads(repo.root(), threads, opts);
    db->FlushBuffers();
    auto r = db->Query(kPerStation);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  };
  QueryResult serial = run(1);
  QueryResult parallel = run(8);

  // The deadline actually bit: some files skipped, some admitted.
  const TwoStageStats& ts = serial.stats.two_stage;
  EXPECT_TRUE(ts.is_partial);
  EXPECT_GT(ts.files_skipped_deadline, 0u);
  EXPECT_GT(serial.stats.mount.mounts, 0u);
  EXPECT_LT(serial.stats.mount.mounts, 64u);
  EXPECT_GT(ts.cutoff_sim_nanos, 0u);
  // Governed execution reports the serialized lane count.
  EXPECT_EQ(ts.workers, 1u);
  EXPECT_EQ(parallel.stats.two_stage.workers, 1u);

  // Bit-identical partial result and accounting at 1 and 8 workers.
  EXPECT_EQ(CanonicalRows(*serial.table), CanonicalRows(*parallel.table));
  EXPECT_EQ(ts.is_partial, parallel.stats.two_stage.is_partial);
  EXPECT_EQ(ts.files_skipped_deadline,
            parallel.stats.two_stage.files_skipped_deadline);
  EXPECT_EQ(ts.files_skipped_memory,
            parallel.stats.two_stage.files_skipped_memory);
  EXPECT_EQ(ts.cutoff_sim_nanos, parallel.stats.two_stage.cutoff_sim_nanos);
  EXPECT_EQ(serial.stats.mount.mounts, parallel.stats.mount.mounts);
  EXPECT_EQ(serial.stats.sim_io_nanos, parallel.stats.sim_io_nanos);
}

TEST(ResourceGovernance, FailQueryPolicyReturnsDeadlineExceededAndRollsBack) {
  ScopedRepo repo("govern_fail_deadline", SixtyFourFileRepo());
  const uint64_t full_sim = FullSimCost(repo.root(), kCountAll);
  ASSERT_GT(full_sim, 0u);

  DatabaseOptions opts;
  opts.two_stage.sim_deadline_nanos = full_sim / 2;
  opts.two_stage.on_resource_exhausted = OnResourceExhausted::kFailQuery;
  auto db = OpenWithThreads(repo.root(), 4, opts);
  db->FlushBuffers();
  auto r = db->Query(kCountAll);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();

  // Rollback: no partial table reached the catalog, no reservation leaked.
  auto d = db->catalog()->GetTable(kDataTableName);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->num_rows(), 0u);
  EXPECT_EQ(db->memory_budget()->used(), 0u);

  // Lifting the deadline at runtime lets the same database answer in full.
  db->set_sim_deadline_nanos(0);
  auto full = db->Query(kCountAll);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->stats.two_stage.is_partial);
  EXPECT_GT(full->stats.mount.mounts, 0u);
}

TEST(ResourceGovernance, MemoryBudgetPartialResultIsDeterministicAcrossWorkers) {
  ScopedRepo repo("govern_memory", SixtyFourFileRepo());
  // An ungoverned run tracks the high-water mark a governed run would need.
  uint64_t peak = 0;
  {
    auto db = OpenWithThreads(repo.root(), 1);
    auto r = db->Query(kCountAll);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    peak = r->stats.two_stage.mem_reserved_peak;
    EXPECT_EQ(db->memory_budget()->used(), 0u)
        << "per-query reservations must be released";
  }
  ASSERT_GT(peak, 0u);

  auto run = [&](size_t threads) {
    DatabaseOptions opts;
    opts.two_stage.memory_budget_bytes = peak / 2;
    auto db = OpenWithThreads(repo.root(), threads, opts);
    auto r = db->Query(kCountAll);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(*r);
  };
  QueryResult serial = run(1);
  QueryResult parallel = run(8);

  const TwoStageStats& ts = serial.stats.two_stage;
  EXPECT_TRUE(ts.is_partial);
  EXPECT_GT(ts.files_skipped_memory, 0u);
  EXPECT_GT(serial.stats.mount.mounts, 0u);
  EXPECT_LE(ts.mem_reserved_peak, peak / 2);

  EXPECT_EQ(CanonicalRows(*serial.table), CanonicalRows(*parallel.table));
  EXPECT_EQ(ts.files_skipped_memory,
            parallel.stats.two_stage.files_skipped_memory);
  EXPECT_EQ(serial.stats.mount.mounts, parallel.stats.mount.mounts);
  EXPECT_EQ(serial.stats.sim_io_nanos, parallel.stats.sim_io_nanos);
}

TEST(ResourceGovernance, FailQueryPolicyReturnsResourceExhausted) {
  ScopedRepo repo("govern_fail_memory", SixtyFourFileRepo());
  uint64_t peak = 0;
  {
    auto db = OpenWithThreads(repo.root(), 1);
    auto r = db->Query(kCountAll);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    peak = r->stats.two_stage.mem_reserved_peak;
  }
  ASSERT_GT(peak, 0u);

  DatabaseOptions opts;
  opts.two_stage.memory_budget_bytes = peak / 2;
  opts.two_stage.on_resource_exhausted = OnResourceExhausted::kFailQuery;
  auto db = OpenWithThreads(repo.root(), 1, opts);
  auto r = db->Query(kCountAll);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_EQ(db->memory_budget()->used(), 0u)
      << "failed query must release every reservation";

  // Lifting the budget at runtime (shell .memlimit off) restores service.
  db->set_memory_budget_bytes(0);
  auto full = db->Query(kCountAll);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->stats.two_stage.is_partial);
}

TEST(ResourceGovernance, CancellationLeavesDatabaseConsistent) {
  ScopedRepo repo("govern_cancel", SixtyFourFileRepo());
  DatabaseOptions opts;
  opts.two_stage.mount_batch_size = 4;  // breakpoints between batches
  opts.cache.policy = CachePolicy::kLru;
  auto db = OpenWithThreads(repo.root(), 2, opts);

  CancelToken token;
  size_t batches_seen = 0;
  QueryOptions qopts;
  qopts.breakpoint = [&](const BreakpointInfo& info) {
    ++batches_seen;
    if (info.batch_index >= 1) {
      token.Cancel(Status::Aborted("user hit ^C"));
    }
    return BreakpointDecision::kContinue;
  };
  qopts.cancel = &token;
  auto r = db->Query(kCountAll, qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("user hit ^C"), std::string::npos)
      << r.status().ToString();
  EXPECT_GT(batches_seen, 0u);

  // Hygiene: nothing dangling. The catalog's D table never grows, the files
  // already ingested live on only as valid cache entries, and no budget
  // reservation leaked.
  auto d = db->catalog()->GetTable(kDataTableName);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->num_rows(), 0u);
  EXPECT_EQ(db->registry()->num_quarantined(), 0u);
  EXPECT_EQ(db->memory_budget()->used(), db->cache()->bytes_used())
      << "after the query only cache entries may hold reservations";

  // The same database keeps serving: a re-run completes in full and may
  // reuse what the cancelled query already ingested.
  auto full = db->Query(kCountAll);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->stats.two_stage.is_partial);

  // Cross-check against an untouched database.
  auto fresh = OpenWithThreads(repo.root(), 1);
  auto expect = fresh->Query(kCountAll);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  EXPECT_EQ(CanonicalRows(*full->table), CanonicalRows(*expect->table));
}

TEST(ResourceGovernance, UngovernedQueriesKeepParallelPremount) {
  // A database with no limits must not pay the governed serialization: the
  // parallel premount path stays active and reports real worker lanes.
  ScopedRepo repo("govern_off", SixtyFourFileRepo());
  auto db = OpenWithThreads(repo.root(), 4);
  auto r = db->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.two_stage.workers, 4u);
  EXPECT_GT(r->stats.two_stage.mount_tasks, 0u);
  EXPECT_FALSE(r->stats.two_stage.is_partial);
}

TEST(ResourceGovernance, MemReservedPeakIsTheQuerysOwn) {
  // The budget's high-water mark is database-wide and never resets; each
  // query reports the peak of its own reservations instead.
  ScopedRepo repo("govern_own_peak", SixtyFourFileRepo());
  auto db = OpenWithThreads(repo.root(), 4);
  auto big = db->Query(kCountAll);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  const uint64_t big_peak = big->stats.two_stage.mem_reserved_peak;
  ASSERT_GT(big_peak, 0u);

  const std::string one_file =
      std::string(kCountAll) + " WHERE F.uri = '" +
      db->registry()->AllUris().front() + "'";
  auto small = db->Query(one_file);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small->stats.mount.mounts, 1u);
  EXPECT_GT(small->stats.two_stage.mem_reserved_peak, 0u);
  EXPECT_LT(small->stats.two_stage.mem_reserved_peak, big_peak);

  auto none = db->Query(std::string(kCountAll) +
                        " WHERE F.station = 'NO_SUCH_STATION'");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->stats.mount.mounts, 0u);
  EXPECT_EQ(none->stats.two_stage.mem_reserved_peak, 0u);
  EXPECT_EQ(db->memory_budget()->used(), 0u);
}

/// Everything a sharded governed run must reproduce at any lane count.
std::string ShardedGovernedSignature(const QueryResult& r) {
  const TwoStageStats& ts = r.stats.two_stage;
  std::string sig;
  for (const std::string& row : CanonicalRows(*r.table)) sig += row + "\n";
  sig += "mounts=" + std::to_string(r.stats.mount.mounts) +
         " skipped_deadline=" + std::to_string(ts.files_skipped_deadline) +
         " skipped_memory=" + std::to_string(ts.files_skipped_memory) +
         " cutoff=" + std::to_string(ts.cutoff_sim_nanos) +
         " sim_io=" + std::to_string(r.stats.sim_io_nanos) +
         " net=" + std::to_string(ts.net_sim_nanos) +
         " workers=" + std::to_string(ts.workers) + "\n";
  for (const TwoStageStats::ShardRow& row : ts.shard_rows) {
    sig += "shard " + std::to_string(row.shard) + ": " +
           std::to_string(row.files) + " files, " +
           std::to_string(row.disk_sim_nanos) + " disk, " +
           std::to_string(row.net_sim_nanos) + " net, " +
           std::to_string(row.net_messages) + " messages\n";
  }
  return sig;
}

TEST(ResourceGovernance, ShardedPartialResultIsDeterministicAcrossLanes) {
  ScopedRepo repo("govern_sharded", SixtyFourFileRepo());
  DatabaseOptions sharded;
  sharded.shard.num_shards = 4;
  uint64_t full_sim = 0;
  uint64_t peak = 0;
  {
    auto db = OpenWithThreads(repo.root(), 1, sharded);
    db->FlushBuffers();
    auto r = db->Query(kPerStation);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    full_sim = r->stats.sim_io_nanos;
    peak = r->stats.two_stage.mem_reserved_peak;
  }
  ASSERT_GT(full_sim, 0u);
  ASSERT_GT(peak, 0u);

  DatabaseOptions deadline = sharded;
  deadline.two_stage.sim_deadline_nanos = full_sim / 2;
  DatabaseOptions budget = sharded;
  budget.two_stage.memory_budget_bytes = peak / 2;
  for (const DatabaseOptions& limits : {deadline, budget}) {
    std::vector<std::string> signatures;
    for (size_t lanes : {1u, 4u, 8u}) {
      auto db = OpenWithThreads(repo.root(), lanes, limits);
      db->FlushBuffers();
      auto r = db->Query(kPerStation);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const TwoStageStats& ts = r->stats.two_stage;
      EXPECT_TRUE(ts.is_partial) << "lanes=" << lanes;
      EXPECT_GT(ts.files_skipped_deadline + ts.files_skipped_memory, 0u);
      EXPECT_GT(r->stats.mount.mounts, 0u);
      EXPECT_GT(ts.net_sim_nanos, 0u);
      EXPECT_FALSE(ts.shard_rows.empty());
      signatures.push_back(ShardedGovernedSignature(*r));
    }
    EXPECT_EQ(signatures[0], signatures[1]);
    EXPECT_EQ(signatures[0], signatures[2]);
  }
}

// -- MemoryBudget edge cases ------------------------------------------------

TEST(MemoryBudget, ReserveAtExactLimitSucceedsAndNextByteFails) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(100));  // == limit: allowed
  EXPECT_EQ(budget.used(), 100u);
  EXPECT_FALSE(budget.TryReserve(1));  // one byte over: refused
  EXPECT_EQ(budget.rejections(), 1u);
  EXPECT_EQ(budget.used(), 100u);  // refused reservation was not applied
  budget.Release(100);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(budget.TryReserve(1));
}

TEST(MemoryBudget, ReleaseMoreThanReservedClampsToZero) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.TryReserve(40));
  budget.Release(100);  // buggy caller over-releases
  EXPECT_EQ(budget.used(), 0u);  // clamped, not wrapped to ~2^64
  // The budget is not poisoned: the full limit is still reservable.
  EXPECT_TRUE(budget.TryReserve(100));
  EXPECT_EQ(budget.used(), 100u);
}

TEST(MemoryBudget, ZeroLimitIsUnlimitedButStillTracksUsage) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryReserve(1ull << 60));
  EXPECT_EQ(budget.used(), 1ull << 60);
  EXPECT_EQ(budget.rejections(), 0u);
  budget.Release(1ull << 60);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudget, ConcurrentReserveReleaseStaysConsistent) {
  // Hammer TryReserve/Release from many threads (TSan-meaningful): the
  // budget must never admit more than the limit, and once every successful
  // reservation is released, usage must return to exactly zero.
  MemoryBudget budget(1000);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&budget, t] {
      const uint64_t bytes = 1 + static_cast<uint64_t>(t) * 13 % 97;
      for (int i = 0; i < kIters; ++i) {
        if (budget.TryReserve(bytes)) {
          EXPECT_LE(budget.used(), 1000u);
          budget.Release(bytes);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_LE(budget.peak(), 1000u);  // reservations never exceeded the limit
}

}  // namespace
}  // namespace dex

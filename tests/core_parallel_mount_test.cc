// Parallel stage-2 ingestion: results, fault outcomes, and simulated time
// must be bit-identical across worker counts — parallelism is an execution
// detail, never an observable one (except for the speedup itself).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "io/file_io.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

/// 64 files: 4 stations x 4 channels x 4 days.
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
const char* kFiltered =
    "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > 0";

std::unique_ptr<Database> OpenWithThreads(const std::string& root,
                                          size_t num_threads,
                                          DatabaseOptions opts = {}) {
  opts.two_stage.num_threads = num_threads;
  auto db = Database::Open(root, opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

TEST(ParallelMount, ResultsAreIdenticalAcrossThreadCounts) {
  ScopedRepo repo("pmount_equiv", SixtyFourFileRepo());
  auto serial = OpenWithThreads(repo.root(), 1);
  auto parallel = OpenWithThreads(repo.root(), 8);

  for (const char* sql : {kCountAll, kPerStation, kFiltered}) {
    auto s = serial->Query(sql);
    auto p = parallel->Query(sql);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(CanonicalRows(*s->table), CanonicalRows(*p->table)) << sql;
    EXPECT_EQ(s->stats.mount.mounts, p->stats.mount.mounts) << sql;
    EXPECT_EQ(s->stats.mount.records_decoded, p->stats.mount.records_decoded)
        << sql;
    EXPECT_EQ(s->stats.mount.samples_decoded, p->stats.mount.samples_decoded)
        << sql;
    EXPECT_EQ(s->stats.mount.files_failed, 0u) << sql;
    EXPECT_EQ(p->stats.mount.files_failed, 0u) << sql;
  }
  EXPECT_EQ(serial->registry()->num_quarantined(), 0u);
  EXPECT_EQ(parallel->registry()->num_quarantined(), 0u);
}

TEST(ParallelMount, OneLaneRunsEveryMountAsATaskAtSerialCost) {
  // One lane takes the same admission wave as many: every mount is a task,
  // and the critical path over a single lane is the serial sum.
  ScopedRepo repo("pmount_one_lane", SixtyFourFileRepo());
  auto db = OpenWithThreads(repo.root(), 1);
  db->FlushBuffers();  // Open()'s scan left the files resident
  auto r = db->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TwoStageStats& ts = r->stats.two_stage;
  EXPECT_EQ(ts.workers, 1u);
  EXPECT_EQ(ts.mount_tasks, 64u);
  EXPECT_GT(ts.serial_sim_nanos, 0u);
  EXPECT_EQ(ts.parallel_sim_nanos, ts.serial_sim_nanos);
  EXPECT_EQ(r->stats.mount.mounts, 64u);
}

TEST(ParallelMount, CacheScanWhoseEntryIsGoneMountsAsAOneFileWindow) {
  // A cache-scan whose entry vanished between planning and execution mounts
  // its file through the query's admission, one file per window, so the
  // mount is counted, charged and reserved like any other.
  ScopedRepo repo("pmount_cache_gone", SixtyFourFileRepo());
  DatabaseOptions opts;
  opts.cache.policy = CachePolicy::kAll;
  auto db = OpenWithThreads(repo.root(), 4, opts);
  auto first = db->Query(kCountAll);  // mounts and caches every file
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  db->FlushBuffers();  // the fallback mounts face the medium cold

  QueryOptions qopts;
  qopts.breakpoint = [&db](const BreakpointInfo&) {
    db->cache()->Clear();  // every planned cache-scan loses its entry
    return BreakpointDecision::kContinue;
  };
  auto again = db->Query(kCountAll, qopts);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(CanonicalRows(*again->table), CanonicalRows(*first->table));
  const TwoStageStats& ts = again->stats.two_stage;
  EXPECT_EQ(ts.files_planned_cache, 64u);
  EXPECT_EQ(again->stats.mount.mounts, 64u);
  EXPECT_EQ(ts.mount_tasks, 64u);
  EXPECT_GT(ts.serial_sim_nanos, 0u);
  EXPECT_EQ(ts.parallel_sim_nanos, ts.serial_sim_nanos);
  EXPECT_GT(ts.mem_reserved_peak, 0u);
}

TEST(ParallelMount, TransientFaultOutcomesMatchAcrossThreadCounts) {
  ScopedRepo repo("pmount_transient", SixtyFourFileRepo());
  DatabaseOptions opts;
  opts.disk.faults.seed = 42;
  opts.disk.faults.transient_error_rate = 0.10;

  auto serial = OpenWithThreads(repo.root(), 1, opts);
  auto parallel = OpenWithThreads(repo.root(), 8, opts);
  // The stage-1 scan retried its header reads to success and left every
  // file's pages resident; flush so the mounts face the faulty medium cold.
  serial->FlushBuffers();
  parallel->FlushBuffers();

  auto s = serial->Query(kCountAll);
  auto p = parallel->Query(kCountAll);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(CanonicalRows(*s->table), CanonicalRows(*p->table));

  // The fate of the k-th read of an object depends only on (seed, object, k),
  // so the retry schedule is identical no matter how tasks interleave.
  EXPECT_GT(s->stats.mount.read_retries, 0u);
  EXPECT_EQ(s->stats.mount.read_retries, p->stats.mount.read_retries);
  EXPECT_EQ(s->stats.mount.files_failed, 0u);
  EXPECT_EQ(p->stats.mount.files_failed, 0u);
  EXPECT_EQ(serial->disk()->fault_injector()->stats().transient_faults,
            parallel->disk()->fault_injector()->stats().transient_faults);
}

TEST(ParallelMount, PermanentFaultOutcomesMatchAcrossThreadCounts) {
  ScopedRepo repo("pmount_permanent", SixtyFourFileRepo());
  auto serial = OpenWithThreads(repo.root(), 1);
  auto parallel = OpenWithThreads(repo.root(), 8);

  // The same three files go permanently bad under both databases.
  std::vector<std::string> uris = serial->registry()->AllUris();
  ASSERT_GE(uris.size(), 3u);
  for (Database* db : {serial.get(), parallel.get()}) {
    for (size_t i = 0; i < 3; ++i) {
      auto entry = db->registry()->Get(uris[i]);
      ASSERT_TRUE(entry.ok());
      db->disk()->fault_injector()->FailObject(entry->object);
    }
    db->FlushBuffers();
  }

  auto s = serial->Query(kCountAll);
  auto p = parallel->Query(kCountAll);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(CanonicalRows(*s->table), CanonicalRows(*p->table));
  EXPECT_EQ(s->stats.mount.files_failed, 3u);
  EXPECT_EQ(p->stats.mount.files_failed, 3u);
  EXPECT_EQ(serial->registry()->num_quarantined(), 3u);
  EXPECT_EQ(parallel->registry()->num_quarantined(), 3u);
  // Warnings are merged at the wave barrier in task (= union branch) order,
  // so even their order matches the serial run.
  EXPECT_EQ(s->stats.warnings, p->stats.warnings);

  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(serial->registry()->IsQuarantined(uris[i])) << uris[i];
    EXPECT_TRUE(parallel->registry()->IsQuarantined(uris[i])) << uris[i];
  }
}

TEST(ParallelMount, SalvageOutcomesMatchAcrossThreadCounts) {
  ScopedRepo repo("pmount_salvage", SixtyFourFileRepo());
  // Damage the first record's payload of one file before either opens.
  {
    auto probe = Database::Open(repo.root(), {});
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    const std::vector<std::string> uris = (*probe)->registry()->AllUris();
    ASSERT_FALSE(uris.empty());
    std::string image;
    ASSERT_TRUE(ReadFileToString(uris[0], &image).ok());
    image[70] = static_cast<char>(image[70] ^ 0x7f);
    ASSERT_TRUE(WriteStringToFile(uris[0], image).ok());
  }

  auto serial = OpenWithThreads(repo.root(), 1);
  auto parallel = OpenWithThreads(repo.root(), 8);
  auto s = serial->Query(kCountAll);
  auto p = parallel->Query(kCountAll);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(CanonicalRows(*s->table), CanonicalRows(*p->table));
  EXPECT_EQ(s->stats.mount.records_skipped, 1u);
  EXPECT_EQ(p->stats.mount.records_skipped, 1u);
  EXPECT_GT(s->stats.mount.records_salvaged, 0u);
  EXPECT_EQ(s->stats.mount.records_salvaged, p->stats.mount.records_salvaged);
  EXPECT_EQ(s->stats.warnings, p->stats.warnings);
  EXPECT_EQ(serial->registry()->num_quarantined(), 0u);
  EXPECT_EQ(parallel->registry()->num_quarantined(), 0u);
}

TEST(ParallelMount, FourWorkersHalveSimulatedMountTime) {
  ScopedRepo repo("pmount_speedup", SixtyFourFileRepo());
  auto parallel = OpenWithThreads(repo.root(), 4);
  parallel->FlushBuffers();  // Open()'s scan left the files resident
  auto r = parallel->Query(kCountAll);  // cold: all 64 files mount
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const TwoStageStats& ts = r->stats.two_stage;
  EXPECT_EQ(ts.workers, 4u);
  EXPECT_EQ(ts.mount_tasks, 64u);
  ASSERT_GT(ts.parallel_sim_nanos, 0u);
  ASSERT_GT(ts.serial_sim_nanos, 0u);
  // 64 similar tasks on 4 lanes: the critical path must be at least 2x
  // shorter than the serial sum (greedy scheduling gets close to 4x here).
  EXPECT_GE(ts.serial_sim_nanos, 2 * ts.parallel_sim_nanos);

  // The speedup shows up in the reported query time too: a serial run over
  // the same repository stalls longer on the simulated medium.
  auto serial = OpenWithThreads(repo.root(), 1);
  serial->FlushBuffers();
  auto sr = serial->Query(kCountAll);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_EQ(CanonicalRows(*sr->table), CanonicalRows(*r->table));
  EXPECT_GT(sr->stats.sim_io_nanos, r->stats.sim_io_nanos);
}

TEST(ParallelMount, SimulatedTimeIsDeterministicAcrossRuns) {
  ScopedRepo repo("pmount_determinism", SixtyFourFileRepo());
  DatabaseOptions opts;
  opts.disk.faults.seed = 13;
  opts.disk.faults.transient_error_rate = 0.05;
  opts.disk.faults.latency_spike_rate = 0.20;
  opts.disk.faults.latency_spike_millis = 2.0;

  auto run = [&] {
    auto db = OpenWithThreads(repo.root(), 4, opts);
    db->FlushBuffers();
    auto r = db->Query(kCountAll);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::make_pair(r->stats.two_stage.parallel_sim_nanos,
                          r->stats.two_stage.serial_sim_nanos);
  };
  // Real thread interleaving differs between runs; the simulated critical
  // path may not.
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace dex

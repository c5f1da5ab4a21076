// ShardedRepository + the sharded two-stage executor. The contract under
// test: the file→shard partition is a pure function of the catalog and the
// policy, and a sharded query's results, quarantine decisions, and charged
// simulated time are bit-identical at any worker count and any physical
// pool size — only the shard count (and the seeded shard faults) may change
// what the query costs or returns.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "io/sim_disk.h"
#include "mseed/writer.h"
#include "shard/sharded_repository.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

/// 64 files: 4 stations x 4 channels x 4 days (the bench_shard shape).
mseed::GeneratorOptions SixtyFourFileRepo() {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;
  gen.channels_per_station = 4;
  gen.num_days = 4;
  return gen;
}

/// Touches every file: per-station aggregate over the D join.
const char* kPerStation =
    "SELECT F.station, AVG(D.sample_value), COUNT(*) "
    "FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station ORDER BY F.station";

// --- Partitioning: pure function of (catalog, policy).

TEST(ShardedRepository, StationKeyIsTheParentDirectory) {
  EXPECT_EQ(ShardedRepository::StationKeyOf("/repo/STA01/XX.STA01.BHE.000.ms"),
            "STA01");
  EXPECT_EQ(ShardedRepository::StationKeyOf("rel/ISK/XX.ISK.BHE.000.ms"),
            "ISK");
  EXPECT_EQ(ShardedRepository::StationKeyOf("no_directory.mseed"), "");
  EXPECT_EQ(ShardedRepository::StationKeyOf("/rootfile.mseed"), "");
}

TEST(ShardedRepository, ClampShardCountHonorsConfiguredCeiling) {
  SimDisk disk;
  ShardedRepository::Options opts;
  opts.num_shards = 4;
  ShardedRepository shards(&disk, opts);
  EXPECT_EQ(shards.ClampShardCount(0), 4);   // 0 = "use configured"
  EXPECT_EQ(shards.ClampShardCount(-3), 4);
  EXPECT_EQ(shards.ClampShardCount(2), 2);
  EXPECT_EQ(shards.ClampShardCount(4), 4);
  EXPECT_EQ(shards.ClampShardCount(16), 4);  // never above configured
}

TEST(ShardedRepository, HashPartitionIsStableAndInRange) {
  SimDisk disk;
  ShardedRepository::Options opts;
  opts.num_shards = 4;
  ShardedRepository shards(&disk, opts);

  std::vector<std::string> uris;
  for (int i = 0; i < 40; ++i) {
    uris.push_back("/repo/S" + std::to_string(i % 5) + "/file" +
                   std::to_string(i) + ".mseed");
  }
  shards.AssignCatalog(uris);

  size_t counted = 0;
  for (const std::string& uri : uris) {
    const int s = shards.ShardOf(uri);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(shards.ShardOf(uri), s);  // stable across calls
  }
  for (const auto& row : shards.StatusRows()) counted += row.files;
  EXPECT_EQ(counted, uris.size());

  // Hash is stateless: a catalog rebuild never moves an existing file.
  const int before = shards.ShardOf(uris[0]);
  uris.push_back("/repo/S9/newcomer.mseed");
  shards.AssignCatalog(uris);
  EXPECT_EQ(shards.ShardOf(uris[0]), before);
}

TEST(ShardedRepository, StationRangeCoLocatesStationsInSortedChunks) {
  SimDisk disk;
  ShardedRepository::Options opts;
  opts.num_shards = 2;
  opts.policy = ShardedRepository::Policy::kStationRange;
  ShardedRepository shards(&disk, opts);

  const std::vector<std::string> uris = {
      "/repo/AAA/f1.ms", "/repo/AAA/f2.ms", "/repo/BBB/f1.ms",
      "/repo/CCC/f1.ms", "/repo/DDD/f1.ms", "/repo/DDD/f2.ms",
  };
  shards.AssignCatalog(uris);

  // Sorted stations [AAA BBB CCC DDD] chunked into two ranges.
  EXPECT_EQ(shards.ShardOf("/repo/AAA/f1.ms"), 0);
  EXPECT_EQ(shards.ShardOf("/repo/AAA/f2.ms"), 0);
  EXPECT_EQ(shards.ShardOf("/repo/BBB/f1.ms"), 0);
  EXPECT_EQ(shards.ShardOf("/repo/CCC/f1.ms"), 1);
  EXPECT_EQ(shards.ShardOf("/repo/DDD/f1.ms"), 1);
  EXPECT_EQ(shards.ShardOf("/repo/DDD/f2.ms"), 1);

  // A per-query re-partition to 1 shard routes everything to shard 0.
  for (const std::string& uri : uris) EXPECT_EQ(shards.ShardOf(uri, 1), 0);
}

TEST(ShardedRepository, KillAndHealToggleLinkHealth) {
  SimDisk disk;
  ShardedRepository::Options opts;
  opts.num_shards = 3;
  ShardedRepository shards(&disk, opts);

  EXPECT_FALSE(shards.HasDeadShards());
  DEX_ASSERT_STATUS_OK(shards.KillShard(1));
  EXPECT_TRUE(shards.HasDeadShards());
  EXPECT_FALSE(shards.IsShardAlive(1));
  EXPECT_TRUE(shards.IsShardAlive(0));
  EXPECT_FALSE(shards.StatusRows()[1].alive);
  DEX_ASSERT_STATUS_OK(shards.HealShard(1));
  EXPECT_FALSE(shards.HasDeadShards());
  EXPECT_FALSE(shards.KillShard(7).ok());
  EXPECT_FALSE(shards.IsShardAlive(-1));
}

// --- End-to-end: the sharded executor's determinism contract.

struct SweepRun {
  std::vector<std::string> rows;
  uint64_t disk_sim_nanos = 0;   // total charged clock: open + query
  uint64_t net_sim_nanos = 0;
  uint64_t parallel_sim_nanos = 0;
  size_t num_shards = 0;
  size_t quarantined = 0;
};

SweepRun RunSweep(const std::string& root, size_t workers, size_t pool,
                  int shards, double loss_rate = 0.0, uint64_t seed = 0) {
  DatabaseOptions opts;
  opts.shard.num_shards = shards;
  opts.shard.net.fault_seed = seed;
  opts.shard.net.transient_loss_rate = loss_rate;
  opts.two_stage.num_threads = workers;
  opts.stage1_threads = workers;
  opts.pool_threads = pool;
  auto db = Database::Open(root, opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  SweepRun out;
  if (!db.ok()) return out;
  auto r = (*db)->Query(kPerStation);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  out.rows = CanonicalRows(*r->table);
  out.disk_sim_nanos = (*db)->disk()->stats().sim_nanos;
  out.net_sim_nanos = r->stats.two_stage.net_sim_nanos;
  out.parallel_sim_nanos = r->stats.two_stage.parallel_sim_nanos;
  out.num_shards = r->stats.two_stage.num_shards;
  out.quarantined = (*db)->registry()->num_quarantined();
  return out;
}

TEST(ShardedExecution, ChargedTimeAndResultsInvariantAcrossWorkers) {
  ScopedRepo repo("shard_workers", SixtyFourFileRepo());
  const SweepRun w1 = RunSweep(repo.root(), 1, 0, 4);
  const SweepRun w4 = RunSweep(repo.root(), 4, 0, 4);
  const SweepRun w8 = RunSweep(repo.root(), 8, 0, 4);

  ASSERT_FALSE(w1.rows.empty());
  EXPECT_EQ(w1.num_shards, 4u);
  EXPECT_EQ(w1.rows, w4.rows);
  EXPECT_EQ(w1.rows, w8.rows);
  // The acceptance bar: charged simulated time is a function of the shard
  // count, never of how many OS threads did the work.
  EXPECT_EQ(w1.disk_sim_nanos, w4.disk_sim_nanos);
  EXPECT_EQ(w1.disk_sim_nanos, w8.disk_sim_nanos);
  EXPECT_EQ(w1.net_sim_nanos, w4.net_sim_nanos);
  EXPECT_EQ(w1.net_sim_nanos, w8.net_sim_nanos);
  EXPECT_EQ(w1.parallel_sim_nanos, w4.parallel_sim_nanos);
  EXPECT_EQ(w1.parallel_sim_nanos, w8.parallel_sim_nanos);
  EXPECT_EQ(w1.quarantined, 0u);
  EXPECT_EQ(w4.quarantined, 0u);
  EXPECT_GT(w1.net_sim_nanos, 0u);  // the interconnect was actually modeled
}

TEST(ShardedExecution, PhysicalPoolSizeNeverShowsInChargedTime) {
  ScopedRepo repo("shard_pool", SixtyFourFileRepo());
  const SweepRun small = RunSweep(repo.root(), 4, 2, 4);
  const SweepRun large = RunSweep(repo.root(), 4, 8, 4);
  ASSERT_FALSE(small.rows.empty());
  EXPECT_EQ(small.rows, large.rows);
  EXPECT_EQ(small.disk_sim_nanos, large.disk_sim_nanos);
  EXPECT_EQ(small.net_sim_nanos, large.net_sim_nanos);
  EXPECT_EQ(small.parallel_sim_nanos, large.parallel_sim_nanos);
}

TEST(ShardedExecution, ShardedResultsMatchUnsharded) {
  ScopedRepo repo("shard_equiv", SixtyFourFileRepo());
  const SweepRun one = RunSweep(repo.root(), 4, 0, 1);
  const SweepRun four = RunSweep(repo.root(), 4, 0, 4);
  ASSERT_FALSE(one.rows.empty());
  EXPECT_EQ(one.rows, four.rows);
  EXPECT_EQ(one.num_shards, 1u);
  EXPECT_EQ(four.num_shards, 4u);
  // Unsharded queries never touch the interconnect.
  EXPECT_EQ(one.net_sim_nanos, 0u);
  EXPECT_GT(four.net_sim_nanos, 0u);
}

TEST(ShardedExecution, FaultStreamReplayIsBitIdentical) {
  ScopedRepo repo("shard_replay", SixtyFourFileRepo());
  const SweepRun a = RunSweep(repo.root(), 4, 0, 4, /*loss_rate=*/0.1,
                              /*seed=*/99);
  const SweepRun b = RunSweep(repo.root(), 1, 0, 4, /*loss_rate=*/0.1,
                              /*seed=*/99);
  ASSERT_FALSE(a.rows.empty());
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.disk_sim_nanos, b.disk_sim_nanos);
  EXPECT_EQ(a.net_sim_nanos, b.net_sim_nanos);
  // Losses made the interconnect strictly pricier than a clean run.
  const SweepRun clean = RunSweep(repo.root(), 4, 0, 4);
  EXPECT_GT(a.net_sim_nanos, clean.net_sim_nanos);
}

TEST(ShardedExecution, PerQueryShardCountIsClamped) {
  ScopedRepo repo("shard_clamp", TinyRepoOptions());
  DatabaseOptions opts;
  opts.shard.num_shards = 4;
  auto db = Database::Open(repo.root(), opts);
  DEX_ASSERT_OK(db);

  QueryOptions two;
  two.num_shards = 2;
  auto r2 = (*db)->Query(kPerStation, two);
  DEX_ASSERT_OK(r2);
  EXPECT_EQ(r2->stats.two_stage.num_shards, 2u);

  QueryOptions sixteen;
  sixteen.num_shards = 16;
  auto r16 = (*db)->Query(kPerStation, sixteen);
  DEX_ASSERT_OK(r16);
  EXPECT_EQ(r16->stats.two_stage.num_shards, 4u);

  // On an unsharded database a shard request degrades to the classic path.
  auto flat = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(flat);
  QueryOptions eight;
  eight.num_shards = 8;
  auto r1 = (*flat)->Query(kPerStation, eight);
  DEX_ASSERT_OK(r1);
  EXPECT_EQ(r1->stats.two_stage.num_shards, 1u);
  EXPECT_EQ(r1->stats.two_stage.net_sim_nanos, 0u);
}

TEST(ShardedExecution, DeadShardYieldsDeterministicPartialResult) {
  ScopedRepo repo("shard_dead", SixtyFourFileRepo());
  DatabaseOptions opts;
  opts.shard.num_shards = 4;
  // Station-range partitioning: 4 stations on 4 shards — killing shard 1
  // removes exactly one station's 16 files.
  opts.shard.policy = ShardedRepository::Policy::kStationRange;

  auto run = [&](size_t workers) {
    DatabaseOptions o = opts;
    o.two_stage.num_threads = workers;
    auto db = Database::Open(repo.root(), o);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->shards()->KillShard(1).ok());
    return std::move(*db);
  };

  auto db1 = run(1);
  auto db8 = run(8);
  auto r1 = db1->Query(kPerStation);
  auto r8 = db8->Query(kPerStation);
  DEX_ASSERT_OK(r1);
  DEX_ASSERT_OK(r8);

  // Partial, with the dead shard's files skipped — identically at any
  // worker count.
  EXPECT_TRUE(r1->stats.two_stage.is_partial);
  EXPECT_EQ(r1->stats.two_stage.files_skipped_shard, 16u);
  EXPECT_EQ(r8->stats.two_stage.files_skipped_shard, 16u);
  EXPECT_EQ(CanonicalRows(*r1->table), CanonicalRows(*r8->table));
  // One station is gone from the aggregate.
  EXPECT_EQ(r1->table->num_rows(), 3u);

  // The degradation is visible in EXPLAIN ANALYZE's plan annotations.
  auto explain = db1->Query(std::string("EXPLAIN ANALYZE ") + kPerStation);
  DEX_ASSERT_OK(explain);
  std::string text;
  for (size_t r = 0; r < explain->table->num_rows(); ++r) {
    text += explain->table->column(0)->GetString(r);
    text += '\n';
  }
  EXPECT_NE(text.find("skipped on dead shards"), std::string::npos) << text;
  EXPECT_NE(text.find("shards: 4"), std::string::npos) << text;

  // Healing restores the full result.
  DEX_ASSERT_STATUS_OK(db1->shards()->HealShard(1));
  auto healed = db1->Query(kPerStation);
  DEX_ASSERT_OK(healed);
  EXPECT_FALSE(healed->stats.two_stage.is_partial);
  EXPECT_EQ(healed->table->num_rows(), 4u);
}

TEST(ShardedExecution, FailedGatherDegradesTheSameGovernedOrNot) {
  // A shard that dies after planning fails the gather of every file it
  // mounted. Whether or not the query is governed, those files are
  // quarantined and serve no rows: a budget that never binds cannot change
  // the answer.
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;  // 16 files
  ScopedRepo repo("shard_gather_fail", gen);

  struct Run {
    std::vector<std::string> rows;
    std::vector<std::string> quarantined;
    std::vector<std::string> warnings;
  };
  auto run = [&](uint64_t budget_bytes) {
    DatabaseOptions opts;
    opts.shard.num_shards = 4;
    opts.two_stage.memory_budget_bytes = budget_bytes;
    auto db = Database::Open(repo.root(), opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    Run out;
    if (!db.ok()) return out;
    QueryOptions qopts;
    qopts.breakpoint = [&db](const BreakpointInfo&) {
      EXPECT_TRUE((*db)->shards()->KillShard(1).ok());
      return BreakpointDecision::kContinue;
    };
    auto r = (*db)->Query(kPerStation, qopts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
    out.rows = CanonicalRows(*r->table);
    out.warnings = r->stats.warnings;
    auto q = (*db)->Query("SELECT QUARANTINE.uri FROM QUARANTINE");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (q.ok()) out.quarantined = CanonicalRows(*q->table);
    return out;
  };

  const Run ungoverned = run(0);
  const Run governed = run(uint64_t{1} << 40);
  ASSERT_FALSE(ungoverned.rows.empty());
  EXPECT_FALSE(ungoverned.quarantined.empty());
  EXPECT_EQ(ungoverned.warnings.size(), ungoverned.quarantined.size());
  EXPECT_EQ(ungoverned.rows, governed.rows);
  EXPECT_EQ(ungoverned.quarantined, governed.quarantined);
  EXPECT_EQ(ungoverned.warnings, governed.warnings);
}

TEST(ShardedExecution, RefreshRunsShardedAndSeesNewFiles) {
  ScopedRepo repo("shard_refresh", TinyRepoOptions());
  DatabaseOptions opts;
  opts.shard.num_shards = 4;
  auto db = Database::Open(repo.root(), opts);
  DEX_ASSERT_OK(db);
  EXPECT_EQ((*db)->open_stats().num_shards, 4u);

  auto before = (*db)->Query("SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(before);
  const int64_t files_before = before->table->GetValue(0, 0).int64();

  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "NEWSTA";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 1262304000000LL;
  rec.sample_rate_hz = 1.0;
  for (int i = 0; i < 20; ++i) rec.samples.push_back(i);
  DEX_ASSERT_STATUS_OK(
      mseed::WriteFile(repo.root() + "/NEWSTA/OR.NEWSTA.BHE.000.mseed", {rec}));

  auto refreshed = (*db)->Refresh();
  DEX_ASSERT_OK(refreshed);
  EXPECT_EQ(refreshed->files_added, 1u);
  EXPECT_EQ(refreshed->num_shards, 4u);
  EXPECT_GT(refreshed->net_sim_nanos, 0u);

  auto after = (*db)->Query("SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(after);
  EXPECT_EQ(after->table->GetValue(0, 0).int64(), files_before + 1);
}

}  // namespace
}  // namespace dex

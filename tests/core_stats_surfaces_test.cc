// Every surface renders the stats structs: each counter in a struct's
// Fields() list reaches the metrics registry under its name, EXPLAIN
// ANALYZE's execution section is QueryStats::ToString(), the registry after
// a fixed session is pinned, warnings are counted when the list is full, and
// Open reports what its own scan quarantined.

#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <sstream>
#include <string>

#include "common/stat_fields.h"
#include "io/file_io.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace dex {
namespace {

using obs::MetricsRegistry;
using testing::ScopedRepo;
using testing::TinyRepoOptions;

/// A repository at a path whose length does not depend on the pid: sharded
/// gathers charge each mounted table's uri dictionary, so the charged
/// interconnect time and the persisted cache bytes depend on it.
class FixedLengthRepo {
 public:
  explicit FixedLengthRepo(const char* name) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "/tmp/dex_%s_%010d", name,
                  static_cast<int>(::getpid()));
    root_ = buf;
    cache_dir_ = root_ + "_cache";
    (void)RemoveDirRecursive(root_);
    (void)RemoveDirRecursive(cache_dir_);
    mseed::GeneratorOptions gen = TinyRepoOptions();
    gen.num_stations = 3;
    gen.channels_per_station = 3;
    EXPECT_TRUE(mseed::GenerateRepository(root_, gen).ok());
  }
  ~FixedLengthRepo() {
    (void)RemoveDirRecursive(root_);
    (void)RemoveDirRecursive(cache_dir_);
  }
  const std::string& root() const { return root_; }
  const std::string& cache_dir() const { return cache_dir_; }

 private:
  std::string root_;
  std::string cache_dir_;
};

/// The registry as `name value` lines, with the values of metrics that
/// measure wall time replaced by `*` (a histogram of wall time keeps its
/// count).
std::string RegistryDigest() {
  static const std::set<std::string> kWallTime = {
      "query.plan_nanos",   "query.exec_nanos",         "stage.stage1_nanos",
      "stage.rewrite_nanos", "stage.stage2_nanos",      "refresh.scan_nanos",
      "open.load_nanos",    "open.metadata_scan_nanos", "open.index_nanos"};
  std::istringstream in(obs::MetricsRegistry::Global().ToText());
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string name = line.substr(0, line.find(' '));
    if (kWallTime.count(name) > 0) {
      out += name + " *\n";
    } else if (name == "query.total_seconds") {
      out += line.substr(0, line.find(" sum=")) + "\n";
    } else {
      out += line + "\n";
    }
  }
  return out;
}

/// One fixed session: Open with a cache directory on 4 shards, a lazy split
/// query, a zone-map-pruned query, a 4-shard query, a governed partial
/// query, a Refresh, and an eager database's query.
void RunGoldenSession(const FixedLengthRepo& repo) {
  DatabaseOptions options;
  options.cache.policy = CachePolicy::kLru;
  options.cache_dir = repo.cache_dir();
  options.shard.num_shards = 4;
  // Station ranges, not uri hashes: the uris carry the pid.
  options.shard.policy = ShardedRepository::Policy::kStationRange;
  options.two_stage.num_threads = 2;
  options.stage1_threads = 2;
  options.pool_threads = 2;
  auto db = Database::Open(repo.root(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  QueryOptions one_shard;
  one_shard.num_shards = 1;
  // A lazy split query: mounts (and caches) the BHE files.
  auto split = (*db)->Query(
      "SELECT F.station, COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.channel = 'BHE' GROUP BY F.station",
      one_shard);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  // Zone-map pruned: the BHE files' complete zones rule them all out.
  QueryOptions pruned = one_shard;
  pruned.pruning = options.two_stage.pruning;
  pruned.pruning->file_level = true;
  auto pruned_r = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.channel = 'BHE' AND D.sample_value > 1000000000000",
      pruned);
  ASSERT_TRUE(pruned_r.ok()) << pruned_r.status().ToString();
  // On all 4 shards.
  auto sharded = (*db)->Query(
      "SELECT F.station, AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.channel = 'BHZ' GROUP BY F.station");
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  // Governed and cut off after its first admission window.
  QueryOptions governed = one_shard;
  governed.sim_deadline_nanos = 1;
  auto partial = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.channel = 'BHN'",
      governed);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();

  DatabaseOptions eager_options;
  eager_options.mode = IngestionMode::kEager;
  eager_options.stage1_threads = 2;
  eager_options.pool_threads = 2;
  auto eager = Database::Open(repo.root(), eager_options);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  auto eager_r = (*eager)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'");
  ASSERT_TRUE(eager_r.ok()) << eager_r.status().ToString();
}

// The registry after RunGoldenSession: every metric name, and the value of
// every metric that does not measure wall time. A difference here is a
// change to what `.metrics` reports.
constexpr const char* kGoldenRegistry = R"(exec.cache_scans 0
exec.files_mounted 18
exec.index_probes 0
exec.mounted_rows 11232
exec.rows_scanned 15642
fault.files_failed 0
fault.files_skipped 0
fault.read_retries 0
fault.records_salvaged 0
fault.records_skipped 0
fault.warnings 0
governance.files_skipped_deadline 5
governance.files_skipped_memory 0
governance.mem_budget_evictions 0
governance.partial_queries 1
kernel.agg_batches 14
kernel.agg_run_batches 13
kernel.agg_scalar_batches 0
kernel.filter_batches 0
kernel.filter_scalar_batches 5
kernel.join_batches 13
kernel.join_scalar_batches 1
kernel.range_skipped_rows 0
kernel.selection_compactions 1
mount.bytes_read 16256
mount.mounts 13
mount.records_decoded 39
mount.samples_decoded 11232
pool.tasks_executed 48
pool.tasks_executed{priority=1} 48
query.count 5
query.exec_nanos *
query.plan_nanos *
query.result_rows 9
query.sim_io_nanos 49304834
refresh.count 1
refresh.files_added 0
refresh.files_changed 0
refresh.files_quarantined 0
refresh.files_removed 0
refresh.files_reused 18
refresh.files_scanned 0
refresh.net_sim_nanos 0
refresh.parallel_sim_nanos 0
refresh.read_retries 0
refresh.scan_nanos *
refresh.serial_sim_nanos 0
refresh.sim_io_nanos 0
serve.epoch_retired 1
shard.files_skipped_shard 0
shard.net_sim_nanos 596382
shard.sharded_queries 1
stage.files_of_interest 24
stage.files_planned_cache 0
stage.files_planned_mount 18
stage.files_pruned 6
stage.files_quarantined 0
stage.mount_tasks 13
stage.parallel_sim_nanos 49304834
stage.rewrite_nanos *
stage.serial_sim_nanos 106992802
stage.split_queries 4
stage.stage1_nanos *
stage.stage2_nanos *
zonemap.fallbacks 0
zonemap.frames_decoded 0
zonemap.frames_skipped 0
zonemap.records_skipped 0
cache.budget_rejections 0
cache.disk.load_failures 0
cache.disk.loads 0
cache.disk.persist_failures 0
cache.disk.persisted 13
cache.disk.persisted_bytes 186394
cache.disk.quarantined 0
cache.disk.recovered 0
cache.disk.stale_dropped 0
cache.evictions 0
cache.hits 0
cache.insertions 0
cache.invalidations 0
cache.misses 0
cache.persist_failures 0
cache.persisted 0
cache.reload_failures 0
cache.reloads 0
cache.spills 0
governance.mem_reserved_peak_bytes 0
io.bytes_written 631100
io.cached_bytes_read 6815744
io.disk_bytes_read 4718592
io.read_faults 0
io.seeks 18
io.sim_nanos 189632594
open.index_nanos *
open.load_nanos *
open.metadata_bytes 6122
open.metadata_scan_nanos *
open.num_files 18
open.num_records 54
open.num_shards 1
open.repo_bytes 22080
open.scan_net_sim_nanos 0
open.scan_parallel_sim_nanos 91660797
open.scan_serial_sim_nanos 183321594
open.scan_workers 2
open.sim_io_nanos 189632594
open.snapshot_files_reused 0
shard.alive{shard=0} 1
shard.alive{shard=1} 1
shard.alive{shard=2} 1
shard.alive{shard=3} 1
shard.count 4
shard.dead 0
shard.net_bytes_total 151758
shard.net_bytes{shard=0} 50586
shard.net_bytes{shard=1} 50586
shard.net_bytes{shard=2} 50586
shard.net_bytes{shard=3} 0
shard.net_messages_total 30
shard.net_messages{shard=0} 10
shard.net_messages{shard=1} 10
shard.net_messages{shard=2} 10
shard.net_messages{shard=3} 0
shard.net_resends_total 0
shard.net_resends{shard=0} 0
shard.net_resends{shard=1} 0
shard.net_resends{shard=2} 0
shard.net_resends{shard=3} 0
shard.net_sim_nanos_total 1651758
shard.net_sim_nanos{shard=0} 550586
shard.net_sim_nanos{shard=1} 550586
shard.net_sim_nanos{shard=2} 550586
shard.net_sim_nanos{shard=3} 0
query.total_seconds count=5
stage.files_of_interest_per_query count=4 sum=24 min=6 max=6 avg=6 p50=6 p95=6 p99=6
)";

TEST(StatsSurfaces, RegistryAfterAFixedSessionIsPinned) {
  FixedLengthRepo repo("stats_golden");
  obs::ScopedMetricsReset reset;
  RunGoldenSession(repo);
  EXPECT_EQ(RegistryDigest(), kGoldenRegistry);
}

/// Expects every named counter of `fields` in the registry to hold what
/// `stats` says (the registry was cleared before the operation).
template <typename S, typename Fields>
void ExpectCountersPublished(const S& stats, const Fields& fields) {
  ForEachStatField(fields, [&](const auto& f) {
    if (f.name == nullptr) return;
    EXPECT_EQ(MetricsRegistry::Global().counter(f.name),
              static_cast<uint64_t>(stats.*f.member))
        << f.name;
  });
}

/// Runs `sql` under EXPLAIN ANALYZE on a cleared registry and checks that
/// every surface shows the query's own numbers. Returns its stats.
QueryStats ExpectSurfacesAgree(Database* db, const std::string& sql,
                               const QueryOptions& options = {}) {
  MetricsRegistry::Global().Clear();
  auto result = db->Query("EXPLAIN ANALYZE " + sql, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  const QueryStats& stats = result->stats;
  ExpectCountersPublished(stats, QueryStats::Fields());
  ExpectCountersPublished(stats.two_stage, TwoStageStats::Fields());
  ExpectCountersPublished(stats.two_stage.mount.counters,
                          Mounter::MountCounters::Fields());
  ExpectCountersPublished(stats.two_stage.exec, ExecStats::Fields());
  auto& m = MetricsRegistry::Global();
  EXPECT_EQ(m.counter("query.result_rows"), stats.result_rows);
  EXPECT_EQ(m.counter("fault.warnings"), stats.warnings_raised());
  EXPECT_EQ(m.counter("shard.net_sim_nanos"), stats.two_stage.net_sim_nanos);

  std::string text;
  for (size_t r = 0; r < result->table->num_rows(); ++r) {
    text += result->table->column(0)->GetString(r) + "\n";
  }
  const std::string marker = "-- execution --\n";
  const size_t at = text.find(marker);
  EXPECT_NE(at, std::string::npos) << text;
  if (at != std::string::npos) {
    EXPECT_EQ(text.substr(at + marker.size()), stats.ToString());
  }
  return stats;
}

constexpr const char* kPerStation =
    "SELECT F.station, COUNT(*) FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station";

TEST(StatsSurfaces, EveryModeShowsTheSameCountersEverywhere) {
  ScopedRepo repo("stats_modes", TinyRepoOptions());
  DatabaseOptions options;
  options.shard.num_shards = 4;
  options.pool_threads = 2;
  MetricsRegistry::Global().Clear();
  auto db = Database::Open(repo.root(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const OpenStats& open = (*db)->open_stats();
  ForEachStatField(OpenStats::Fields(), [&](const auto& f) {
    EXPECT_EQ(MetricsRegistry::Global().gauge(f.name),
              static_cast<double>(open.*f.member))
        << f.name;
  });

  QueryOptions one_shard;
  one_shard.num_shards = 1;
  const QueryStats lazy = ExpectSurfacesAgree(db->get(), kPerStation, one_shard);
  EXPECT_TRUE(lazy.two_stage.split);
  EXPECT_GT(lazy.two_stage.mount.counters.mounts, 0u);

  const QueryStats sharded = ExpectSurfacesAgree(db->get(), kPerStation);
  EXPECT_EQ(sharded.two_stage.num_shards, 4u);
  EXPECT_GT(sharded.two_stage.net_sim_nanos, 0u);

  // Cold, so the first admitted mount passes the deadline.
  (*db)->FlushBuffers();
  QueryOptions governed = one_shard;
  governed.sim_deadline_nanos = 1;
  const QueryStats partial =
      ExpectSurfacesAgree(db->get(), kPerStation, governed);
  EXPECT_TRUE(partial.two_stage.is_partial);
  EXPECT_GT(partial.two_stage.files_skipped_deadline, 0u);

  // The first query harvested every file's zones, so file-level pruning
  // rules them all out.
  QueryOptions pruning = one_shard;
  pruning.pruning = options.two_stage.pruning;
  pruning.pruning->file_level = true;
  const QueryStats pruned = ExpectSurfacesAgree(
      db->get(),
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE D.sample_value > 1000000000000",
      pruning);
  EXPECT_GT(pruned.two_stage.files_pruned, 0u);

  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(files->front(), &bytes).ok());
  ASSERT_TRUE(WriteFileAtomic(repo.root() + "/ISK/copy.mseed", bytes).ok());
  MetricsRegistry::Global().Clear();
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->files_added, 1u);
  ExpectCountersPublished(*refreshed, RefreshStats::Fields());
  EXPECT_EQ(MetricsRegistry::Global().counter("refresh.net_sim_nanos"),
            refreshed->net_sim_nanos);

  DatabaseOptions eager_options;
  eager_options.mode = IngestionMode::kEager;
  eager_options.pool_threads = 2;
  auto eager = Database::Open(repo.root(), eager_options);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  const QueryStats eager_stats = ExpectSurfacesAgree(eager->get(), kPerStation);
  EXPECT_GT(eager_stats.two_stage.exec.rows_scanned, 0u);
  MetricsRegistry::Global().Clear();
}

TEST(StatsSurfaces, FaultWarningsCountsEveryWarningRaised) {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 5;
  gen.channels_per_station = 5;
  gen.num_days = 4;  // 100 files
  ScopedRepo repo("stats_warnings", gen);
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<std::string> uris = (*db)->registry()->AllUris();
  ASSERT_EQ(uris.size(), 100u);
  for (size_t i = 0; i < 40; ++i) {
    auto entry = (*db)->registry()->Get(uris[i]);
    ASSERT_TRUE(entry.ok());
    (*db)->disk()->fault_injector()->FailObject(entry->object);
  }
  obs::ScopedMetricsReset reset;
  auto r = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.mount.files_failed, 40u);
  EXPECT_EQ(r->stats.warnings.size(), Warnings::kMaxWarnings);
  EXPECT_EQ(r->stats.warnings_dropped, 40u - Warnings::kMaxWarnings);
  EXPECT_EQ(MetricsRegistry::Global().counter("fault.warnings"), 40u);
  EXPECT_NE(r->stats.ToString().find("(8 more warnings dropped)"),
            std::string::npos);
}

TEST(StatsSurfaces, OpenReportsWhatItsScanQuarantined) {
  ScopedRepo repo("stats_open_scan", TinyRepoOptions());
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 8u);
  const std::string victim = files->front();
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(victim, &bytes).ok());
  bytes.replace(0, 48, std::string(48, 'X'));
  ASSERT_TRUE(WriteFileAtomic(victim, bytes).ok());

  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const OpenStats& open = (*db)->open_stats();
  EXPECT_EQ(open.num_files, 7u);
  EXPECT_EQ(open.files_quarantined, 1u);
  ASSERT_EQ(open.warnings.size(), 1u);
  EXPECT_NE(open.warnings[0].find(victim), std::string::npos)
      << open.warnings[0];
}

}  // namespace
}  // namespace dex

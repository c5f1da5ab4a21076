// Zone-map pruning property tests.
//
// The load-bearing invariant: zone maps are a performance hint, never a
// correctness dependency. For every (predicate, corpus) pair, a query with
// pruning fully on must return byte-identical rows AND charge identical
// simulated I/O as the same query with pruning fully off — at any worker
// count and shard count. Record/frame pruning saves *decode CPU* only; the
// mount still charges the whole-file simulated read, so the sim-I/O ledger
// cannot legally move.
//
// The fuzz half: stale or corrupt *persisted* zone maps must degrade to a
// full decode (discarded wholesale on checksum/format violations, dropped
// per-file on identity change) — never wrong rows.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/zone_map.h"
#include "engine/kernel.h"
#include "io/file_io.h"
#include "mseed/reader.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::RowStrings;
using ::dex::testing::ScopedRepo;
using ::dex::testing::SmallRepoOptions;
using ::dex::testing::TinyRepoOptions;

// Predicates spanning the selectivity spectrum of the synthetic waveforms
// (noise is roughly +-60, seismic events reach thousands): everything,
// event-only, nothing, and a two-sided band.
const char* kPredicates[] = {
    "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > 500",
    "SELECT COUNT(*), AVG(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > 1000000",
    "SELECT COUNT(*), AVG(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_value > -40 AND D.sample_value < 40",
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_value > -1000000",
};

PruningOptions PruningOff() {
  PruningOptions off;
  off.file_level = false;
  off.record_level = false;
  off.frame_level = false;
  off.use_simd_kernels = false;
  return off;
}

struct RunOutcome {
  std::vector<std::string> rows;
  uint64_t sim_io_nanos = 0;
  uint64_t records_skipped = 0;
  uint64_t frames_skipped = 0;
};

// Opens the repo fresh and runs `sql` twice (the first run harvests zone
// maps as a decode side effect; the second is the one that can prune).
// Returns the second run's outcome. With `prune` false the database is
// opened with zone maps disabled entirely.
RunOutcome RunTwice(const std::string& root, const std::string& sql,
                    size_t workers, int shards, bool prune) {
  DatabaseOptions options;
  options.two_stage.num_threads = workers;
  if (shards > 1) options.shard.num_shards = shards;
  if (!prune) {
    options.collect_zone_maps = false;
    options.two_stage.pruning = PruningOff();
  }
  auto db = Database::Open(root, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  RunOutcome out;
  if (!db.ok()) return out;
  for (int pass = 0; pass < 2; ++pass) {
    auto result = (*db)->Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    if (!result.ok()) return out;
    out.rows = CanonicalRows(*result->table);
    out.sim_io_nanos = result->stats.sim_io_nanos;
    out.records_skipped = result->stats.mount.records_skipped_zonemap;
    out.frames_skipped = result->stats.mount.frames_skipped_zonemap;
  }
  return out;
}

TEST(ZoneMapProperty, PrunedEqualsUnprunedAtEveryWorkerAndShardCount) {
  for (uint64_t seed : {7u, 1234u}) {
    mseed::GeneratorOptions gen = SmallRepoOptions();
    gen.seed = seed;
    gen.event_probability = 0.3;  // ensure some records carry events
    ScopedRepo repo("zonemap_prop_" + std::to_string(seed), gen);
    for (const char* sql : kPredicates) {
      // The unpruned ledger is worker/shard-dependent (makespan vs serial
      // sum), so compare like against like at every configuration.
      for (size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
        for (int shards : {1, 4}) {
          const RunOutcome off =
              RunTwice(repo.root(), sql, workers, shards, /*prune=*/false);
          const RunOutcome on =
              RunTwice(repo.root(), sql, workers, shards, /*prune=*/true);
          const std::string ctx = std::string(sql) +
                                  " workers=" + std::to_string(workers) +
                                  " shards=" + std::to_string(shards) +
                                  " seed=" + std::to_string(seed);
          EXPECT_EQ(off.rows, on.rows) << ctx;
          EXPECT_EQ(off.sim_io_nanos, on.sim_io_nanos)
              << "record/frame pruning saves CPU only; the sim-I/O ledger "
                 "must not move: " << ctx;
          EXPECT_EQ(off.records_skipped, 0u) << ctx;
        }
      }
    }
  }
}

TEST(ZoneMapProperty, SelectivePredicateActuallyPrunes) {
  ScopedRepo repo("zonemap_prunes", SmallRepoOptions());
  // Impossible predicate: every record's zone excludes it, so the second
  // run must skip every known record.
  const RunOutcome on = RunTwice(repo.root(), kPredicates[1], 1, 1, true);
  EXPECT_GT(on.records_skipped, 0u)
      << "second run over harvested zone maps should skip records";
  for (const std::string& row : on.rows) {
    EXPECT_EQ(row.substr(0, 2), "0|") << "impossible predicate matched rows";
  }
}

// A negative bound is parsed as `0 - n`; the binder folds it to a literal,
// so it lowers to the kernels and prunes like a positive one.
// A mount folds a record's zone from the frame stats its decode harvested
// instead of passing over the samples again; the zone must be the pass's.
TEST(ZoneHarvest, FoldedFrameZoneEqualsTheSamplePass) {
  // Quiet stretches broken by jumps near the int32 extremes: 32-bit
  // differences leave some frames a single sample.
  std::vector<int32_t> gaps;
  for (int i = 0; i < 400; ++i) {
    gaps.push_back(i % 97 == 0   ? 2000000000
                   : i % 89 == 0 ? -2000000000
                                 : i % 7 - 3);
  }
  std::vector<int32_t> ramp;
  for (int i = 0; i < 250; ++i) ramp.push_back(1000 - 3 * i);
  struct Case {
    const char* name;
    std::vector<int32_t> samples;
    bool padding_frame;
  };
  const Case cases[] = {{"one sample", {-17}, false},
                        {"gaps", gaps, false},
                        {"ends in a padding frame", ramp, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string payload = mseed::Steim1::Encode(c.samples);
    if (c.padding_frame) payload.append(mseed::Steim1::kFrameBytes, '\0');
    mseed::DecodedRecord rec;
    auto samples = mseed::Steim1::DecodeWithStats(
        payload, c.samples.size(), &rec.frame_stats, &rec.samples_sum);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    rec.samples = std::move(*samples);
    ASSERT_EQ(rec.samples, c.samples);
    ASSERT_FALSE(rec.frame_stats.empty());
    EXPECT_EQ(rec.frame_stats.back().count == 0, c.padding_frame);
    const RecordValueStats folded = RecordValues(rec);
    const kernel::NumericAgg pass =
        kernel::AggI32(rec.samples.data(), rec.samples.size());
    EXPECT_EQ(folded.min, pass.min);
    EXPECT_EQ(folded.max, pass.max);
    EXPECT_EQ(folded.sum, pass.sum);
    EXPECT_EQ(folded.count, pass.count);
    rec.frame_stats.clear();  // what a Steim2 or tscsv decode delivers
    const RecordValueStats passed = RecordValues(rec);
    EXPECT_EQ(passed.min, pass.min);
    EXPECT_EQ(passed.sum, pass.sum);
    EXPECT_EQ(passed.count, pass.count);
  }
}

TEST(ZoneMapProperty, NegativeBoundPrunesAndEqualsUnpruned) {
  mseed::GeneratorOptions gen = SmallRepoOptions();
  gen.event_probability = 0.3;
  ScopedRepo repo("zonemap_negative", gen);
  const char* sql =
      "SELECT COUNT(*), MIN(D.sample_value), AVG(D.sample_value) "
      "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value < -500";
  const RunOutcome off = RunTwice(repo.root(), sql, 1, 1, /*prune=*/false);
  const RunOutcome on = RunTwice(repo.root(), sql, 1, 1, /*prune=*/true);
  EXPECT_GT(on.records_skipped, 0u);
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(on.sim_io_nanos, off.sim_io_nanos);
  ASSERT_EQ(on.rows.size(), 1u);
  EXPECT_NE(on.rows[0].substr(0, 2), "0|") << "no sample below the bound";
}

class ZoneMapPersistenceTest : public ::testing::Test {
 protected:
  ZoneMapPersistenceTest()
      : repo_("zonemap_persist", SmallRepoOptions()),
        map_path_(repo_.root() + "/.zonemaps") {}

  DatabaseOptions WithPath() const {
    DatabaseOptions options;
    options.zone_map_path = map_path_;
    return options;
  }

  // Ground truth: fresh open with zone maps disabled entirely.
  std::vector<std::string> Baseline(const std::string& sql) {
    DatabaseOptions options;
    options.collect_zone_maps = false;
    options.two_stage.pruning = PruningOff();
    auto db = Database::Open(repo_.root(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto result = (*db)->Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? CanonicalRows(*result->table)
                       : std::vector<std::string>{};
  }

  // Populates and persists zone maps by opening, querying, and closing.
  void Persist(const std::string& sql) {
    auto db = Database::Open(repo_.root(), WithPath());
    DEX_ASSERT_OK(db);
    DEX_ASSERT_OK((*db)->Query(sql));
  }

  ScopedRepo repo_;
  std::string map_path_;
};

TEST_F(ZoneMapPersistenceTest, PersistedZoneMapsPruneOnColdOpen) {
  const std::string sql = kPredicates[0];
  const auto baseline = Baseline(sql);
  Persist(sql);

  auto db = Database::Open(repo_.root(), WithPath());
  DEX_ASSERT_OK(db);
  EXPECT_GT((*db)->zone_maps()->GetStats().persisted_loads, 0u)
      << "reopen should restore the persisted zones";
  auto result = (*db)->Query(sql);
  DEX_ASSERT_OK(result);
  EXPECT_EQ(CanonicalRows(*result->table), baseline);
  EXPECT_GT(result->stats.mount.records_skipped_zonemap +
                result->stats.mount.frames_skipped_zonemap,
            0u)
      << "the very first query after reload should prune from cold zones";
}

TEST_F(ZoneMapPersistenceTest, CorruptPersistedZoneMapsNeverYieldWrongRows) {
  const std::string sql = kPredicates[0];
  const auto baseline = Baseline(sql);
  Persist(sql);

  std::string image;
  DEX_ASSERT_STATUS_OK(ReadFileToString(map_path_, &image));
  ASSERT_GT(image.size(), 16u);

  // Fuzz sweep: damage the magic, the body at several depths, the checksum
  // footer; truncate at several points; append trailing garbage. Every
  // mutant must be discarded wholesale (checksum/format violation) and the
  // query must fall back to full decode with identical rows.
  std::vector<std::string> mutants;
  for (size_t off : {size_t{0}, size_t{4}, image.size() / 3, image.size() / 2,
                     image.size() - 1}) {
    std::string m = image;
    m[off] = static_cast<char>(m[off] ^ 0x5a);
    mutants.push_back(std::move(m));
  }
  mutants.push_back(image.substr(0, 3));
  mutants.push_back(image.substr(0, image.size() / 2));
  mutants.push_back(image + "trailing-garbage");
  mutants.push_back("");

  for (size_t i = 0; i < mutants.size(); ++i) {
    DEX_ASSERT_STATUS_OK(WriteStringToFile(map_path_, mutants[i]));
    auto db = Database::Open(repo_.root(), WithPath());
    ASSERT_TRUE(db.ok()) << "corrupt zone maps must never block Open: mutant "
                         << i << ": " << db.status().ToString();
    EXPECT_GT((*db)->zone_maps()->GetStats().corrupt_discarded, 0u)
        << "mutant " << i << " should be detected and discarded";
    EXPECT_EQ((*db)->zone_maps()->GetStats().persisted_loads, 0u)
        << "mutant " << i << " must not restore any file";
    auto result = (*db)->Query(sql);
    DEX_ASSERT_OK(result);
    EXPECT_EQ(CanonicalRows(*result->table), baseline) << "mutant " << i;
    // Close without re-persisting over the next mutant's input.
  }
}

TEST_F(ZoneMapPersistenceTest, StaleZoneMapsDroppedWhenFilesChange) {
  const std::string sql = kPredicates[0];
  Persist(sql);

  // Rewrite the repository in place with a different seed: same file names,
  // different waveforms. The persisted zones now describe dead content.
  mseed::GeneratorOptions gen = SmallRepoOptions();
  gen.seed = 9999;
  gen.event_probability = 0.4;
  DEX_ASSERT_OK(mseed::GenerateRepository(repo_.root(), gen));
  const auto baseline = Baseline(sql);

  auto db = Database::Open(repo_.root(), WithPath());
  DEX_ASSERT_OK(db);
  EXPECT_GT((*db)->zone_maps()->GetStats().stale_dropped, 0u)
      << "identity change (size/mtime) should drop the stale zones";
  for (int pass = 0; pass < 2; ++pass) {
    auto result = (*db)->Query(sql);
    DEX_ASSERT_OK(result);
    EXPECT_EQ(CanonicalRows(*result->table), baseline) << "pass " << pass;
  }
}

TEST(ZoneMapOptions, PerQueryOverrideDisablesPruning) {
  ScopedRepo repo("zonemap_override", SmallRepoOptions());
  auto db = Database::Open(repo.root(), DatabaseOptions{});
  DEX_ASSERT_OK(db);
  const std::string sql = kPredicates[1];
  DEX_ASSERT_OK((*db)->Query(sql));  // harvest

  QueryOptions off;
  off.pruning = PruningOff();
  auto unpruned = (*db)->Query(sql, off);
  DEX_ASSERT_OK(unpruned);
  EXPECT_EQ(unpruned->stats.mount.records_skipped_zonemap, 0u);
  EXPECT_EQ(unpruned->stats.mount.frames_skipped_zonemap, 0u);

  auto pruned = (*db)->Query(sql);
  DEX_ASSERT_OK(pruned);
  EXPECT_GT(pruned->stats.mount.records_skipped_zonemap, 0u);
  EXPECT_EQ(CanonicalRows(*pruned->table), CanonicalRows(*unpruned->table));
}

// -- Derived metadata (DM) and file-level pruning read the zone store --------

const char* kMountAll = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

std::vector<std::string> FileUris(Database* db) {
  auto result = db->Query("SELECT F.uri FROM F ORDER BY F.uri");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> uris;
  if (!result.ok()) return uris;
  for (size_t r = 0; r < result->table->num_rows(); ++r) {
    uris.push_back(result->table->GetValue(r, 0).str());
  }
  return uris;
}

int64_t CountAbove(Database* db, double threshold,
                   const std::string& uri = "") {
  std::string sql =
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > " +
      std::to_string(threshold);
  if (!uri.empty()) sql += " AND F.uri = '" + uri + "'";
  auto result = db->Query(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->table->GetValue(0, 0).int64() : -1;
}

/// Rewrites `path` in place with every sample scaled by `factor`, and moves
/// its mtime a minute ahead so a Refresh sees the file as changed.
void AmplifyFile(const std::string& path, int32_t factor) {
  auto records = mseed::Reader::ReadAllRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::vector<mseed::RecordData> out;
  for (const mseed::DecodedRecord& rec : *records) {
    mseed::RecordData data;
    data.network = rec.header.network;
    data.station = rec.header.station;
    data.channel = rec.header.channel;
    data.location = rec.header.location;
    data.start_time_ms = rec.header.start_time_ms;
    data.sample_rate_hz = rec.header.sample_rate_hz;
    data.encoding = rec.header.encoding;
    data.samples = rec.samples;
    for (int32_t& v : data.samples) v *= factor;
    out.push_back(std::move(data));
  }
  DEX_ASSERT_STATUS_OK(mseed::WriteFile(path, out));
  struct timespec times[2];
  times[0].tv_sec = ::time(nullptr) + 60;
  times[0].tv_nsec = 0;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

// Regression: file-level pruning used to keep a rewritten file's old value
// range after Refresh, silently dropping the new file's matching rows.
TEST(DerivedMetadataTest, RefreshDropsRewrittenFileRange) {
  ScopedRepo repo("dm_stale_range", TinyRepoOptions());
  DatabaseOptions options;
  options.two_stage.pruning.file_level = true;
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);
  DEX_ASSERT_OK((*db)->Query(kMountAll));  // every file's zones complete
  const std::string target = FileUris(db->get()).at(0);
  auto old_max = (*db)->Query(
      "SELECT MAX(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.uri = '" + target + "'");
  DEX_ASSERT_OK(old_max);
  const double threshold = old_max->table->GetValue(0, 0).dbl() + 0.5;

  AmplifyFile(target, 8);
  auto refresh = (*db)->Refresh();
  DEX_ASSERT_OK(refresh);
  ASSERT_EQ(refresh->files_changed, 1u);

  auto fresh = Database::Open(repo.root(), DatabaseOptions{});
  DEX_ASSERT_OK(fresh);
  ASSERT_GT(CountAbove(fresh->get(), threshold, target), 0)
      << "the rewritten file must contribute rows above its old maximum";
  EXPECT_EQ(CountAbove(db->get(), threshold),
            CountAbove(fresh->get(), threshold));
}

TEST(DerivedMetadataTest, TableAndFilePruningSurviveRestart) {
  ScopedRepo repo("dm_restart", TinyRepoOptions());
  DatabaseOptions options;
  options.zone_map_path = repo.root() + "/.zonemaps";
  options.two_stage.pruning.file_level = true;
  std::vector<std::string> before;
  {
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    DEX_ASSERT_OK((*db)->Query(kMountAll));
    auto dm = (*db)->Query("SELECT * FROM DM");
    DEX_ASSERT_OK(dm);
    before = RowStrings(*dm->table);
    ASSERT_EQ(before.size(), 24u);  // 8 files x 3 records
  }
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);
  auto dm = (*db)->Query("SELECT * FROM DM");
  DEX_ASSERT_OK(dm);
  EXPECT_EQ(RowStrings(*dm->table), before);
  EXPECT_EQ(dm->stats.mount.mounts, 0u);

  auto pruned = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE D.sample_value > 99999999");
  DEX_ASSERT_OK(pruned);
  EXPECT_EQ(pruned->stats.mount.mounts, 0u);
  EXPECT_EQ(pruned->stats.two_stage.files_pruned, 8u);
  EXPECT_EQ(pruned->table->GetValue(0, 0).int64(), 0);
}

TEST(DerivedMetadataTest, RowOrderIsIndependentOfWorkerCount) {
  ScopedRepo repo("dm_row_order", SmallRepoOptions());
  std::vector<std::string> rows[2];
  const size_t workers[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    DatabaseOptions options;
    options.two_stage.num_threads = workers[i];
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    DEX_ASSERT_OK((*db)->Query(kMountAll));
    auto dm = (*db)->Query("SELECT * FROM DM");
    DEX_ASSERT_OK(dm);
    rows[i] = RowStrings(*dm->table);
  }
  ASSERT_FALSE(rows[0].empty());
  EXPECT_EQ(rows[0], rows[1]);
}

int64_t DmRows(Database* db, const std::string& uri) {
  auto result =
      db->Query("SELECT COUNT(*) FROM DM WHERE DM.uri = '" + uri + "'");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->table->GetValue(0, 0).int64() : -1;
}

// Regression: the zone store kept a removed file's zones, so DM kept its
// rows after Refresh and, through the zone-map file, after a restart.
TEST(DerivedMetadataTest, RefreshForgetsRemovedFile) {
  ScopedRepo repo("dm_removed", TinyRepoOptions());
  DatabaseOptions options;
  options.zone_map_path = repo.root() + "/.zonemaps";
  std::string target;
  {
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    DEX_ASSERT_OK((*db)->Query(kMountAll));
    target = FileUris(db->get()).at(0);
    ASSERT_EQ(DmRows(db->get(), target), 3);
    ASSERT_EQ(std::remove(target.c_str()), 0) << target;
    auto refresh = (*db)->Refresh();
    DEX_ASSERT_OK(refresh);
    ASSERT_EQ(refresh->files_removed, 1u);
    EXPECT_EQ(DmRows(db->get(), target), 0);
    EXPECT_EQ((*db)->zone_maps()->GetStats().records, 21u);
  }
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);
  EXPECT_EQ((*db)->zone_maps()->GetStats().persisted_loads, 7u)
      << "the zone-map file must forget the removed file too";
  EXPECT_EQ(DmRows(db->get(), target), 0);
}

// Guard: a file a deadline skips keeps its stale F/R rows, is delivered to
// the collectors as reused, and so keeps its zones.
TEST(DerivedMetadataTest, DeadlineSkippedFileKeepsItsZones) {
  ScopedRepo repo("dm_deadline", TinyRepoOptions());
  auto db = Database::Open(repo.root(), DatabaseOptions{});
  DEX_ASSERT_OK(db);
  DEX_ASSERT_OK((*db)->Query(kMountAll));
  const std::vector<std::string> uris = FileUris(db->get());
  AmplifyFile(uris.at(0), 8);
  AmplifyFile(uris.at(1), 8);
  // Cold header reads, so the first admission charges past the deadline.
  (*db)->FlushBuffers();
  (*db)->set_sim_deadline_nanos(1);
  auto refresh = (*db)->Refresh();
  (*db)->set_sim_deadline_nanos(0);
  DEX_ASSERT_OK(refresh);
  ASSERT_TRUE(refresh->is_partial);
  ASSERT_EQ(refresh->files_changed, 1u);
  ASSERT_EQ(refresh->files_skipped_deadline, 1u);
  EXPECT_EQ(DmRows(db->get(), uris[0]), 0) << "admitted: stale zones dropped";
  EXPECT_EQ(DmRows(db->get(), uris[1]), 3) << "skipped: zones kept";
}

// One thread scans DM while another mounts files the scans have not seen:
// each scan reads a private table built from the zone store, never a table
// another thread appends to (the TSan leg checks the absence of a race).
TEST(DerivedMetadataTest, ScanWhileAnotherQueryMounts) {
  ScopedRepo repo("dm_concurrent", TinyRepoOptions());
  auto db = Database::Open(repo.root(), DatabaseOptions{});
  DEX_ASSERT_OK(db);
  const std::vector<std::string> uris = FileUris(db->get());
  ASSERT_EQ(uris.size(), 8u);

  std::atomic<bool> done{false};
  std::thread mounter([&] {
    for (const std::string& uri : uris) {
      auto r = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
                            "WHERE F.uri = '" + uri + "'");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    done = true;
  });
  size_t last = 0;
  for (bool finished = false; !finished;) {
    finished = done.load();
    auto dm = (*db)->Query("SELECT DM.uri, DM.record_id FROM DM");
    ASSERT_TRUE(dm.ok()) << dm.status().ToString();
    const Table& t = *dm->table;
    EXPECT_GE(t.num_rows(), last) << "DM never loses rows while mounting";
    last = t.num_rows();
    for (size_t r = 1; r < t.num_rows(); ++r) {
      const auto prev = std::make_pair(t.GetValue(r - 1, 0).str(),
                                       t.GetValue(r - 1, 1).int64());
      const auto cur =
          std::make_pair(t.GetValue(r, 0).str(), t.GetValue(r, 1).int64());
      EXPECT_LT(prev, cur) << "DM rows come in URI, then record-id order";
    }
  }
  mounter.join();
  auto dm = (*db)->Query("SELECT COUNT(*) FROM DM");
  DEX_ASSERT_OK(dm);
  EXPECT_EQ(dm->table->GetValue(0, 0).int64(), 24);
}

}  // namespace
}  // namespace dex

// Tests for Database::Refresh(): the repository grows (and churns) while the
// database is open — the e-science scenario the paper opens with.

#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <ctime>
#include <thread>

#include <gtest/gtest.h>

#include "core/database.h"
#include "mseed/generator.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

mseed::RecordData NewRecord(const std::string& station, int64_t start_ms,
                            int samples) {
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = station;
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = start_ms;
  rec.sample_rate_hz = 1.0;
  for (int i = 0; i < samples; ++i) rec.samples.push_back(i);
  return rec;
}

/// Moves a file's mtime into the future so the registry sees it as changed.
void BumpMtime(const std::string& path, int64_t seconds_ahead) {
  struct timespec times[2] = {{0, 0}, {0, 0}};
  times[0].tv_sec = times[1].tv_sec = ::time(nullptr) + seconds_ahead;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

/// Full textual dump of every metadata table a refresh touches — the
/// bit-identity witness for the worker-count invariance tests.
std::string DumpCatalog(Database* db) {
  std::string out;
  for (const char* name : {"F", "R", "QUARANTINE"}) {
    auto t = db->catalog()->GetTable(name);
    if (t.ok()) {
      out += name;
      out += ":\n";
      out += (*t)->ToString(1u << 20);
    }
  }
  return out;
}

/// Every RefreshStats field that must be bit-identical at any worker count.
/// Excluded by design: scan_nanos (wall clock), workers (the knob itself)
/// and parallel_sim_nanos (the critical path over `workers` lanes — it is
/// *supposed* to shrink with more lanes).
void ExpectSameRefresh(const RefreshStats& a, const RefreshStats& b) {
  EXPECT_EQ(a.files_added, b.files_added);
  EXPECT_EQ(a.files_changed, b.files_changed);
  EXPECT_EQ(a.files_removed, b.files_removed);
  EXPECT_EQ(a.files_scanned, b.files_scanned);
  EXPECT_EQ(a.files_reused, b.files_reused);
  EXPECT_EQ(a.files_quarantined, b.files_quarantined);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.sim_io_nanos, b.sim_io_nanos);
  EXPECT_EQ(a.serial_sim_nanos, b.serial_sim_nanos);
  EXPECT_EQ(a.is_partial, b.is_partial);
  EXPECT_EQ(a.files_skipped_deadline, b.files_skipped_deadline);
  EXPECT_EQ(a.warnings, b.warnings);
}

TEST(RefreshTest, NewFilesBecomeQueryable) {
  ScopedRepo repo("refresh_new", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto before = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(before.ok());
  const int64_t files_before = before->table->GetValue(0, 0).int64();

  // A new station's data arrives.
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 50)})
                  .ok());
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->files_added, 1u);
  EXPECT_EQ(refreshed->files_removed, 0u);

  auto after = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->table->GetValue(0, 0).int64(), files_before + 1);

  // And its actual data mounts like any other file.
  auto data = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'NEWSTA'");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->table->GetValue(0, 0).int64(), 50);
}

TEST(RefreshTest, RemovedFilesDropOutOfMetadata) {
  ScopedRepo repo("refresh_removed", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(RemoveDirRecursive((*files)[0]).ok());

  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->files_removed, 1u);
  auto count = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->table->GetValue(0, 0).int64(),
            static_cast<int64_t>(files->size()) - 1);
  // Full scans no longer try to mount the vanished file.
  EXPECT_TRUE((*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri").ok());
}

TEST(RefreshTest, ChangedFilesDetected) {
  ScopedRepo repo("refresh_changed", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  // Overwrite one file with different content and a bumped mtime.
  ASSERT_TRUE(
      mseed::WriteFile((*files)[0], {NewRecord("ISK", 1262304000000LL, 9)}).ok());
  struct timespec times[2] = {{0, 0}, {0, 0}};
  times[0].tv_sec = times[1].tv_sec = ::time(nullptr) + 60;
  ASSERT_EQ(::utimensat(AT_FDCWD, (*files)[0].c_str(), times, 0), 0);

  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->files_changed, 1u);
  EXPECT_EQ(refreshed->files_added, 0u);
  // The record table reflects the rewritten file.
  auto r = (*db)->Query(
      "SELECT R.n_samples FROM R WHERE R.uri LIKE '%" +
      (*files)[0].substr((*files)[0].rfind('/') + 1) + "'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table->num_rows(), 1u);
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 9);
}

TEST(RefreshTest, NoChangesIsCleanNoop) {
  ScopedRepo repo("refresh_noop", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto before = (*db)->Query("SELECT COUNT(*) FROM R");
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->files_added, 0u);
  EXPECT_EQ(refreshed->files_changed, 0u);
  EXPECT_EQ(refreshed->files_removed, 0u);
  auto after = (*db)->Query("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->table->GetValue(0, 0).int64(),
            after->table->GetValue(0, 0).int64());
}

TEST(RefreshTest, EagerModeRefusesRefresh) {
  ScopedRepo repo("refresh_eager", TinyRepoOptions());
  DatabaseOptions opts;
  opts.mode = IngestionMode::kEager;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Refresh().status().IsNotImplemented());
}

TEST(RefreshTest, RepeatedRefreshesAccumulate) {
  ScopedRepo repo("refresh_repeat", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  for (int day = 0; day < 3; ++day) {
    ASSERT_TRUE(mseed::WriteFile(
                    repo.root() + "/NEW/OR.NEW.BHE.10" + std::to_string(day) +
                        ".mseed",
                    {NewRecord("NEWSTA", 1262304000000LL + day * 86400000LL, 20)})
                    .ok());
    auto refreshed = (*db)->Refresh();
    ASSERT_TRUE(refreshed.ok());
    EXPECT_EQ(refreshed->files_added, 1u);
  }
  auto data = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'NEWSTA'");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->table->GetValue(0, 0).int64(), 60);
}

TEST(RefreshTest, WorkerCountInvarianceUnderFaults) {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;
  gen.channels_per_station = 4;
  gen.num_days = 2;  // 32 files
  ScopedRepo repo("refresh_invariance", gen);

  DatabaseOptions opts;
  opts.disk.faults.seed = 42;
  opts.disk.faults.transient_error_rate = 0.15;
  DatabaseOptions serial_opts = opts;
  serial_opts.stage1_threads = 1;
  DatabaseOptions parallel_opts = opts;
  parallel_opts.stage1_threads = 8;
  auto serial = Database::Open(repo.root(), serial_opts);
  auto parallel = Database::Open(repo.root(), parallel_opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  // Churn the repository under both open databases: rewrite two files, add
  // one, remove one.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_GE(files->size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(mseed::WriteFile((*files)[i],
                                 {NewRecord("CHG", 1262304000000LL,
                                            static_cast<int>(7 + i))})
                    .ok());
    BumpMtime((*files)[i], 60);
  }
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 11)})
                  .ok());
  ASSERT_TRUE(RemoveDirRecursive((*files)[3]).ok());

  // One of the changed files' medium goes permanently bad in both databases:
  // its header parse (off the real filesystem) succeeds but the simulated
  // read fails after all retries, so it must end up quarantined.
  for (Database* db : {serial->get(), parallel->get()}) {
    auto entry = db->registry()->Get((*files)[0]);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    db->disk()->fault_injector()->FailObject(entry->object);
    db->FlushBuffers();  // scans must face the faulty medium cold
  }

  auto rs = (*serial)->Refresh();
  auto rp = (*parallel)->Refresh();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();

  EXPECT_EQ(rs->files_added, 1u);
  EXPECT_EQ(rs->files_changed, 2u);
  EXPECT_EQ(rs->files_removed, 1u);
  EXPECT_EQ(rs->files_scanned, 3u);
  EXPECT_EQ(rs->files_reused, files->size() - 3);
  EXPECT_EQ(rs->files_quarantined, 1u);
  EXPECT_GT(rs->read_retries, 0u);
  EXPECT_GT(rs->sim_io_nanos, 0u);
  EXPECT_EQ(rs->workers, 1u);
  EXPECT_EQ(rp->workers, 3u);  // 8 requested, capped at the 3 scan tasks

  ExpectSameRefresh(*rs, *rp);
  EXPECT_EQ(DumpCatalog(serial->get()), DumpCatalog(parallel->get()));
  EXPECT_TRUE((*serial)->registry()->IsQuarantined((*files)[0]));
  EXPECT_TRUE((*parallel)->registry()->IsQuarantined((*files)[0]));
}

TEST(RefreshTest, OnlyChangedFilesAreRescanned) {
  ScopedRepo repo("refresh_delta", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(
      mseed::WriteFile((*files)[0], {NewRecord("ISK", 1262304000000LL, 5)}).ok());
  BumpMtime((*files)[0], 60);

  auto first = (*db)->Refresh();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->files_scanned, 1u);
  EXPECT_EQ(first->files_changed, 1u);
  EXPECT_EQ(first->files_reused, files->size() - 1);

  // Nothing moved since: a refresh is a pure stat sweep, zero header parses.
  auto second = (*db)->Refresh();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->files_scanned, 0u);
  EXPECT_EQ(second->files_reused, files->size());
  EXPECT_EQ(second->sim_io_nanos, 0u);
}

TEST(RefreshTest, SnapshotDeltaReopenIsWorkerCountInvariant) {
  ScopedRepo repo("refresh_snapdelta", TinyRepoOptions());
  const std::string snap_a = repo.root() + "/.metadata.snap.a";
  const std::string snap_b = repo.root() + "/.metadata.snap.b";
  {
    DatabaseOptions o;
    o.metadata_snapshot_path = snap_a;
    auto db = Database::Open(repo.root(), o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }
  std::string image;
  ASSERT_TRUE(ReadFileToString(snap_a, &image).ok());
  ASSERT_TRUE(WriteStringToFile(snap_b, image).ok());

  // Churn between sessions: one file rewritten, one new station arrives.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(
      mseed::WriteFile((*files)[0], {NewRecord("ISK", 1262304000000LL, 6)}).ok());
  BumpMtime((*files)[0], 60);
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 9)})
                  .ok());

  DatabaseOptions oa;
  oa.metadata_snapshot_path = snap_a;
  oa.stage1_threads = 1;
  DatabaseOptions ob;
  ob.metadata_snapshot_path = snap_b;
  ob.stage1_threads = 8;
  auto a = Database::Open(repo.root(), oa);
  auto b = Database::Open(repo.root(), ob);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Instant-on delta: everything but the changed + new file comes from the
  // snapshot, and the parallel reopen is bit-identical to the serial one.
  EXPECT_EQ((*a)->open_stats().snapshot_files_reused, files->size() - 1);
  EXPECT_EQ((*b)->open_stats().snapshot_files_reused, files->size() - 1);
  EXPECT_GT((*a)->open_stats().sim_io_nanos, 0u);
  EXPECT_EQ((*a)->open_stats().sim_io_nanos, (*b)->open_stats().sim_io_nanos);
  EXPECT_EQ((*a)->open_stats().serial_sim_nanos,
            (*b)->open_stats().serial_sim_nanos);
  EXPECT_EQ(DumpCatalog(a->get()), DumpCatalog(b->get()));
}

TEST(RefreshTest, DeadlineYieldsDeterministicPartialRefresh) {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;  // 16 files
  ScopedRepo repo("refresh_deadline", gen);

  DatabaseOptions o1;
  o1.stage1_threads = 1;
  DatabaseOptions o8;
  o8.stage1_threads = 8;
  auto a = Database::Open(repo.root(), o1);
  auto b = Database::Open(repo.root(), o8);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  for (const std::string& f : *files) BumpMtime(f, 60);
  (*a)->FlushBuffers();
  (*b)->FlushBuffers();

  // Probe what rescanning every header costs on this medium: a fresh open
  // does exactly the reads the refresh is about to do.
  uint64_t full_sim = 0;
  {
    auto probe = Database::Open(repo.root(), o1);
    ASSERT_TRUE(probe.ok());
    full_sim = (*probe)->open_stats().sim_io_nanos;
  }
  ASSERT_GT(full_sim, 0u);

  // Half the budget: the scan must stop admitting header parses partway
  // through, identically at any worker count (governed scans serialize).
  (*a)->set_sim_deadline_nanos(full_sim / 2);
  (*b)->set_sim_deadline_nanos(full_sim / 2);
  auto ra = (*a)->Refresh();
  auto rb = (*b)->Refresh();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_TRUE(ra->is_partial);
  EXPECT_GT(ra->files_scanned, 0u);
  EXPECT_GT(ra->files_skipped_deadline, 0u);
  EXPECT_EQ(ra->files_scanned + ra->files_skipped_deadline, files->size());
  // Skipped files fall back to their stale catalog rows — nothing vanishes.
  EXPECT_EQ(ra->files_reused, ra->files_skipped_deadline);
  ExpectSameRefresh(*ra, *rb);
  EXPECT_EQ(DumpCatalog(a->get()), DumpCatalog(b->get()));

  (*a)->set_sim_deadline_nanos(0);
  (*b)->set_sim_deadline_nanos(0);
  auto count = (*a)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->table->GetValue(0, 0).int64(),
            static_cast<int64_t>(files->size()));

  // With the deadline lifted, the next refresh picks up exactly the files
  // the partial one left at their stale rows.
  auto fa = (*a)->Refresh();
  auto fb = (*b)->Refresh();
  ASSERT_TRUE(fa.ok()) << fa.status().ToString();
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_FALSE(fa->is_partial);
  EXPECT_EQ(fa->files_scanned, ra->files_skipped_deadline);
  EXPECT_EQ(fa->files_changed, ra->files_skipped_deadline);
  ExpectSameRefresh(*fa, *fb);
  EXPECT_EQ(DumpCatalog(a->get()), DumpCatalog(b->get()));
}

TEST(RefreshTest, GovernedShardedRefreshIsLaneInvariant) {
  // A deadline-armed refresh on a sharded database admits one file per
  // window, and each window pays the scatter/gather model: one request and
  // one response per admitted file.
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 4;  // 16 files
  ScopedRepo repo("refresh_sharded_deadline", gen);

  DatabaseOptions o1;
  o1.shard.num_shards = 4;
  o1.stage1_threads = 1;
  DatabaseOptions o8 = o1;
  o8.stage1_threads = 8;
  auto a = Database::Open(repo.root(), o1);
  auto b = Database::Open(repo.root(), o8);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  for (const std::string& f : *files) BumpMtime(f, 60);
  (*a)->FlushBuffers();
  (*b)->FlushBuffers();

  uint64_t full_sim = 0;
  {
    auto probe = Database::Open(repo.root(), o1);
    ASSERT_TRUE(probe.ok());
    full_sim = (*probe)->open_stats().sim_io_nanos;
  }
  ASSERT_GT(full_sim, 0u);

  (*a)->set_sim_deadline_nanos(full_sim / 2);
  (*b)->set_sim_deadline_nanos(full_sim / 2);
  auto ra = (*a)->Refresh();
  auto rb = (*b)->Refresh();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_TRUE(ra->is_partial);
  EXPECT_GT(ra->files_scanned, 0u);
  EXPECT_GT(ra->files_skipped_deadline, 0u);
  EXPECT_EQ(ra->num_shards, 4u);
  EXPECT_GT(ra->net_sim_nanos, 0u);
  EXPECT_EQ(ra->workers, 1u);
  EXPECT_EQ(rb->workers, 1u);
  ExpectSameRefresh(*ra, *rb);
  EXPECT_EQ(ra->net_sim_nanos, rb->net_sim_nanos);
  EXPECT_EQ(ra->parallel_sim_nanos, rb->parallel_sim_nanos);
  EXPECT_EQ(DumpCatalog(a->get()), DumpCatalog(b->get()));
}

// --- Snapshot isolation: Refresh publishes a new catalog epoch; queries run
// --- against the epoch pinned at their submission.

TEST(RefreshTest, QueryAgainstPinnedEpochSeesPreRefreshRows) {
  ScopedRepo repo("refresh_epoch_pin", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto before = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(before.ok());
  const int64_t files_before = before->table->GetValue(0, 0).int64();
  const uint64_t epoch_before = (*db)->current_epoch();
  EXPECT_EQ(before->stats.epoch, epoch_before);

  // Pin "now", as an admission gate would, then let the repository move on.
  EpochPtr pinned = (*db)->PinEpoch();
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 50)})
                  .ok());
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->files_added, 1u);
  EXPECT_EQ(refreshed->epoch, epoch_before + 1);
  EXPECT_EQ((*db)->current_epoch(), epoch_before + 1);

  // The pinned query runs *after* the publish yet sees the pre-refresh
  // snapshot — including its stage-2 side: the new station is invisible.
  auto old_count = (*db)->Query("SELECT COUNT(*) FROM F", {}, pinned);
  ASSERT_TRUE(old_count.ok()) << old_count.status().ToString();
  EXPECT_EQ(old_count->table->GetValue(0, 0).int64(), files_before);
  EXPECT_EQ(old_count->stats.epoch, epoch_before);
  auto old_data = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'NEWSTA'",
      {}, (*db)->PinEpoch());
  // (A fresh pin sees the new epoch; the original pin still doesn't.)
  ASSERT_TRUE(old_data.ok()) << old_data.status().ToString();
  EXPECT_EQ(old_data->table->GetValue(0, 0).int64(), 50);
  auto still_old = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'NEWSTA'",
      {}, std::move(pinned));
  ASSERT_TRUE(still_old.ok()) << still_old.status().ToString();
  EXPECT_EQ(still_old->table->GetValue(0, 0).int64(), 0);

  // An unpinned query naturally runs on the latest epoch.
  auto new_count = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(new_count.ok());
  EXPECT_EQ(new_count->table->GetValue(0, 0).int64(), files_before + 1);
  EXPECT_EQ(new_count->stats.epoch, epoch_before + 1);
}

// A query reading no metadata takes its files from its pinned epoch's F,
// exactly like an F JOIN D query: a file a later Refresh adds is invisible.
TEST(RefreshTest, DataOnlyQueryReadsItsPinnedEpoch) {
  ScopedRepo repo("refresh_data_only_pin", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  EpochPtr pinned = (*db)->PinEpoch();
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 50)})
                  .ok());
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_EQ(refreshed->files_added, 1u);

  auto data_only = (*db)->Query("SELECT COUNT(*) FROM D", {}, pinned);
  ASSERT_TRUE(data_only.ok()) << data_only.status().ToString();
  auto joined = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
                             {}, pinned);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->table->GetValue(0, 0).int64(), 6912);
  EXPECT_EQ(data_only->table->GetValue(0, 0).int64(),
            joined->table->GetValue(0, 0).int64());
  EXPECT_EQ(data_only->stats.two_stage.files_of_interest, 8u);
}

// After a file is removed and a Refresh drops it from F, a query reading no
// metadata never tries to mount it: no failure, no warning, no quarantine,
// and the same count as a database opened fresh on the shrunken repository.
TEST(RefreshTest, DataOnlyQueryMountsNoRemovedFile) {
  ScopedRepo repo("refresh_data_only_removed", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(RemoveDirRecursive((*files)[0]).ok());
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_EQ(refreshed->files_removed, 1u);

  auto r = (*db)->Query("SELECT COUNT(*) FROM D");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.warnings_raised(), 0u) << r->stats.RenderWarnings("");
  EXPECT_EQ(r->stats.mount.files_failed, 0u);
  auto quarantined = (*db)->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_EQ(quarantined->table->GetValue(0, 0).int64(), 0);

  auto fresh = Database::Open(repo.root(), {});
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->Query("SELECT COUNT(*) FROM D");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->table->GetValue(0, 0).int64(), 6048);
  EXPECT_EQ(r->table->GetValue(0, 0).int64(),
            expected->table->GetValue(0, 0).int64());
}

TEST(RefreshTest, SupersededEpochRetiresWhenLastPinDrops) {
  ScopedRepo repo("refresh_epoch_retire", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());

  // Publish epoch 2 so we can pin a non-initial epoch (the initial epoch is
  // held alive by the database itself for its whole lifetime).
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               {NewRecord("NEWSTA", 1262304000000LL, 20)})
                  .ok());
  ASSERT_TRUE((*db)->Refresh().ok());
  const uint64_t epoch2 = (*db)->current_epoch();
  EpochPtr pin = (*db)->PinEpoch();
  ASSERT_EQ(pin->id, epoch2);

  // Supersede it. The pin keeps it alive: nothing retires yet.
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.001.mseed",
                               {NewRecord("NEWSTA", 1262390400000LL, 20)})
                  .ok());
  const uint64_t retired_before = (*db)->epochs_retired();
  ASSERT_TRUE((*db)->Refresh().ok());
  EXPECT_EQ((*db)->current_epoch(), epoch2 + 1);
  EXPECT_EQ((*db)->epochs_retired(), retired_before);

  // Last pin drops -> the superseded epoch's catalog is freed and counted.
  pin.reset();
  EXPECT_EQ((*db)->epochs_retired(), retired_before + 1);
}

TEST(RefreshTest, RetirementRacesPublishWhileQueuedQueryPinsOldEpoch) {
  // The serving layer's admission gate pins an epoch when a query is
  // *queued*, possibly long before it runs. Meanwhile refreshes keep
  // publishing new epochs and other queries' short-lived pins keep dropping
  // — so EpochManager's retire path (pin-drop side) races its Publish path
  // (refresh side) continuously. Run under TSan, this is the regression
  // net for that handoff; the assertions below pin down the semantics.
  ScopedRepo repo("refresh_retire_vs_publish", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());

  // Publish epoch 2 first: the initial epoch is held by the database itself
  // and would never retire, which would muddy the final retirement check.
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.base.mseed",
                               {NewRecord("NEWSTA", 1262217600000LL, 10)})
                  .ok());
  ASSERT_TRUE((*db)->Refresh().ok());
  auto before = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(before.ok());
  const int64_t files_before = before->table->GetValue(0, 0).int64();

  // The queued query's pin: taken now, used only after every publish below.
  EpochPtr queued_pin = (*db)->PinEpoch();
  const uint64_t queued_epoch = queued_pin->id;

  // Publisher: refreshes adding one file each, every one superseding the
  // current epoch.
  constexpr int kPublishes = 4;
  std::atomic<int> publish_failures{0};
  std::thread publisher([&] {
    for (int i = 0; i < kPublishes; ++i) {
      const std::string path = repo.root() + "/NEW/OR.NEW.BHE.00" +
                               std::to_string(i) + ".mseed";
      if (!mseed::WriteFile(path, {NewRecord("NEWSTA",
                                             1262304000000LL + i * 86400000LL,
                                             10)})
               .ok() ||
          !(*db)->Refresh().ok()) {
        publish_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Churn: short-lived pins whose drops retire superseded epochs while the
  // publisher is mid-Publish.
  std::atomic<int> reader_failures{0};
  std::thread reader([&] {
    for (int i = 0; i < 100; ++i) {
      EpochPtr pin = (*db)->PinEpoch();
      auto r = (*db)->Query("SELECT COUNT(*) FROM F", {}, std::move(pin));
      if (!r.ok()) reader_failures.fetch_add(1, std::memory_order_relaxed);
    }
  });

  publisher.join();
  reader.join();
  EXPECT_EQ(publish_failures.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  // The queued query finally runs: its snapshot survived every publish.
  auto queued = (*db)->Query("SELECT COUNT(*) FROM F", {}, queued_pin);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(queued->stats.epoch, queued_epoch);
  EXPECT_EQ(queued->table->GetValue(0, 0).int64(), files_before);

  // Dropping the last pin retires the (long superseded) queued epoch.
  const uint64_t retired_before = (*db)->epochs_retired();
  queued_pin.reset();
  EXPECT_EQ((*db)->epochs_retired(), retired_before + 1);
  auto latest = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->table->GetValue(0, 0).int64(),
            files_before + kPublishes);
}

TEST(RefreshTest, ConcurrentRefreshAndPinnedQueriesAreIsolated) {
  ScopedRepo repo("refresh_epoch_race", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto before = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(before.ok());
  const int64_t files_before = before->table->GetValue(0, 0).int64();

  // Reader thread: queries pinned to the pre-refresh epoch, racing the
  // refresh publishes below. Every result must be the pre-refresh count.
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  EpochPtr pinned = (*db)->PinEpoch();
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = (*db)->Query("SELECT COUNT(*) FROM F", {}, pinned);
      if (!r.ok() || r->table->GetValue(0, 0).int64() != files_before) {
        reader_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Writer (this thread): three refreshes, each adding a file, racing the
  // reader. Unpinned queries between them track the moving latest epoch.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(mseed::WriteFile(
                    repo.root() + "/NEW/OR.NEW.BHE.00" + std::to_string(i) +
                        ".mseed",
                    {NewRecord("NEWSTA", 1262304000000LL + i * 86400000LL, 10)})
                    .ok());
    auto r = (*db)->Refresh();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto latest = (*db)->Query("SELECT COUNT(*) FROM F");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest->table->GetValue(0, 0).int64(), files_before + i + 1);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
}

}  // namespace
}  // namespace dex

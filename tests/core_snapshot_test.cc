// Tests for the "instant-on" metadata snapshot: serialization roundtrip,
// corruption detection, reconciliation against a changed repository, and the
// Database-level integration.

#include "core/metadata_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.h"
#include "core/stage1_scan.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

mseed::ScanResult ScanOf(const std::string& root) {
  auto scan = MseedAdapter().ScanRepository(root);
  EXPECT_TRUE(scan.ok());
  return scan.ValueOr({});
}

TEST(SnapshotTest, SaveLoadRoundtrip) {
  ScopedRepo repo("snapshot_roundtrip", TinyRepoOptions());
  const mseed::ScanResult scan = ScanOf(repo.root());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(scan, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->files.size(), scan.files.size());
  ASSERT_EQ(loaded->records.size(), scan.records.size());
  EXPECT_EQ(loaded->total_bytes, scan.total_bytes);
  for (size_t i = 0; i < scan.files.size(); ++i) {
    EXPECT_EQ(loaded->files[i].uri, scan.files[i].uri);
    EXPECT_EQ(loaded->files[i].station, scan.files[i].station);
    EXPECT_EQ(loaded->files[i].mtime_ms, scan.files[i].mtime_ms);
    EXPECT_EQ(loaded->files[i].size_bytes, scan.files[i].size_bytes);
  }
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].uri, scan.records[i].uri);
    EXPECT_EQ(loaded->records[i].start_time_ms, scan.records[i].start_time_ms);
    EXPECT_EQ(loaded->records[i].num_samples, scan.records[i].num_samples);
    EXPECT_EQ(loaded->records[i].data_offset, scan.records[i].data_offset);
  }
}

TEST(SnapshotTest, EmptyScanRoundtrips) {
  const std::string path = "/tmp/dex_snapshot_empty.snap";
  ASSERT_TRUE(SaveSnapshot(mseed::ScanResult{}, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->files.empty());
  EXPECT_TRUE(loaded->records.empty());
  (void)RemoveDirRecursive(path);
}

TEST(SnapshotTest, CorruptionDetected) {
  ScopedRepo repo("snapshot_corrupt", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  // Bad magic.
  std::string bad = data;
  bad[0] = 'X';
  ASSERT_TRUE(WriteStringToFile(path, bad).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
  // Truncation.
  ASSERT_TRUE(WriteStringToFile(path, data.substr(0, data.size() / 2)).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
  // Trailing garbage.
  ASSERT_TRUE(WriteStringToFile(path, data + "zzz").ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
}

TEST(SnapshotTest, BitFlipAnywhereIsDetected) {
  ScopedRepo repo("snapshot_bitflip", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  ASSERT_TRUE(LoadSnapshot(path).ok());
  // Flip one bit at a sweep of offsets covering the whole payload including
  // the trailing checksum itself. Every single flip must be rejected — this
  // is exactly what the per-field length checks alone could NOT guarantee.
  const size_t step = std::max<size_t>(1, data.size() / 97);
  for (size_t off = 0; off < data.size(); off += step) {
    std::string bad = data;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());
    EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption())
        << "bit flip at offset " << off << " was not detected";
  }
}

TEST(SnapshotTest, TruncationAtEveryLengthIsDetected) {
  ScopedRepo repo("snapshot_trunc", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  const size_t step = std::max<size_t>(1, data.size() / 97);
  for (size_t len = 0; len < data.size(); len += step) {
    ASSERT_TRUE(WriteStringToFile(path, data.substr(0, len)).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok())
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(SnapshotTest, V1SnapshotRejectedAsStale) {
  // A previous-format snapshot (magic DXSNAP01, no trailing checksum) must
  // be rejected — Database::Open then falls back to a clean full rescan and
  // rewrites the snapshot in the current format.
  ScopedRepo repo("snapshot_v1", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  data[7] = '1';  // "DXSNAP02" -> "DXSNAP01"
  ASSERT_TRUE(WriteStringToFile(path, data).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());

  DatabaseOptions opts;
  opts.metadata_snapshot_path = path;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused, 0u);  // full rescan
  auto reloaded = LoadSnapshot(path);  // rewritten in the v2 format
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->files.size(), (*db)->open_stats().num_files);
}

// Reconciles `root` against a snapshot `baseline` the way Open() does: one
// stage-1 scan over a fresh registry.
Result<mseed::ScanResult> Reconcile(const std::string& root,
                                    const mseed::ScanResult& baseline,
                                    Stage1Stats* stats) {
  SimDisk disk{SimDisk::Options{}};
  FileRegistry registry(&disk);
  MseedAdapter format;
  Stage1Scanner scanner(&format, &registry);
  Stage1Options options;
  options.num_threads = 1;
  return scanner.Scan(root, &baseline, options, stats);
}

TEST(SnapshotTest, ReconcileReusesUnchangedFiles) {
  ScopedRepo repo("snapshot_reconcile", TinyRepoOptions());
  const mseed::ScanResult baseline = ScanOf(repo.root());
  Stage1Stats stats;
  auto current = Reconcile(repo.root(), baseline, &stats);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(stats.files_reused, baseline.files.size());
  EXPECT_EQ(stats.files_scanned, 0u);
  EXPECT_EQ(stats.files_removed, 0u);
  EXPECT_EQ(current->records.size(), baseline.records.size());
}

TEST(SnapshotTest, ReconcilePicksUpNewAndRemovedFiles) {
  ScopedRepo repo("snapshot_churn", TinyRepoOptions());
  const mseed::ScanResult baseline = ScanOf(repo.root());
  // Remove one file, add another.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(RemoveDirRecursive((*files)[0]).ok());
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "ADD";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 0;
  rec.sample_rate_hz = 1.0;
  rec.samples = {1, 2, 3};
  ASSERT_TRUE(
      mseed::WriteFile(repo.root() + "/ADD/new.mseed", {rec}).ok());

  Stage1Stats stats;
  auto current = Reconcile(repo.root(), baseline, &stats);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(stats.files_reused, baseline.files.size() - 1);
  EXPECT_EQ(stats.files_scanned, 1u);  // the new file
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_EQ(current->files.size(), baseline.files.size());
}

TEST(SnapshotTest, DatabaseInstantOnReusesSnapshot) {
  ScopedRepo repo("snapshot_db", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";

  // First open: full scan, snapshot written.
  auto first = Database::Open(repo.root(), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->open_stats().snapshot_files_reused, 0u);
  EXPECT_TRUE(FileExists(opts.metadata_snapshot_path));
  const auto count1 = (*first)->Query("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(count1.ok());

  // Second open: everything reused, identical metadata.
  auto second = Database::Open(repo.root(), opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->open_stats().snapshot_files_reused,
            (*second)->open_stats().num_files);
  const auto count2 = (*second)->Query("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(count2.ok());
  EXPECT_EQ(count1->table->GetValue(0, 0).int64(),
            count2->table->GetValue(0, 0).int64());
  // Actual data still mounts correctly from reused metadata.
  auto data = (*second)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND F.channel = 'BHE'");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_GT(data->table->GetValue(0, 0).int64(), 0);
}

TEST(SnapshotTest, DatabaseFallsBackOnCorruptSnapshot) {
  ScopedRepo repo("snapshot_db_corrupt", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";
  ASSERT_TRUE(WriteStringToFile(opts.metadata_snapshot_path, "garbage").ok());
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused, 0u);
  EXPECT_EQ((*db)->open_stats().num_files, 8u);
  // The bad snapshot was replaced with a valid one.
  EXPECT_TRUE(LoadSnapshot(opts.metadata_snapshot_path).ok());
}

TEST(SnapshotTest, DatabaseSnapshotSeesChangedFile) {
  ScopedRepo repo("snapshot_db_changed", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";
  {
    auto warm = Database::Open(repo.root(), opts);
    ASSERT_TRUE(warm.ok());
  }
  // Rewrite one file with a single 5-sample record.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 0;
  rec.sample_rate_hz = 1.0;
  rec.samples = {1, 2, 3, 4, 5};
  ASSERT_TRUE(mseed::WriteFile((*files)[0], {rec}).ok());

  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused,
            (*db)->open_stats().num_files - 1);
  auto r = (*db)->Query(
      "SELECT COUNT(*) FROM R WHERE R.n_samples = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 1);
}

}  // namespace
}  // namespace dex

// Fault-tolerant lazy ingestion: injected I/O faults, retry/backoff, file
// quarantine, and the QUARANTINE metadata table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/seismic_schema.h"
#include "io/file_io.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

/// 100 files: 5 stations x 5 channels x 4 days.
mseed::GeneratorOptions HundredFileRepo() {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 5;
  gen.channels_per_station = 5;
  gen.num_days = 4;
  return gen;
}

const char* kCountAll = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";
const char* kPerStation =
    "SELECT F.station, AVG(D.sample_value), COUNT(*) "
    "FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station ORDER BY F.station";

TEST(FaultTolerance, TransientFaultsAreInvisibleUnderRetry) {
  ScopedRepo repo("ft_transient", HundredFileRepo());

  auto clean = Database::Open(repo.root(), {});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  DatabaseOptions faulty_opts;
  faulty_opts.disk.faults.seed = 42;
  faulty_opts.disk.faults.transient_error_rate = 0.01;  // 1% of disk reads
  auto faulty = Database::Open(repo.root(), faulty_opts);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ((*faulty)->registry()->size(), 100u);

  for (const char* sql : {kCountAll, kPerStation}) {
    auto c = (*clean)->Query(sql);
    auto f = (*faulty)->Query(sql);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_EQ(CanonicalRows(*c->table), CanonicalRows(*f->table)) << sql;
    EXPECT_EQ(f->stats.mount.files_failed, 0u) << sql;
    EXPECT_EQ(f->stats.mount.files_skipped, 0u) << sql;
  }
  // Nothing was quarantined: transient faults are absorbed, not punished.
  auto q = (*faulty)->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->table->GetValue(0, 0).int64(), 0);
}

TEST(FaultTolerance, RetriesAreCountedAndChargedAsSimulatedTime) {
  ScopedRepo repo("ft_retry", HundredFileRepo());
  DatabaseOptions opts;
  opts.disk.faults.seed = 7;
  opts.disk.faults.transient_error_rate = 0.10;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The stage-1 scan retried its header reads to success and left the files'
  // pages resident; flush so the mounts face the faulty medium cold.
  (*db)->FlushBuffers();

  auto r = (*db)->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 100 cold file reads at 10% failure: some retries must have happened,
  // and every one of them succeeded within the budget.
  EXPECT_GT(r->stats.mount.read_retries, 0u);
  EXPECT_EQ(r->stats.mount.files_failed, 0u);
  EXPECT_EQ(r->stats.mount.mounts, 100u);

  // Backoff is simulated wall time: with the default 2ms base, each retry
  // charges at least 2ms to the simulated medium.
  EXPECT_GE(r->stats.sim_io_nanos, r->stats.mount.read_retries * 2'000'000ull);
}

TEST(FaultTolerance, LatencySpikesChargeSimulatedTime) {
  ScopedRepo repo("ft_latency");
  DatabaseOptions opts;
  opts.disk.faults.seed = 3;
  opts.disk.faults.latency_spike_rate = 1.0;  // every disk read spikes
  opts.disk.faults.latency_spike_millis = 5.0;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto r = (*db)->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stats = (*db)->disk()->fault_injector()->stats();
  EXPECT_GT(stats.latency_spikes, 0u);
  EXPECT_GT(stats.spike_nanos, 0u);
  // The injected delay is part of the reported query I/O (spikes during
  // Open() are charged to OpenStats instead).
  EXPECT_GT((*db)->disk()->stats().sim_nanos, stats.spike_nanos);
}

TEST(FaultTolerance, PermanentFailuresQuarantineAndDegrade) {
  ScopedRepo repo("ft_permanent", HundredFileRepo());
  auto opened = Database::Open(repo.root(), {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database* db = opened->get();

  auto baseline = db->Query(kCountAll);
  ASSERT_TRUE(baseline.ok());
  const int64_t total = baseline->table->GetValue(0, 0).int64();

  // Three files go permanently bad (disk sectors died under them).
  std::vector<std::string> uris = db->registry()->AllUris();
  ASSERT_GE(uris.size(), 3u);
  std::vector<std::string> victims(uris.begin(), uris.begin() + 3);
  int64_t lost_rows = 0;
  for (const std::string& uri : victims) {
    auto q = db->Query(
        "SELECT COUNT(*) FROM D WHERE D.uri = '" + uri + "'");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    lost_rows += q->table->GetValue(0, 0).int64();
  }
  // Fail all three only after the baseline counts, so no victim gets
  // quarantined by a baseline query touching the others.
  for (const std::string& uri : victims) {
    auto entry = db->registry()->Get(uri);
    ASSERT_TRUE(entry.ok());
    db->disk()->fault_injector()->FailObject(entry->object);
  }
  ASSERT_GT(lost_rows, 0);
  db->FlushBuffers();  // force the next mounts back onto the (bad) medium

  // The query degrades gracefully: partial result, 3 failures, warnings.
  auto degraded = db->Query(kCountAll);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->stats.mount.files_failed, 3u);
  EXPECT_EQ(degraded->table->GetValue(0, 0).int64(), total - lost_rows);
  EXPECT_GE(degraded->stats.warnings.size(), 3u);

  // Exactly the three victims are queryable in QUARANTINE.
  auto qcount = db->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(qcount.ok()) << qcount.status().ToString();
  EXPECT_EQ(qcount->table->GetValue(0, 0).int64(), 3);
  auto qrows = db->Query("SELECT QUARANTINE.uri FROM QUARANTINE");
  ASSERT_TRUE(qrows.ok()) << qrows.status().ToString();
  std::vector<std::string> quarantined;
  for (size_t i = 0; i < qrows->table->num_rows(); ++i) {
    quarantined.push_back(qrows->table->GetValue(i, 0).str());
  }
  std::sort(quarantined.begin(), quarantined.end());
  std::vector<std::string> expected = victims;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(quarantined, expected);

  // Quarantined files are never re-selected as files of interest: the rerun
  // mounts nothing bad, wastes no retries on it, and reports no failure.
  auto rerun = db->Query(kCountAll);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->stats.mount.files_failed, 0u);
  EXPECT_EQ(rerun->stats.mount.read_retries, 0u);
  EXPECT_EQ(rerun->stats.two_stage.files_quarantined, 3u);
  EXPECT_EQ(rerun->table->GetValue(0, 0).int64(), total - lost_rows);
}

TEST(FaultTolerance, KFailPropagatesPermanentFault) {
  ScopedRepo repo("ft_kfail");
  DatabaseOptions strict;
  strict.two_stage.on_mount_error = OnMountError::kFail;
  auto db = Database::Open(repo.root(), strict);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const std::vector<std::string> uris = (*db)->registry()->AllUris();
  ASSERT_FALSE(uris.empty());
  auto entry = (*db)->registry()->Get(uris[0]);
  ASSERT_TRUE(entry.ok());
  (*db)->disk()->fault_injector()->FailObject(entry->object);
  (*db)->FlushBuffers();

  auto r = (*db)->Query(kCountAll);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST(FaultTolerance, HealedObjectLeavesQuarantineOnUpdate) {
  ScopedRepo repo("ft_heal");
  auto opened = Database::Open(repo.root(), {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database* db = opened->get();

  const std::vector<std::string> uris = db->registry()->AllUris();
  auto entry = db->registry()->Get(uris[0]);
  ASSERT_TRUE(entry.ok());
  db->disk()->fault_injector()->FailObject(entry->object);
  db->FlushBuffers();
  ASSERT_TRUE(db->Query(kCountAll).ok());
  EXPECT_TRUE(db->registry()->IsQuarantined(uris[0]));

  // The medium recovers and the file is touched (fresh mtime): Refresh's
  // Update path rehabilitates it.
  db->disk()->fault_injector()->HealObject(entry->object);
  std::string image;
  ASSERT_TRUE(ReadFileToString(uris[0], &image).ok());
  ASSERT_TRUE(WriteStringToFile(uris[0], image).ok());
  ASSERT_TRUE(
      db->registry()->Update(uris[0], image.size(), entry->mtime_ms + 1).ok());
  EXPECT_FALSE(db->registry()->IsQuarantined(uris[0]));

  auto after = db->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->table->GetValue(0, 0).int64(), 0);
}

TEST(FaultTolerance, SkipFilePolicyDropsCorruptFileWithoutQuarantine) {
  ScopedRepo repo("ft_skipfile");
  DatabaseOptions opts;
  opts.two_stage.on_mount_error = OnMountError::kSkipFile;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const std::vector<std::string> uris = (*db)->registry()->AllUris();
  std::string image;
  ASSERT_TRUE(ReadFileToString(uris[0], &image).ok());
  image[70] = static_cast<char>(image[70] ^ 0x7f);  // damage first payload
  ASSERT_TRUE(WriteStringToFile(uris[0], image).ok());

  auto r = (*db)->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.mount.files_skipped, 1u);
  EXPECT_EQ(r->stats.mount.files_failed, 0u);
  ASSERT_FALSE(r->stats.warnings.empty());
  EXPECT_NE(r->stats.warnings[0].find(uris[0]), std::string::npos);

  // Corrupt-but-readable files are NOT quarantined: kSalvage could still
  // recover from them, and the operator may repair the bytes in place.
  auto q = (*db)->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->table->GetValue(0, 0).int64(), 0);
}

TEST(FaultTolerance, SalvagePolicyRecoversRecordsPastCorruption) {
  ScopedRepo repo("ft_salvage");
  auto clean = Database::Open(repo.root(), {});
  ASSERT_TRUE(clean.ok());
  auto baseline = (*clean)->Query(kCountAll);
  ASSERT_TRUE(baseline.ok());
  const int64_t total = baseline->table->GetValue(0, 0).int64();

  // Damage the first record's payload of one file, then open fresh (the
  // default policy is kSalvage).
  const std::vector<std::string> uris = (*clean)->registry()->AllUris();
  std::string image;
  ASSERT_TRUE(ReadFileToString(uris[0], &image).ok());
  image[70] = static_cast<char>(image[70] ^ 0x7f);
  ASSERT_TRUE(WriteStringToFile(uris[0], image).ok());

  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto r = (*db)->Query(kCountAll);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.mount.records_skipped, 1u);
  EXPECT_GT(r->stats.mount.records_salvaged, 0u);
  EXPECT_EQ(r->stats.mount.files_failed, 0u);
  EXPECT_EQ(r->stats.mount.files_skipped, 0u);
  // Only the one corrupt record's samples are missing.
  EXPECT_LT(r->table->GetValue(0, 0).int64(), total);
  ASSERT_FALSE(r->stats.warnings.empty());
  EXPECT_NE(r->stats.warnings[0].find(uris[0]), std::string::npos);

  // Salvaged-with-losses files are never cached, and are not quarantined.
  auto q = (*db)->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->table->GetValue(0, 0).int64(), 0);
}

TEST(FaultTolerance, InjectorIsDeterministicPerSeed) {
  ScopedRepo repo("ft_seed", HundredFileRepo());
  auto run = [&](uint64_t seed) {
    DatabaseOptions opts;
    opts.disk.faults.seed = seed;
    opts.disk.faults.transient_error_rate = 0.10;
    auto db = Database::Open(repo.root(), opts);
    EXPECT_TRUE(db.ok());
    auto r = (*db)->Query(kCountAll);
    EXPECT_TRUE(r.ok());
    return (*db)->disk()->fault_injector()->stats().transient_faults;
  };
  const uint64_t a = run(99);
  EXPECT_EQ(a, run(99)) << "same seed, same fault schedule";
  EXPECT_NE(a, run(100)) << "different seed, different schedule";
}

}  // namespace
}  // namespace dex

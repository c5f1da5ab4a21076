// Tests for gap/overlap coverage analysis (paper §5 "analyzed data" derived
// metadata): detection correctness on crafted streams and SQL queryability.

#include "core/coverage.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

mseed::RecordData Rec(const std::string& station, const std::string& channel,
                      int64_t start_ms, int samples, double rate = 1.0) {
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = station;
  rec.channel = channel;
  rec.location = "00";
  rec.start_time_ms = start_ms;
  rec.sample_rate_hz = rate;
  for (int i = 0; i < samples; ++i) rec.samples.push_back(i);
  return rec;
}

class CoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: parallel ctest runs each test in its own process.
    dir_ = "/tmp/dex_coverage_test_" + std::to_string(::getpid());
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::unique_ptr<Database> OpenRepo() {
    auto db = Database::Open(dir_, {});
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  std::string dir_;
};

TEST_F(CoverageTest, ContiguousStreamHasNoGapsOrOverlaps) {
  // Two records, the second starting exactly one interval after the first
  // record's last sample: 0..9s then 10..19s at 1 Hz.
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/a.mseed",
                               {Rec("ISK", "BHE", 0, 10),
                                Rec("ISK", "BHE", 10000, 10)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto stats = db->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->streams, 1u);
  EXPECT_EQ(stats->gaps, 0u);
  EXPECT_EQ(stats->overlaps, 0u);
}

TEST_F(CoverageTest, GapDetectedAndMeasured) {
  // 0..9s, then nothing until 60s: a gap from 10s to 60s (50s long).
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/a.mseed",
                               {Rec("ISK", "BHE", 0, 10),
                                Rec("ISK", "BHE", 60000, 10)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto stats = db->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->gaps, 1u);
  EXPECT_EQ(stats->total_gap_ms, 50000);
  // Queryable through SQL, stage 1 only.
  auto r = db->Query(
      "SELECT GAPS.station, GAPS.duration_ms FROM GAPS "
      "WHERE GAPS.duration_ms > 10000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table->num_rows(), 1u);
  EXPECT_EQ(r->table->GetValue(0, 0).str(), "ISK");
  EXPECT_EQ(r->table->GetValue(0, 1).int64(), 50000);
  EXPECT_TRUE(r->stats.two_stage.stage1_only);
}

TEST_F(CoverageTest, OverlapDetected) {
  // 0..99s and 50..149s at 1 Hz: overlap from 50s to 99s.
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/a.mseed",
                               {Rec("ISK", "BHE", 0, 100),
                                Rec("ISK", "BHE", 50000, 100)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto stats = db->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->overlaps, 1u);
  EXPECT_EQ(stats->total_overlap_ms, 49000);  // 50s..99s inclusive ends
  auto r = db->Query("SELECT COUNT(*) FROM OVERLAPS");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 1);
}

TEST_F(CoverageTest, StreamsAreIndependent) {
  // A gap in ISK/BHE must not involve ANK/BHE records that fill the time.
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/isk.mseed",
                               {Rec("ISK", "BHE", 0, 10),
                                Rec("ISK", "BHE", 60000, 10)})
                  .ok());
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/ank.mseed",
                               {Rec("ANK", "BHE", 0, 200)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto stats = db->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->streams, 2u);
  EXPECT_EQ(stats->gaps, 1u);
}

TEST_F(CoverageTest, MultiDayStreamAcrossFiles) {
  // Records of the same stream spread over two files still form one stream.
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/day1.mseed",
                               {Rec("ISK", "BHE", 0, 10)}).ok());
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/day2.mseed",
                               {Rec("ISK", "BHE", 100000, 10)}).ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto stats = db->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->streams, 1u);
  EXPECT_EQ(stats->gaps, 1u);  // 10s..100s
}

TEST_F(CoverageTest, RerunReplacesTables) {
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/a.mseed",
                               {Rec("ISK", "BHE", 0, 10),
                                Rec("ISK", "BHE", 60000, 10)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->AnalyzeCoverage().ok());
  ASSERT_TRUE(db->AnalyzeCoverage().ok());  // second run must not fail
  auto r = db->Query("SELECT COUNT(*) FROM GAPS");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 1);
}

// Coverage derives from the epoch's F and R: after a Refresh that adds one
// file and removes another it equals what a fresh Open derives.
TEST_F(CoverageTest, RefreshMatchesAFreshOpen) {
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/isk.mseed",
                               {Rec("ISK", "BHE", 0, 10),
                                Rec("ISK", "BHE", 60000, 10)})
                  .ok());
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/ank.mseed",
                               {Rec("ANK", "BHE", 0, 100),
                                Rec("ANK", "BHE", 50000, 100)})
                  .ok());
  auto db = OpenRepo();
  ASSERT_NE(db, nullptr);
  auto before = db->AnalyzeCoverage();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->overlaps, 1u);

  // A second ISK/BHE day with a gap before it arrives; ANK's file goes.
  ASSERT_TRUE(mseed::WriteFile(dir_ + "/isk2.mseed",
                               {Rec("ISK", "BHE", 200000, 10),
                                Rec("ISK", "BHE", 210000, 10)})
                  .ok());
  ASSERT_TRUE(RemoveDirRecursive(dir_ + "/ank.mseed").ok());
  auto refreshed = db->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_EQ(refreshed->files_added, 1u);
  ASSERT_EQ(refreshed->files_removed, 1u);
  auto after = db->AnalyzeCoverage();
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  auto fresh = OpenRepo();
  ASSERT_NE(fresh, nullptr);
  auto expected = fresh->AnalyzeCoverage();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->streams, 1u);
  EXPECT_EQ(expected->gaps, 2u);
  EXPECT_EQ(expected->overlaps, 0u);
  EXPECT_EQ(after->streams, expected->streams);
  EXPECT_EQ(after->gaps, expected->gaps);
  EXPECT_EQ(after->overlaps, expected->overlaps);
  EXPECT_EQ(after->total_gap_ms, expected->total_gap_ms);
  EXPECT_EQ(after->total_overlap_ms, expected->total_overlap_ms);
  for (const char* table : {"GAPS", "OVERLAPS"}) {
    const std::string sql = std::string("SELECT * FROM ") + table;
    auto got = db->Query(sql);
    auto want = fresh->Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->table->ToString(1u << 20), want->table->ToString(1u << 20))
        << table;
  }
}

TEST_F(CoverageTest, GeneratorGapsAreFound) {
  ScopedRepo repo("coverage_generated", [] {
    auto gen = TinyRepoOptions();
    gen.gap_probability = 0.4;
    gen.num_days = 3;
    return gen;
  }());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto stats = (*db)->AnalyzeCoverage();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->gaps, 0u) << "40% record gap probability must show up";
  EXPECT_EQ(stats->overlaps, 0u) << "the generator never overlaps records";
  // Gap summary by stream in plain SQL.
  auto r = (*db)->Query(
      "SELECT GAPS.station, GAPS.channel, COUNT(*) AS n, "
      "SUM(GAPS.duration_ms) AS total_ms FROM GAPS "
      "GROUP BY GAPS.station, GAPS.channel ORDER BY total_ms DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->table->num_rows(), 0u);
}

}  // namespace
}  // namespace dex

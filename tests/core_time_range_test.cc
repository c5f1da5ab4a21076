// Time windows as row ranges. In kernel mode a bound on D.sample_time
// resolves through the record-run index of a mounted D table into row
// ranges, so a cache-scan streams and a select-mount copies only the rows
// inside the window. The kernels-off path, the expression interpreter over
// every row, is the oracle: every case runs both ways on both per-file
// access paths and must return the same rows. ExecStats::range_skipped_rows
// tells which path ran.
//
// Also here: a record header whose sample times are undefined (rate 0 or
// NaN, a rate so small that the record's span overflows, a start near the
// int64 limit) is corrupt, so Open quarantines its file instead of serving
// wrapped-around times.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/format_adapter.h"
#include "csvf/csv_format.h"
#include "io/file_io.h"
#include "mseed/writer.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::RowStrings;

constexpr int64_t kBase = 1262304000000;  // 2010-01-01T00:00:00Z

std::string At(int64_t offset_ms) { return std::to_string(kBase + offset_ms); }

/// A record of `n` samples whose values are `first`, `first + 1`, ...
mseed::RecordData Rec(const std::string& station, const std::string& channel,
                      int64_t offset_ms, double rate, int n, int32_t first) {
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = station;
  rec.channel = channel;
  rec.location = "00";
  rec.start_time_ms = kBase + offset_ms;
  rec.sample_rate_hz = rate;
  for (int i = 0; i < n; ++i) rec.samples.push_back(first + i);
  return rec;
}

/// Writes the corpus: records at 0.125, 1 and 40 Hz, a gap between records,
/// out-of-order and overlapping records in one file, and a file whose value
/// zones let a value bound skip whole records and single Steim frames.
/// Returns the number of samples written.
size_t WriteCorpus(const std::string& dir) {
  // A quiet record (zone-skipped under `sample_value > 500`), then one whose
  // first frames are quiet and whose last ones are loud (frame-skipped).
  mseed::RecordData loud = Rec("ANK", "BHZ", 200000, 1.0, 400, 0);
  for (size_t i = 200; i < loud.samples.size(); ++i) loud.samples[i] += 1000;
  const std::vector<std::pair<std::string, std::vector<mseed::RecordData>>>
      files = {
          // 1 Hz: two adjacent records, then a gap to 60 s.
          {"isk_bhe.mseed",
           {Rec("ISK", "BHE", 0, 1.0, 10, 0),
            Rec("ISK", "BHE", 10000, 1.0, 10, 100),
            Rec("ISK", "BHE", 60000, 1.0, 10, 200)}},
          // 40 Hz: 25 ms steps.
          {"isk_bhn.mseed",
           {Rec("ISK", "BHN", 0, 40.0, 40, 0),
            Rec("ISK", "BHN", 1000, 40.0, 40, 100)}},
          // 0.125 Hz: 8 s steps.
          {"isk_bhz.mseed",
           {Rec("ISK", "BHZ", 0, 0.125, 5, 0),
            Rec("ISK", "BHZ", 40000, 0.125, 5, 100)}},
          // Out of order, and the third record overlaps the second.
          {"ank_bhe.mseed",
           {Rec("ANK", "BHE", 50000, 1.0, 10, 0),
            Rec("ANK", "BHE", 0, 1.0, 10, 100),
            Rec("ANK", "BHE", 5000, 1.0, 10, 200)}},
          {"ank_bhz.mseed", {Rec("ANK", "BHZ", 0, 1.0, 200, 0), loud}},
      };
  size_t samples = 0;
  for (const auto& [name, records] : files) {
    for (const mseed::RecordData& r : records) samples += r.samples.size();
    EXPECT_TRUE(mseed::WriteFile(dir + "/" + name, records).ok()) << name;
  }
  return samples;
}

/// What the kernel-mode run must report in range_skipped_rows.
enum class Skips {
  kExact,      // every row outside the window: total - result rows
  kRestricts,  // some rows, at most total - result rows
  kNone,       // no range restriction: 0
};

struct WindowCase {
  const char* name;
  std::string where;
  Skips skips;
};

/// `D.sample_time <lo_op> lo AND D.sample_time <hi_op> hi`, in ms from kBase.
std::string Window(const char* lo_op, int64_t lo, const char* hi_op,
                   int64_t hi) {
  return std::string("D.sample_time ") + lo_op + " " + At(lo) +
         " AND D.sample_time " + hi_op + " " + At(hi);
}

std::vector<WindowCase> Cases() {
  const std::string t = "D.sample_time ";
  return {
      {"first_sample_eq", t + "= " + At(0), Skips::kExact},
      {"record_edges_inclusive", Window(">=", 0, "<=", 9000), Skips::kExact},
      {"record_edges_strict", Window(">", 0, "<", 9000), Skips::kExact},
      {"edges_minus_one", Window(">=", -1, "<=", 8999), Skips::kExact},
      {"edges_plus_one", Window(">=", 1, "<=", 9001), Skips::kExact},
      {"between_across_records",
       t + "BETWEEN " + At(9000) + " AND " + At(10000), Skips::kExact},
      {"across_gap", Window(">=", 15000, "<", 65000), Skips::kExact},
      {"touches_no_record", Window(">=", 1000000, "<", 2000000),
       Skips::kExact},
      {"lo_above_hi", Window(">=", 5000, "<=", 4000), Skips::kExact},
      {"forty_hz_steps", Window(">=", 25, "<", 100), Skips::kExact},
      {"forty_hz_edges", Window(">", 974, "<=", 1001), Skips::kExact},
      {"eighth_hz_steps", Window(">=", 8000, "<=", 32000), Skips::kExact},
      {"literal_on_the_left",
       At(5000) + " <= D.sample_time AND " + At(7000) + " > D.sample_time",
       Skips::kExact},
      {"int64_max_inclusive", t + "<= 9223372036854775807", Skips::kExact},
      {"int64_max_strict", t + "> 9223372036854775807", Skips::kExact},
      {"int64_min_inclusive", t + ">= -9223372036854775807 - 1",
       Skips::kExact},
      {"int64_min_strict", t + "< -9223372036854775807 - 1", Skips::kExact},
      {"window_with_value_residual",
       Window(">=", 0, "<", 20000) + " AND D.sample_value > 4",
       Skips::kRestricts},
      {"window_with_not_equal",
       Window(">=", 0, "<", 20000) + " AND " + t + "<> " + At(3000),
       Skips::kRestricts},
      {"sparse_records_value_and_window",
       "D.sample_value > 500 AND " + Window(">=", 0, "<", 500000),
       Skips::kRestricts},
      {"not_equal_only", t + "<> " + At(3000), Skips::kNone},
      {"or_never_restricts",
       t + "< " + At(1000) + " OR " + t + "> " + At(60000), Skips::kNone},
  };
}

/// One access path: select-mounts (no cache) or cache-scans (every file
/// cached whole by a warm-up query), optionally in ingestion batches.
struct AccessPath {
  const char* name;
  bool cached;
  size_t mount_batch_size;
};

// Names the parameter in test listings (the default prints its raw bytes).
void PrintTo(const AccessPath& path, std::ostream* os) { *os << path.name; }

class TimeRangeCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/dex_time_range_test_" + std::to_string(::getpid());
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    total_samples_ = WriteCorpus(dir_);
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::string dir_;
  size_t total_samples_ = 0;
};

class TimeRangeTest : public TimeRangeCorpus,
                      public ::testing::WithParamInterface<AccessPath> {};

QueryOptions Kernels(bool on) {
  QueryOptions q;
  q.pruning = PruningOptions{};
  q.pruning->use_simd_kernels = on;
  return q;
}

TEST_P(TimeRangeTest, KernelRangesEqualTheInterpreterRowForRow) {
  const AccessPath path = GetParam();
  DatabaseOptions options;
  options.two_stage.mount_batch_size = path.mount_batch_size;
  if (path.cached) options.cache.policy = CachePolicy::kAll;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Caches every file whole on the cache-scan path; harvests the value and
  // frame zones that let `sample_value > 500` skip on the mount path.
  auto warm = (*db)->Query("SELECT COUNT(*) FROM D");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->table->GetValue(0, 0).int64(),
            static_cast<int64_t>(total_samples_));

  for (const WindowCase& c : Cases()) {
    SCOPED_TRACE(std::string(path.name) + " / " + c.name + ": " + c.where);
    const std::string sql =
        "SELECT D.uri, D.record_id, D.sample_time, D.sample_value FROM D "
        "WHERE " + c.where;
    auto off = (*db)->Query(sql, Kernels(false));
    auto on = (*db)->Query(sql, Kernels(true));
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    EXPECT_EQ(RowStrings(*on->table), RowStrings(*off->table));

    const TwoStageStats& ts = on->stats.two_stage;
    EXPECT_EQ(off->stats.two_stage.exec.range_skipped_rows, 0u);
    if (path.cached) {
      EXPECT_EQ(ts.mount.counters.mounts, 0u);
      EXPECT_EQ(ts.files_planned_cache, 5u);
    } else {
      EXPECT_EQ(ts.files_planned_cache, 0u);
      EXPECT_EQ(ts.mount.counters.mounts, 5u);
    }
    const uint64_t skipped = ts.exec.range_skipped_rows;
    const uint64_t outside = total_samples_ - on->table->num_rows();
    switch (c.skips) {
      case Skips::kExact:
        EXPECT_EQ(skipped, outside);
        break;
      case Skips::kRestricts:
        EXPECT_GT(skipped, 0u);
        EXPECT_LE(skipped, outside);
        break;
      case Skips::kNone:
        EXPECT_EQ(skipped, 0u);
        break;
    }
    if (!path.cached &&
        std::string(c.name) == "sparse_records_value_and_window") {
      // The table the window resolved against held zone-skipped records and
      // frame-skipped (sparse) ones.
      EXPECT_GT(ts.mount.counters.records_skipped_zonemap, 0u);
      EXPECT_GT(ts.mount.counters.frames_skipped_zonemap, 0u);
    }

    // The same window under stage-1 file selection and a join.
    const std::string joined =
        "SELECT F.channel, COUNT(*), MIN(D.sample_time), MAX(D.sample_time), "
        "SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND " + c.where +
        " GROUP BY F.channel ORDER BY F.channel";
    auto joff = (*db)->Query(joined, Kernels(false));
    auto jon = (*db)->Query(joined, Kernels(true));
    ASSERT_TRUE(joff.ok()) << joff.status().ToString();
    ASSERT_TRUE(jon.ok()) << jon.status().ToString();
    EXPECT_EQ(RowStrings(*jon->table), RowStrings(*joff->table));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AccessPaths, TimeRangeTest,
    ::testing::Values(AccessPath{"select_mount", false, 0},
                      AccessPath{"cache_scan", true, 0},
                      AccessPath{"select_mount_batched", false, 1},
                      AccessPath{"cache_scan_batched", true, 2}),
    [](const ::testing::TestParamInfo<AccessPath>& info) {
      return std::string(info.param.name);
    });

TEST_F(TimeRangeCorpus, ExplainAnalyzeCountsRangeRowsAtTheCacheScan) {
  DatabaseOptions options;
  options.cache.policy = CachePolicy::kAll;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Query("SELECT COUNT(*) FROM D").ok());
  obs::ScopedMetricsReset metrics_reset;
  // isk_bhe holds 30 rows; the window keeps its first record's 10.
  auto result = (*db)->Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.channel = 'BHE' AND F.station = 'ISK' AND " +
      Window(">=", 0, "<", 10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string text;
  for (size_t r = 0; r < result->table->num_rows(); ++r) {
    text += result->table->column(0)->GetString(r) + "\n";
  }
  const size_t scan = text.find("CacheScan(");
  ASSERT_NE(scan, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=10 ", scan), std::string::npos) << text;
  EXPECT_NE(text.find("20 rows skipped by time range"), std::string::npos)
      << text;
  EXPECT_EQ(obs::MetricsRegistry::Global().counter("kernel.range_skipped_rows"),
            20u);
}

// -- Headers whose sample times are undefined -------------------------------

struct BadHeader {
  const char* name;
  int64_t start_ms;
  double rate;
};

std::vector<BadHeader> BadHeaders() {
  return {
      {"rate_zero", kBase, 0.0},
      {"rate_nan", kBase, std::nan("")},
      {"rate_tiny", kBase, 1e-300},  // the span overflows int64
      {"start_near_int64_max", std::numeric_limits<int64_t>::max() - 5000, 1.0},
  };
}

/// Opens `dir` (one healthy file, one bad one) and checks that the bad file
/// is quarantined as corrupt and no query serves a time outside the healthy
/// file's [kBase, kBase + 9000].
void ExpectBadFileQuarantined(const std::string& dir, const std::string& bad,
                              FormatAdapter* format) {
  auto scan = format->ScanFile(bad);
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  auto db = Database::Open(dir, {});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->registry()->IsQuarantined(bad));
  auto reason = (*db)->Query(
      "SELECT QUARANTINE.reason FROM QUARANTINE WHERE QUARANTINE.uri = '" +
      bad + "'");
  ASSERT_TRUE(reason.ok()) << reason.status().ToString();
  ASSERT_EQ(reason->table->num_rows(), 1u);
  const std::string why = reason->table->GetValue(0, 0).str();
  EXPECT_TRUE(why.find("sample rate") != std::string::npos ||
              why.find("sample times") != std::string::npos)
      << why;
  for (bool kernels : {true, false}) {
    auto times = (*db)->Query(
        "SELECT COUNT(*), MIN(D.sample_time), MAX(D.sample_time) FROM D",
        Kernels(kernels));
    ASSERT_TRUE(times.ok()) << times.status().ToString();
    EXPECT_EQ(times->table->GetValue(0, 0).int64(), 10);
    EXPECT_EQ(times->table->GetValue(0, 1).int64(), kBase);
    EXPECT_EQ(times->table->GetValue(0, 2).int64(), kBase + 9000);
  }
}

class SampleTimeValidityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/dex_sample_time_validity_" + std::to_string(::getpid());
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::string dir_;
};

TEST_F(SampleTimeValidityTest, MseedHeaderWithUndefinedTimesIsQuarantined) {
  for (const BadHeader& h : BadHeaders()) {
    SCOPED_TRACE(h.name);
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(mseed::WriteFile(dir_ + "/good.mseed",
                                 {Rec("ISK", "BHE", 0, 1.0, 10, 0)})
                    .ok());
    mseed::RecordData bad = Rec("ANK", "BHE", 0, 1.0, 10, 0);
    bad.start_time_ms = h.start_ms;
    bad.sample_rate_hz = h.rate;
    const std::string bad_uri = dir_ + "/bad.mseed";
    ASSERT_TRUE(mseed::WriteFile(bad_uri, {bad}).ok());
    MseedAdapter format;
    ExpectBadFileQuarantined(dir_, bad_uri, &format);
  }
}

TEST_F(SampleTimeValidityTest, CsvHeaderWithUndefinedTimesIsQuarantined) {
  const std::vector<std::pair<const char*, std::string>> rates = {
      {"rate_zero", "0"}, {"rate_nan", "nan"}, {"rate_tiny", "1e-300"}};
  for (const auto& [name, rate] : rates) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(csvf::WriteCsvFile(dir_ + "/good" + csvf::kCsvExtension,
                                   {Rec("ISK", "BHE", 0, 1.0, 10, 0)})
                    .ok());
    const std::string bad_uri = dir_ + "/bad" + csvf::kCsvExtension;
    ASSERT_TRUE(WriteStringToFile(
                    bad_uri,
                    "# network=OR station=ANK channel=BHE location=00 "
                    "start=2010-01-01T00:00:00.000 rate=" +
                        rate + " samples=3\n1\n2\n3\n")
                    .ok());
    CsvAdapter format;
    ExpectBadFileQuarantined(dir_, bad_uri, &format);
  }
}

}  // namespace
}  // namespace dex

#include "core/mounter.h"

#include <gtest/gtest.h>

#include "core/seismic_schema.h"
#include "engine/kernel.h"
#include "mseed/reader.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

class MounterTest : public ::testing::Test {
 protected:
  MounterTest()
      : disk_(),
        catalog_(&disk_),
        registry_(&disk_),
        cache_(CacheManager::Options{CachePolicy::kAll,
                                     CacheGranularity::kFile, 1 << 30}) {
    dir_ = "/tmp/dex_mounter_test_" + std::to_string(::getpid());
    (void)RemoveDirRecursive(dir_);
    // One file with two records of known content.
    mseed::RecordData r0;
    r0.network = "OR";
    r0.station = "ISK";
    r0.channel = "BHE";
    r0.location = "00";
    r0.start_time_ms = 0;
    r0.sample_rate_hz = 1.0;  // 1000 ms spacing
    r0.samples = {10, 20, 30};
    mseed::RecordData r1 = r0;
    r1.start_time_ms = 100000;
    r1.samples = {-5, 0, 5, 10};
    uri_ = dir_ + "/test.mseed";
    EXPECT_TRUE(mseed::WriteFile(uri_, {r0, r1}).ok());
    EXPECT_TRUE(catalog_
                    .AddTable(std::make_shared<Table>(kDataTableName,
                                                      MakeDataSchema()),
                              TableKind::kActual)
                    .ok());
    auto size = FileSize(uri_);
    auto mtime = FileMtimeMillis(uri_);
    EXPECT_TRUE(size.ok());
    EXPECT_TRUE(mtime.ok());
    EXPECT_TRUE(registry_.Add(uri_, *size, *mtime).ok());
  }
  ~MounterTest() override { (void)RemoveDirRecursive(dir_); }

  SimDisk disk_;
  Catalog catalog_;
  FileRegistry registry_;
  CacheManager cache_;
  MseedAdapter format_;
  std::string dir_;
  std::string uri_;
};

TEST_F(MounterTest, MountExtractsAllSamples) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  Mounter::MountOutcome outcome;
  auto t = mounter.Mount(kDataTableName, uri_, nullptr, &outcome);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ((*t)->num_rows(), 7u);
  // Schema: uri, record_id, sample_time, sample_value.
  EXPECT_EQ((*t)->GetValue(0, 0).str(), uri_);
  EXPECT_EQ((*t)->GetValue(0, 1).int64(), 0);
  EXPECT_EQ((*t)->GetValue(0, 2).int64(), 0);
  EXPECT_DOUBLE_EQ((*t)->GetValue(0, 3).dbl(), 10.0);
  // Second record starts at record_id 1, t=100000, 1000ms spacing.
  EXPECT_EQ((*t)->GetValue(3, 1).int64(), 1);
  EXPECT_EQ((*t)->GetValue(4, 2).int64(), 101000);
  EXPECT_DOUBLE_EQ((*t)->GetValue(6, 3).dbl(), 10.0);
  EXPECT_EQ(outcome.counters.mounts, 1u);
  EXPECT_EQ(outcome.counters.records_decoded, 2u);
  EXPECT_EQ(outcome.counters.samples_decoded, 7u);
}

TEST_F(MounterTest, MountChargesSimulatedRead) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const uint64_t t0 = disk_.stats().sim_nanos;
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_GT(disk_.stats().sim_nanos, t0);
}

TEST_F(MounterTest, FusedPredicateFilters) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  auto t = mounter.Mount(kDataTableName, uri_, pred);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->num_rows(), 4u);  // 10, 20, 30, 10
}

TEST_F(MounterTest, FileGranularCacheStoresWholeFileDespiteFusedPredicate) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, pred).ok());
  auto mtime = FileMtimeMillis(uri_);
  ASSERT_TRUE(mtime.ok());
  ASSERT_TRUE(cache_.Probe(uri_, "", *mtime));
  auto cached = mounter.CacheLookup(kDataTableName, uri_);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ((*cached)->num_rows(), 7u) << "whole file cached, not the filtered";
}

TEST_F(MounterTest, TupleGranularCacheStoresFilteredTuples) {
  CacheManager tuple_cache(CacheManager::Options{
      CachePolicy::kAll, CacheGranularity::kTuple, 1 << 30});
  Mounter mounter(&registry_, &tuple_cache, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, pred).ok());
  auto mtime = FileMtimeMillis(uri_);
  ASSERT_TRUE(mtime.ok());
  ASSERT_TRUE(tuple_cache.Probe(uri_, pred->ToString(), *mtime));
  auto cached = mounter.CacheLookup(kDataTableName, uri_);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ((*cached)->num_rows(), 4u);
}

/// Asserts two tables hold the same cells in the same order and weigh the
/// same.
void ExpectSameTable(const Table& a, const Table& b, const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.GetValue(r, c), b.GetValue(r, c))
          << what << " row " << r << " col " << c;
    }
  }
  EXPECT_EQ(a.ByteSize(), b.ByteSize()) << what;
}

// The combined select-mount over every predicate shape the planner fuses:
// the rows kept, the table's weight and what each cache granularity stores
// must not depend on whether the selection kernels or the interpreter ran.
TEST_F(MounterTest, FusedPredicateShapesAgreeWithAndWithoutKernels) {
  const auto col = [](const char* name) { return Expr::ColumnRef(name); };
  const auto i64 = [](int64_t v) { return Expr::Lit(Value::Int64(v)); };
  const auto ts = [](int64_t v) { return Expr::Lit(Value::Timestamp(v)); };
  const auto dbl = [](double v) { return Expr::Lit(Value::Double(v)); };
  struct Case {
    const char* shape;
    ExprPtr predicate;
    bool lowers;  // whether the kernels can run it at all
    size_t rows;
  };
  // Record 0: t = 0, 1000, 2000 with 10, 20, 30; record 1: t = 100000..
  // 103000 with -5, 0, 5, 10.
  const std::vector<Case> cases = {
      {"time window",
       Expr::And(Expr::Compare(CompareOp::kGe, col("sample_time"), ts(1000)),
                 Expr::Compare(CompareOp::kLt, col("sample_time"), ts(101000))),
       true, 3},
      {"value threshold",
       Expr::Compare(CompareOp::kGt, col("sample_value"), i64(5)), true, 4},
      {"every row passes",
       Expr::Compare(CompareOp::kGt, col("sample_value"), i64(-100)), true,
       7},
      {"literal on the left",
       Expr::Compare(CompareOp::kLe, ts(100000), col("sample_time")), true, 4},
      {"integer literal against a timestamp",
       Expr::Compare(CompareOp::kLt, col("sample_time"), i64(2000)), true, 2},
      // The binder refuses TIMESTAMP against DOUBLE, so the double literals
      // go against the integer record_id column.
      {"integral double against an integer column",
       Expr::Compare(CompareOp::kGe, col("record_id"), dbl(1.0)), true, 4},
      {"non-integral double against an integer column",
       Expr::Compare(CompareOp::kLt, col("record_id"), dbl(0.5)), false, 3},
      {"OR",
       Expr::Or(Expr::Compare(CompareOp::kLt, col("sample_value"), i64(0)),
                Expr::Compare(CompareOp::kGe, col("sample_value"), i64(30))),
       false, 2},
      {"NOT",
       Expr::Not(Expr::Compare(CompareOp::kGt, col("sample_value"), i64(5))),
       false, 3},
      {"LIKE",
       Expr::And(Expr::Like(col("uri"), "%test.mseed"),
                 Expr::Compare(CompareOp::kGe, col("sample_value"), i64(10))),
       false, 4},
  };
  auto mtime = FileMtimeMillis(uri_);
  ASSERT_TRUE(mtime.ok());
  for (const Case& c : cases) {
    auto bound = c.predicate->Bind(*MakeDataSchema());
    ASSERT_TRUE(bound.ok()) << c.shape;
    std::vector<kernel::KernelConjunct> conjuncts;
    EXPECT_EQ(kernel::LowerPredicate(*bound, *MakeDataSchema(), &conjuncts),
              c.lowers)
        << c.shape;
    for (CacheGranularity granularity :
         {CacheGranularity::kFile, CacheGranularity::kTuple}) {
      const bool tuple = granularity == CacheGranularity::kTuple;
      const std::string what = std::string(c.shape) +
                               (tuple ? " (tuple cache)" : " (file cache)");
      TablePtr mounted[2];
      TablePtr cached[2];
      uint64_t cache_bytes[2] = {0, 0};
      for (int kernels = 0; kernels < 2; ++kernels) {
        CacheManager cache(
            CacheManager::Options{CachePolicy::kAll, granularity, 1 << 30});
        Mounter mounter(&registry_, &cache, StatsCollectorSet{}, nullptr,
                        &format_);
        PruningOptions pruning;
        pruning.use_simd_kernels = kernels == 1;
        auto t = mounter.Mount(kDataTableName, uri_, c.predicate, nullptr,
                               nullptr, &pruning);
        ASSERT_TRUE(t.ok()) << what << ": " << t.status().ToString();
        mounted[kernels] = *t;
        // A file-granular cache keeps the whole file, a tuple-granular one
        // exactly the selected tuples under the predicate's text.
        ASSERT_TRUE(cache.Probe(uri_, tuple ? c.predicate->ToString() : "",
                                *mtime))
            << what;
        auto hit = mounter.CacheLookup(kDataTableName, uri_);
        ASSERT_TRUE(hit.ok()) << what;
        cached[kernels] = *hit;
        cache_bytes[kernels] = cache.bytes_used();
      }
      EXPECT_EQ(mounted[1]->num_rows(), c.rows) << what;
      EXPECT_EQ(cached[1]->num_rows(), tuple ? c.rows : 7u) << what;
      if (!tuple) {
        // The plan gets a gathered copy that shares the cached whole
        // file's dictionary, even when every row passes: that sharing is
        // part of what both tables weigh.
        EXPECT_NE(mounted[1], cached[1]) << what;
        EXPECT_EQ(mounted[1]->column(0)->dict(), cached[1]->column(0)->dict())
            << what;
      }
      ExpectSameTable(*mounted[0], *mounted[1], what + ": mounted");
      ExpectSameTable(*cached[0], *cached[1], what + ": cached");
      EXPECT_EQ(cache_bytes[0], cache_bytes[1]) << what;
    }
  }
}

TEST_F(MounterTest, UnknownUriFails) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  EXPECT_TRUE(mounter.Mount(kDataTableName, "/nope.mseed", nullptr)
                  .status()
                  .IsNotFound());
}

TEST_F(MounterTest, UnknownTableFails) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  EXPECT_TRUE(
      mounter.Mount("X", uri_, nullptr).status().IsNotImplemented());
  EXPECT_TRUE(mounter.CacheLookup("X", uri_).status().IsNotImplemented());
}

TEST_F(MounterTest, VanishedFileSurfacesAsError) {
  // Under the strict policy errors propagate instead of degrading.
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_,
                  OnMountError::kFail);
  // Registered (stage 1 saw it) but deleted before stage 2 mounts it.
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  auto t = mounter.Mount(kDataTableName, uri_, nullptr);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsIOError()) << t.status().ToString();
}

TEST_F(MounterTest, CorruptFileSurfacesAsCorruption) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_,
                  OnMountError::kFail);
  std::string image;
  ASSERT_TRUE(ReadFileToString(uri_, &image).ok());
  image[70] = static_cast<char>(image[70] ^ 0x7f);  // damage first payload
  ASSERT_TRUE(WriteStringToFile(uri_, image).ok());
  auto t = mounter.Mount(kDataTableName, uri_, nullptr);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsCorruption()) << t.status().ToString();
}

TEST_F(MounterTest, DerivedMetadataCollectedAsSideEffect) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  StatsCollectorSet collectors;
  collectors.Register(derived->get());
  Mounter mounter(&registry_, &cache_, collectors, nullptr, &format_);
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_EQ((*derived)->num_records_covered(), 2u);
  EXPECT_TRUE((*derived)->HasCompleteFile(uri_));
  // Record 0 has samples 10..30; record 1 has -5..10. File range: [-5, 30].
  EXPECT_TRUE((*derived)->MayMatchValueRange(uri_, 0, 100));
  EXPECT_FALSE((*derived)->MayMatchValueRange(uri_, 31, 100));
  EXPECT_FALSE((*derived)->MayMatchValueRange(uri_, -100, -6));
  // The DM table is queryable with per-record stats.
  const TablePtr dm = (*derived)->table();
  ASSERT_EQ(dm->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 2).dbl(), 10.0);  // min of record 0
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 3).dbl(), 30.0);  // max
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 4).dbl(), 20.0);  // mean
}

TEST_F(MounterTest, DerivedMetadataIdempotentPerRecord) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  StatsCollectorSet collectors;
  collectors.Register(derived->get());
  Mounter mounter(&registry_, &cache_, collectors, nullptr, &format_);
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_EQ((*derived)->num_records_covered(), 2u);
  EXPECT_EQ((*derived)->table()->num_rows(), 2u);
}

TEST_F(MounterTest, UnknownValueRangeFileMustMount) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE((*derived)->MayMatchValueRange("/never/seen", 0, 1));
  EXPECT_FALSE((*derived)->HasCompleteFile("/never/seen"));
}

}  // namespace
}  // namespace dex

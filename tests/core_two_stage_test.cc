#include "core/two_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::DualDatabase;
using ::dex::testing::ExpectSameResults;
using ::dex::testing::OpenDual;
using ::dex::testing::ScopedRepo;
using ::dex::testing::SmallRepoOptions;
using ::dex::testing::TinyRepoOptions;

/// The main correctness property of the whole system: automated lazy
/// ingestion must answer every query exactly like eager ingestion.
class AliEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    repo_ = new ScopedRepo("ali_equivalence", SmallRepoOptions());
    dual_ = new DualDatabase(OpenDual(repo_->root()));
  }
  static void TearDownTestSuite() {
    delete dual_;
    dual_ = nullptr;
    delete repo_;
    repo_ = nullptr;
  }
  static ScopedRepo* repo_;
  static DualDatabase* dual_;
};

ScopedRepo* AliEquivalence::repo_ = nullptr;
DualDatabase* AliEquivalence::dual_ = nullptr;

TEST_P(AliEquivalence, SameResultsAsEagerIngestion) {
  ASSERT_NE(dual_->ali, nullptr);
  ASSERT_NE(dual_->ei, nullptr);
  ExpectSameResults(dual_->ali.get(), dual_->ei.get(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    QueryBattery, AliEquivalence,
    ::testing::Values(
        // Metadata browsing (stage-1-only under ALi).
        "SELECT * FROM F ORDER BY F.uri",
        "SELECT F.station, COUNT(*) AS n FROM F GROUP BY F.station",
        "SELECT COUNT(*) FROM R",
        "SELECT R.uri, MIN(R.start_time) AS lo, MAX(R.end_time) AS hi "
        "FROM R GROUP BY R.uri ORDER BY R.uri LIMIT 5",
        // The paper's Query 1 (window adapted to the 0.02 Hz test data).
        "SELECT AVG(D.sample_value) FROM F JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
        "AND R.start_time > '2010-01-01T00:00:00.000' "
        "AND R.start_time < '2010-01-01T23:59:59.999' "
        "AND D.sample_time > '2010-01-01T06:00:00.000' "
        "AND D.sample_time < '2010-01-01T12:00:00.000'",
        // The paper's Query 2: waveform retrieval across all channels.
        "SELECT D.sample_time, D.sample_value FROM F JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE F.station = 'ISK' "
        "AND R.start_time > '2010-01-01T00:00:00.000' "
        "AND R.start_time < '2010-01-01T23:59:59.999' "
        "AND D.sample_time > '2010-01-01T06:00:00.000' "
        "AND D.sample_time < '2010-01-01T06:30:00.000'",
        // Different join order (the paper's m1 ⋈ (a1 ⋈ m2) case).
        "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
        "JOIN R ON D.uri = R.uri AND D.record_id = R.record_id "
        "WHERE F.channel = 'BHN'",
        // Aggregation grouped by metadata column over joined actual data.
        "SELECT F.station, COUNT(*) AS n, AVG(D.sample_value) AS mean "
        "FROM F JOIN D ON F.uri = D.uri GROUP BY F.station ORDER BY F.station",
        // Selective predicate on actual data only (value hunt).
        "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ANK' AND D.sample_value > 1000",
        // Empty files-of-interest: no station 'XXX' exists.
        "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'XXX'",
        // Actual-data-only query (no metadata restriction: mounts all files).
        "SELECT COUNT(*) FROM D",
        "SELECT MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi FROM D",
        // Record-level metadata predicate without file-level predicate.
        "SELECT COUNT(*) FROM R JOIN D ON R.uri = D.uri "
        "AND R.record_id = D.record_id WHERE R.record_id = 1",
        // Arithmetic in select list over joined data.
        "SELECT D.sample_value * 2 AS doubled FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
        "AND D.sample_value > 500 ORDER BY doubled LIMIT 20",
        // MIN/MAX over strings through the two-stage path.
        "SELECT MIN(F.uri) AS first_uri FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_value > 2000"));

/// Two-stage-specific behaviours beyond black-box equivalence.
class TwoStageBehavior : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new ScopedRepo("two_stage_behavior", TinyRepoOptions());
  }
  static void TearDownTestSuite() {
    delete repo_;
    repo_ = nullptr;
  }
  static ScopedRepo* repo_;
};

ScopedRepo* TwoStageBehavior::repo_ = nullptr;

TEST_F(TwoStageBehavior, MetadataQueryIsStage1Only) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Query("SELECT COUNT(*) FROM F");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.two_stage.stage1_only);
  EXPECT_EQ(r->stats.mount.mounts, 0u);
}

TEST_F(TwoStageBehavior, MixedQuerySplitsAndMountsOnlyFilesOfInterest) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND F.channel = 'BHE'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->stats.two_stage.split);
  // 2 days x 1 channel of 1 station = 2 files of 8 total.
  EXPECT_EQ(r->stats.two_stage.files_of_interest, 2u);
  EXPECT_EQ(r->stats.mount.mounts, 2u);
}

TEST_F(TwoStageBehavior, EmptyFilesOfInterestMountsNothing) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'NOPE'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.two_stage.files_of_interest, 0u);
  EXPECT_EQ(r->stats.mount.mounts, 0u);
  ASSERT_EQ(r->table->num_rows(), 1u);
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 0);
}

TEST_F(TwoStageBehavior, BreakpointCallbackSeesInformativeness) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  BreakpointInfo seen;
  int calls = 0;
  QueryOptions qopts;
  qopts.breakpoint = [&](const BreakpointInfo& info) {
    seen = info;
    ++calls;
    return BreakpointDecision::kContinue;
  };
  auto r = (*db)->Query(
      "SELECT AVG(D.sample_value) FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "WHERE F.station = 'ISK'",
      qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.files_of_interest.size(), 4u);  // 2 channels x 2 days
  EXPECT_GT(seen.bytes_to_mount, 0u);
  EXPECT_GT(seen.est_rows_to_ingest, 0u);
  EXPECT_GT(seen.est_stage2_seconds, 0.0);
}

// F JOIN D gives Q_f no n_samples, so the estimate reads R — the R of the
// query's own epoch: a Refresh that removes a file does not change what a
// query pinned before it expects to ingest.
TEST_F(TwoStageBehavior, FallbackEstimateReadsThePinnedEpoch) {
  ScopedRepo repo("two_stage_fallback_pin", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  EpochPtr pinned = (*db)->PinEpoch();
  auto samples = (*db)->Query("SELECT SUM(R.n_samples) FROM R", {}, pinned);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  const int64_t epoch_samples = samples->table->GetValue(0, 0).int64();
  EXPECT_EQ(epoch_samples, 6912);

  const std::string sql = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";
  auto before = (*db)->Query(sql, {}, pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->stats.two_stage.breakpoint.est_rows_to_ingest,
            static_cast<uint64_t>(epoch_samples));

  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(RemoveDirRecursive((*files)[0]).ok());
  auto refreshed = (*db)->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_EQ(refreshed->files_removed, 1u);

  auto after = (*db)->Query(sql, {}, pinned);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.two_stage.breakpoint.est_rows_to_ingest,
            static_cast<uint64_t>(epoch_samples));
}

// The breakpoint reports what the rewrite decided: pruned files read no
// bytes and no records, and only planned mounts count toward the bytes.
TEST_F(TwoStageBehavior, BreakpointReportsTheRewriteDecisions) {
  DatabaseOptions opts;
  opts.two_stage.pruning.file_level = true;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  // Harvest pass: every file mounts fully, so its zones are complete.
  auto harvest = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_TRUE(harvest.ok()) << harvest.status().ToString();
  // No value reaches the bound: the zones prune all eight files.
  auto pruned = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE D.sample_value > 1000000000000");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  const BreakpointInfo& none = pruned->stats.two_stage.breakpoint;
  EXPECT_EQ(pruned->stats.two_stage.files_pruned, 8u);
  EXPECT_EQ(none.files_pruned, 8u);
  EXPECT_EQ(none.bytes_to_mount, 0u);
  EXPECT_EQ(none.est_rows_to_ingest, 0u);
  EXPECT_EQ(none.est_stage2_seconds, 0.0);

  // With one station's four files in a warm LRU cache, the other four are
  // the planned mounts.
  opts.cache.policy = CachePolicy::kLru;
  auto cached_db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(cached_db.ok());
  auto warm = (*cached_db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto sizes = (*cached_db)->Query(
      "SELECT SUM(F.size_bytes) FROM F WHERE F.station <> 'ISK'");
  ASSERT_TRUE(sizes.ok()) << sizes.status().ToString();
  auto mixed =
      (*cached_db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  const TwoStageStats& ts = mixed->stats.two_stage;
  EXPECT_EQ(ts.files_planned_cache, 4u);
  EXPECT_EQ(ts.files_planned_mount, 4u);
  EXPECT_EQ(ts.breakpoint.files_cached, ts.files_planned_cache);
  EXPECT_EQ(ts.breakpoint.bytes_to_mount,
            static_cast<uint64_t>(sizes->table->GetValue(0, 0).int64()));
}

TEST_F(TwoStageBehavior, AbortAtBreakpointStopsBeforeIngestion) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  QueryOptions qopts;
  qopts.breakpoint = [](const BreakpointInfo&) {
    return BreakpointDecision::kAbort;
  };
  auto r = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
                        qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
  EXPECT_EQ((*db)->Query("SELECT COUNT(*) FROM F")->stats.mount.mounts, 0u);
}

TEST_F(TwoStageBehavior, MultiStageIngestionBatchesAndReportsProgress) {
  DatabaseOptions opts;
  opts.two_stage.mount_batch_size = 2;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  std::vector<size_t> batches;
  QueryOptions qopts;
  qopts.breakpoint = [&](const BreakpointInfo& info) {
    batches.push_back(info.batch_index);
    return BreakpointDecision::kContinue;
  };
  auto r = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",  // all 8 files
      qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Callback at the stage boundary (batch 0) plus after each of 4 batches.
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches.front(), 0u);
  EXPECT_EQ(batches.back(), 4u);
  // Result is still correct.
  auto plain = Database::Open(repo_->root(), {});
  ASSERT_TRUE(plain.ok());
  auto expected = (*plain)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(r->table->GetValue(0, 0).int64(),
            expected->table->GetValue(0, 0).int64());
}

TEST_F(TwoStageBehavior, MultiStageAbortMidIngestion) {
  DatabaseOptions opts;
  opts.two_stage.mount_batch_size = 2;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  QueryOptions qopts;
  qopts.breakpoint = [&](const BreakpointInfo& info) {
    return info.batch_index >= 2 ? BreakpointDecision::kAbort
                                 : BreakpointDecision::kContinue;
  };
  auto r = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
                        qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
}

TEST_F(TwoStageBehavior, StrategyBDistributesJoinOverUnion) {
  DatabaseOptions opts;
  opts.two_stage.distribute_join_over_union = true;
  auto strategy_b = Database::Open(repo_->root(), opts);
  auto strategy_a = Database::Open(repo_->root(), {});
  ASSERT_TRUE(strategy_a.ok());
  ASSERT_TRUE(strategy_b.ok());
  const char* sql =
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK'";
  auto a = (*strategy_a)->Query(sql);
  auto b = (*strategy_b)->Query(sql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->table->GetValue(0, 0).int64(), b->table->GetValue(0, 0).int64());
}

TEST_F(TwoStageBehavior, NoPushSelectionVariantStillCorrect) {
  DatabaseOptions opts;
  opts.two_stage.push_selection_into_union = false;
  auto db = Database::Open(repo_->root(), opts);
  auto reference = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(reference.ok());
  const char* sql =
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND D.sample_value > 0";
  auto a = (*db)->Query(sql);
  auto b = (*reference)->Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->table->GetValue(0, 0).int64(), b->table->GetValue(0, 0).int64());
}

TEST_F(TwoStageBehavior, CachePolicyAllUsesCacheScansOnRepeat) {
  DatabaseOptions opts;
  opts.cache.policy = CachePolicy::kAll;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  const char* sql =
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND F.channel = 'BHE'";
  auto first = (*db)->Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.mount.mounts, 2u);
  auto second = (*db)->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.mount.mounts, 0u) << "repeat must hit the cache";
  EXPECT_EQ(second->stats.two_stage.files_planned_cache, 2u);
  EXPECT_EQ(first->table->GetValue(0, 0).int64(),
            second->table->GetValue(0, 0).int64());
}

TEST_F(TwoStageBehavior, DefaultPolicyRemountsEveryQuery) {
  auto db = Database::Open(repo_->root(), {});
  ASSERT_TRUE(db.ok());
  const char* sql =
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND F.channel = 'BHE'";
  ASSERT_TRUE((*db)->Query(sql).ok());
  auto again = (*db)->Query(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.mount.mounts, 2u)
      << "the paper's preliminary design discards mounted data";
}

TEST_F(TwoStageBehavior, DerivedPruningSkipsImpossibleFiles) {
  DatabaseOptions opts;
  opts.two_stage.pruning.file_level = true;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  // Pass 1: mount everything, collecting derived metadata.
  auto warm = (*db)->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.mount.mounts, 8u);
  // Pass 2: an impossible value range — derived stats prune every file.
  auto pruned = (*db)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE D.sample_value > 99999999");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->stats.mount.mounts, 0u);
  EXPECT_EQ(pruned->stats.two_stage.files_pruned, 8u);
  EXPECT_EQ(pruned->table->GetValue(0, 0).int64(), 0);
}

TEST_F(TwoStageBehavior, DerivedMetadataTableIsQueryable) {
  DatabaseOptions opts;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->Query("SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
                          "WHERE F.station = 'ISK' AND F.channel = 'BHE'")
                  .ok());
  auto dm = (*db)->Query(
      "SELECT COUNT(*) AS n, MIN(DM.min_value) AS lo FROM DM");
  ASSERT_TRUE(dm.ok()) << dm.status().ToString();
  EXPECT_EQ(dm->table->GetValue(0, 0).int64(), 6);  // 2 files x 3 records
  EXPECT_TRUE(dm->stats.two_stage.stage1_only) << "DM is metadata";
}

/// Direct property: the union of all mounts equals the eagerly loaded D
/// table row-for-row (order-insensitive) — the mount path and the bulk
/// loader must agree exactly on extraction and transformation.
TEST_F(TwoStageBehavior, MountedUnionEqualsEagerD) {
  auto ali = Database::Open(repo_->root(), {});
  DatabaseOptions eopts;
  eopts.mode = IngestionMode::kEager;
  eopts.build_indexes = false;
  auto ei = Database::Open(repo_->root(), eopts);
  ASSERT_TRUE(ali.ok());
  ASSERT_TRUE(ei.ok());
  auto mounted = (*ali)->Query("SELECT * FROM D");
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  auto loaded = (*ei)->Query("SELECT * FROM D");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(mounted->table->num_rows(), loaded->table->num_rows());
  EXPECT_EQ(::dex::testing::CanonicalRows(*mounted->table),
            ::dex::testing::CanonicalRows(*loaded->table));
}


TEST_F(TwoStageBehavior, StatsKeepTheFileCountNotTheFileList) {
  DatabaseOptions opts;
  opts.two_stage.mount_batch_size = 2;
  auto db = Database::Open(repo_->root(), opts);
  ASSERT_TRUE(db.ok());
  std::vector<size_t> listed;
  QueryOptions qopts;
  qopts.breakpoint = [&](const BreakpointInfo& info) {
    listed.push_back(info.files_of_interest.size());
    return BreakpointDecision::kContinue;
  };
  auto r = (*db)->Query(
      "SELECT AVG(D.sample_value) FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "WHERE F.station = 'ISK'",
      qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The first breakpoint and both multi-stage progress breakpoints see the
  // list; the stats the caller keeps only count it.
  EXPECT_EQ(listed, (std::vector<size_t>{4, 4, 4}));
  EXPECT_TRUE(r->stats.two_stage.breakpoint.files_of_interest.empty());
  EXPECT_EQ(r->stats.two_stage.files_of_interest, 4u);
}

/// Stage 2 reads Q_f's result narrowed to the columns its expressions name.
/// Every shape of what a query reads must still equal eager ingestion, with
/// the run-keyed join and its row-at-a-time twin, under multi-stage
/// ingestion and under strategy (b).
TEST(QfNarrowing, NarrowedQfEqualsEagerIngestion) {
  ScopedRepo repo("qf_narrowing", SmallRepoOptions());
  // SELECT *: every Q_f column is output. Two-stage execution emits D's
  // columns before Q_f's, so rows are compared by qualified column name.
  const char* select_star =
      "SELECT * FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "WHERE F.station = 'ISK' AND D.sample_value > 300";
  const auto rows_by_name = [](const Table& t, const Schema& order) {
    std::vector<std::string> rows;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string row;
      for (const Field& f : order.fields()) {
        const int c = t.schema()->FindFieldIndex(f.QualifiedName());
        EXPECT_GE(c, 0) << f.QualifiedName();
        if (c >= 0) row += t.GetValue(r, static_cast<size_t>(c)).ToString() + "|";
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const char* queries[] = {
      // Unqualified names resolve exactly as before.
      "SELECT station, channel, COUNT(*), AVG(sample_value) "
      "FROM F JOIN D ON F.uri = D.uri GROUP BY station, channel",
      "SELECT station, n_samples, sample_value FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "WHERE channel = 'BHE' AND sample_value > 300",
      "SELECT DISTINCT F.station, R.record_id FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "WHERE D.sample_value > 300",
      // HAVING reads a Q_f column no select item names.
      "SELECT F.channel, COUNT(*) AS n FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
      "GROUP BY F.channel HAVING MIN(R.n_samples) > 0",
      "SELECT F.station, D.sample_time, D.sample_value FROM F "
      "JOIN D ON F.uri = D.uri WHERE D.sample_value > 300 "
      "ORDER BY D.sample_value DESC, D.sample_time LIMIT 7",
      // Nothing of Q_f is read beyond the join keys.
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.channel = 'BHZ'",
  };
  std::vector<std::pair<const char*, DatabaseOptions>> configs(4);
  configs[0].first = "default";
  configs[1].first = "kernels off";
  configs[1].second.two_stage.pruning.use_simd_kernels = false;
  configs[2].first = "multi-stage ingestion";
  configs[2].second.two_stage.mount_batch_size = 2;
  configs[3].first = "strategy (b)";
  configs[3].second.two_stage.distribute_join_over_union = true;
  for (const auto& [name, opts] : configs) {
    SCOPED_TRACE(name);
    DualDatabase dual = OpenDual(repo.root(), opts);
    ASSERT_NE(dual.ali, nullptr);
    ASSERT_NE(dual.ei, nullptr);
    for (const char* sql : queries) {
      ExpectSameResults(dual.ali.get(), dual.ei.get(), sql);
    }
    auto ali = dual.ali->Query(select_star);
    auto ei = dual.ei->Query(select_star);
    ASSERT_TRUE(ali.ok()) << ali.status().ToString();
    ASSERT_TRUE(ei.ok()) << ei.status().ToString();
    EXPECT_EQ(ali->table->num_columns(), ei->table->num_columns());
    EXPECT_GT(ei->table->num_rows(), 0u);
    EXPECT_EQ(rows_by_name(*ali->table, *ei->table->schema()),
              rows_by_name(*ei->table, *ei->table->schema()));
  }
}

}  // namespace
}  // namespace dex

#include <gtest/gtest.h>

#include <string>

#include "test_util.h"

namespace dex {
namespace {

using dex::testing::ScopedRepo;
using dex::testing::TinyRepoOptions;

/// Joins the one-column QUERY PLAN table back into plan text.
std::string PlanText(const Table& table) {
  std::string text;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    text += table.column(0)->GetString(r);
    text += '\n';
  }
  return text;
}

TEST(ExplainAnalyzeTest, PlainExplainReturnsPlanTable) {
  ScopedRepo repo("explain_plain", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  ASSERT_EQ(result->table->num_columns(), 1u);
  EXPECT_NE(result->table->schema()->ToString().find("QUERY PLAN"),
            std::string::npos);
  EXPECT_GT(result->table->num_rows(), 0u);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(F)"), std::string::npos) << text;
  EXPECT_EQ(result->stats.result_rows, result->table->num_rows());
}

TEST(ExplainAnalyzeTest, MetadataQueryReportsPerOperatorRowCounts) {
  // Tiny repo: 2 stations x 2 channels x 2 days = 8 files, so Scan(F) must
  // report exactly 8 rows and the aggregate exactly 1.
  ScopedRepo repo("explain_analyze_meta", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("stage 1 (metadata only):"), std::string::npos) << text;

  // Per-operator annotations: the scan's row count and the aggregate's.
  const size_t agg = text.find("Aggregate");
  ASSERT_NE(agg, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 ", agg), std::string::npos) << text;
  const size_t scan = text.find("Scan(F)");
  ASSERT_NE(scan, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=8 ", scan), std::string::npos) << text;

  EXPECT_NE(text.find("-- execution --"), std::string::npos) << text;
  EXPECT_NE(text.find("result rows: 1"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, TwoStageQueryShowsBothStagesAndMounts) {
  ScopedRepo repo("explain_analyze_lazy", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("stage 1 (Q_f):"), std::string::npos) << text;
  EXPECT_NE(text.find("stage 2:"), std::string::npos) << text;
  EXPECT_NE(text.find("Mount("), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;

  // The stage-2 aggregate's row count must match what the plain query
  // returns: one output row.
  const size_t stage2 = text.find("stage 2:");
  const size_t agg = text.find("Aggregate", stage2);
  ASSERT_NE(agg, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 ", agg), std::string::npos) << text;

  // ANALYZE really executed: the mount decode counters moved.
  EXPECT_GT(result->stats.mount.mounts, 0u);
}

TEST(ExplainAnalyzeTest, EagerModeProfilesTheSingleStagePlan) {
  ScopedRepo repo("explain_analyze_eager", TinyRepoOptions());
  DatabaseOptions options;
  options.mode = IngestionMode::kEager;
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 "), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, AnalyzeMatchesPlainQueryRowCount) {
  ScopedRepo repo("explain_analyze_match", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  const std::string sql =
      "SELECT F.station, COUNT(*) AS n FROM F GROUP BY F.station";
  auto plain = (*db)->Query(sql);
  DEX_ASSERT_OK(plain);

  auto analyzed = (*db)->Query("explain analyze " + sql);  // case-insensitive
  DEX_ASSERT_OK(analyzed);
  const std::string text = PlanText(*analyzed->table);
  EXPECT_NE(text.find("result rows: " +
                      std::to_string(plain->table->num_rows())),
            std::string::npos)
      << text;
}


TEST(ExplainAnalyzeTest, KernelsLineCountsJoinBatchesByPath) {
  ScopedRepo repo("explain_analyze_join", TinyRepoOptions());
  const std::string sql =
      "EXPLAIN ANALYZE SELECT F.channel, AVG(D.sample_value) FROM F "
      "JOIN D ON F.uri = D.uri WHERE F.station = 'ISK' GROUP BY F.channel";
  for (bool kernels : {true, false}) {
    DatabaseOptions options;
    options.two_stage.pruning.use_simd_kernels = kernels;
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    auto result = (*db)->Query(sql);
    DEX_ASSERT_OK(result);
    const ExecStats& ex = result->stats.two_stage.exec;
    // 4 files of one station, one probe batch each.
    EXPECT_EQ(ex.kernel_join_batches, kernels ? 4u : 0u);
    EXPECT_EQ(ex.scalar_join_batches, kernels ? 0u : 4u);
    const std::string text = PlanText(*result->table);
    EXPECT_NE(text.find(kernels ? "join 4 run-keyed / 0 row"
                                : "join 0 run-keyed / 4 row"),
              std::string::npos)
        << text;
  }
}

}  // namespace
}  // namespace dex

// White-box tests for the run-time optimization phase: the exact plan shapes
// rewrite rule (1) produces, file decisions, and the informativeness
// estimator's bound extraction.

#include <gtest/gtest.h>

#include <cmath>

#include "core/informativeness.h"
#include "core/seismic_schema.h"
#include "core/two_stage.h"
#include "io/sim_disk.h"
#include "sql/binder.h"
#include "engine/optimizer.h"

namespace dex {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  RewriteTest() : disk_(), catalog_(&disk_) {
    EXPECT_TRUE(catalog_
                    .AddTable(std::make_shared<Table>("F", MakeFileSchema()),
                              TableKind::kMetadata)
                    .ok());
    EXPECT_TRUE(catalog_
                    .AddTable(std::make_shared<Table>("R", MakeRecordSchema()),
                              TableKind::kMetadata)
                    .ok());
    EXPECT_TRUE(catalog_
                    .AddTable(std::make_shared<Table>("D", MakeDataSchema()),
                              TableKind::kActual)
                    .ok());
  }

  PlanPtr SplitQuery(const std::string& sql) {
    auto plan = sql::PlanQuery(sql, catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto pushed = PushDownPredicates(*plan, catalog_);
    EXPECT_TRUE(pushed.ok());
    auto split = SplitPlan(*pushed, catalog_);
    EXPECT_TRUE(split.ok());
    return split->plan;
  }

  static int CountKind(const PlanPtr& p, PlanKind kind) {
    int n = p->kind == kind ? 1 : 0;
    for (const auto& c : p->children) n += CountKind(c, kind);
    return n;
  }

  static PlanPtr FindKind(const PlanPtr& p, PlanKind kind) {
    if (p->kind == kind) return p;
    for (const auto& c : p->children) {
      if (PlanPtr f = FindKind(c, kind)) return f;
    }
    return nullptr;
  }

  SimDisk disk_;
  Catalog catalog_;
};

const char* kMixedQuery =
    "SELECT AVG(D.sample_value) FROM F JOIN R ON F.uri = R.uri "
    "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
    "WHERE F.station = 'ISK' AND D.sample_time > 100";

TEST_F(RewriteTest, StageBreakBecomesResultScan) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf", {{"u1", FileDecision::Action::kMount}}, nullptr, catalog_,
      TwoStageOptions{});
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(CountKind(*rewritten, PlanKind::kStageBreak), 0);
  const PlanPtr rs = FindKind(*rewritten, PlanKind::kResultScan);
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->result_id, "__qf");
}

TEST_F(RewriteTest, MountBranchesCarryFusedSelection) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf",
      {{"u1", FileDecision::Action::kMount},
       {"u2", FileDecision::Action::kMount}},
      nullptr, catalog_, TwoStageOptions{});
  ASSERT_TRUE(rewritten.ok());
  const PlanPtr union_node = FindKind(*rewritten, PlanKind::kUnion);
  ASSERT_NE(union_node, nullptr);
  ASSERT_EQ(union_node->children.size(), 2u);
  for (const PlanPtr& b : union_node->children) {
    EXPECT_EQ(b->kind, PlanKind::kMount);
    ASSERT_NE(b->predicate, nullptr) << "selection must fuse into the mount";
    EXPECT_NE(b->predicate->ToString().find("sample_time"), std::string::npos);
  }
}

TEST_F(RewriteTest, CacheScanBranchesWrapSelectionInFilter) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf",
      {{"u1", FileDecision::Action::kCacheScan},
       {"u2", FileDecision::Action::kMount}},
      nullptr, catalog_, TwoStageOptions{});
  ASSERT_TRUE(rewritten.ok());
  const PlanPtr union_node = FindKind(*rewritten, PlanKind::kUnion);
  ASSERT_NE(union_node, nullptr);
  EXPECT_EQ(union_node->children[0]->kind, PlanKind::kFilter);
  EXPECT_EQ(union_node->children[0]->children[0]->kind, PlanKind::kCacheScan);
  EXPECT_EQ(union_node->children[1]->kind, PlanKind::kMount);
}

TEST_F(RewriteTest, SkippedFilesProduceNoBranches) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf",
      {{"u1", FileDecision::Action::kSkip},
       {"u2", FileDecision::Action::kMount},
       {"u3", FileDecision::Action::kSkip}},
      nullptr, catalog_, TwoStageOptions{});
  ASSERT_TRUE(rewritten.ok());
  const PlanPtr union_node = FindKind(*rewritten, PlanKind::kUnion);
  ASSERT_NE(union_node, nullptr);
  EXPECT_EQ(union_node->children.size(), 1u);
}

TEST_F(RewriteTest, ZeroFilesBecomesEmptyResultScan) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(split, "__qf", {}, nullptr,
                                                   catalog_, TwoStageOptions{});
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(CountKind(*rewritten, PlanKind::kUnion), 0);
  EXPECT_EQ(CountKind(*rewritten, PlanKind::kMount), 0);
  // Two result-scans: Q_f's and the empty-relation placeholder.
  EXPECT_EQ(CountKind(*rewritten, PlanKind::kResultScan), 2);
}

TEST_F(RewriteTest, NoPushdownLeavesFilterAboveUnion) {
  TwoStageOptions options;
  options.push_selection_into_union = false;
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf", {{"u1", FileDecision::Action::kMount}}, nullptr, catalog_,
      options);
  ASSERT_TRUE(rewritten.ok());
  const PlanPtr union_node = FindKind(*rewritten, PlanKind::kUnion);
  ASSERT_NE(union_node, nullptr);
  EXPECT_EQ(union_node->children[0]->kind, PlanKind::kMount);
  EXPECT_EQ(union_node->children[0]->predicate, nullptr);
  // There must be a Filter somewhere above the union carrying p3.
  const PlanPtr filter = FindKind(*rewritten, PlanKind::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->predicate->ToString().find("sample_time"),
            std::string::npos);
}

TEST_F(RewriteTest, StrategyBDistributesJoin) {
  TwoStageOptions options;
  options.distribute_join_over_union = true;
  const PlanPtr split = SplitQuery(kMixedQuery);
  auto rewritten = TwoStageExecutor::RewriteStage2(
      split, "__qf",
      {{"u1", FileDecision::Action::kMount},
       {"u2", FileDecision::Action::kMount}},
      nullptr, catalog_, options);
  ASSERT_TRUE(rewritten.ok());
  // The union now sits ABOVE per-file joins: Union(Join(Mount, RS), ...).
  const PlanPtr union_node = FindKind(*rewritten, PlanKind::kUnion);
  ASSERT_NE(union_node, nullptr);
  ASSERT_EQ(union_node->children.size(), 2u);
  for (const PlanPtr& b : union_node->children) {
    EXPECT_EQ(b->kind, PlanKind::kJoin);
    EXPECT_EQ(b->children[0]->kind, PlanKind::kMount);
  }
}

TEST_F(RewriteTest, FilesOfInterestDeduplicates) {
  auto schema = std::make_shared<Schema>(
      Schema({{"uri", DataType::kString, "F"}, {"n", DataType::kInt64, "R"}}));
  auto t = std::make_shared<Table>("qf", schema);
  for (const char* uri : {"a", "b", "a", "c", "b", "a"}) {
    ASSERT_TRUE(t->AppendRow({Value::String(uri), Value::Int64(1)}).ok());
  }
  auto files = TwoStageExecutor::FilesOfInterest(t);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(*files, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(RewriteTest, FilesOfInterestRequiresUriColumn) {
  auto schema = std::make_shared<Schema>(
      Schema({{"n", DataType::kInt64, "R"}}));
  auto t = std::make_shared<Table>("qf", schema);
  EXPECT_FALSE(TwoStageExecutor::FilesOfInterest(t).ok());
}

TEST_F(RewriteTest, FindActualScanPredicateLocatesP3) {
  const PlanPtr split = SplitQuery(kMixedQuery);
  const ExprPtr pred =
      TwoStageExecutor::FindActualScanPredicate(split, catalog_);
  ASSERT_NE(pred, nullptr);
  EXPECT_EQ(pred->ToString(), "(D.sample_time > 100)");
}

TEST_F(RewriteTest, FindActualScanPredicateNullWhenNone) {
  const PlanPtr split = SplitQuery(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK'");
  EXPECT_EQ(TwoStageExecutor::FindActualScanPredicate(split, catalog_), nullptr);
}

// ---------- ExtractBounds ----------

TEST(ExtractBoundsTest, SimpleRange) {
  const ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("D.sample_time"),
                    Expr::Lit(Value::Int64(10))),
      Expr::Compare(CompareOp::kLt, Expr::ColumnRef("D.sample_time"),
                    Expr::Lit(Value::Int64(20))));
  double lo, hi;
  ASSERT_TRUE(ExtractBounds(pred, "sample_time", &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 10);
  EXPECT_DOUBLE_EQ(hi, 20);
}

TEST(ExtractBoundsTest, MirroredLiteralOnLeft) {
  // 10 < x  ≡  x > 10.
  const ExprPtr pred = Expr::Compare(
      CompareOp::kLt, Expr::Lit(Value::Int64(10)), Expr::ColumnRef("v"));
  double lo, hi;
  ASSERT_TRUE(ExtractBounds(pred, "v", &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 10);
  EXPECT_TRUE(std::isinf(hi));
}

TEST(ExtractBoundsTest, EqualityPinsBothBounds) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kEq, Expr::ColumnRef("v"), Expr::Lit(Value::Double(7.5)));
  double lo, hi;
  ASSERT_TRUE(ExtractBounds(pred, "v", &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 7.5);
  EXPECT_DOUBLE_EQ(hi, 7.5);
}

TEST(ExtractBoundsTest, IsoStringLiteralsParsed) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGe, Expr::ColumnRef("sample_time"),
      Expr::Lit(Value::String("1970-01-01T00:00:01.000")));
  double lo, hi;
  ASSERT_TRUE(ExtractBounds(pred, "sample_time", &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 1000);
}

TEST(ExtractBoundsTest, OtherColumnsIgnored) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("other"), Expr::Lit(Value::Int64(10)));
  double lo, hi;
  EXPECT_FALSE(ExtractBounds(pred, "sample_time", &lo, &hi));
}

TEST(ExtractBoundsTest, NullAndNonComparisonPredicates) {
  double lo, hi;
  EXPECT_FALSE(ExtractBounds(nullptr, "v", &lo, &hi));
  EXPECT_FALSE(ExtractBounds(Expr::Lit(Value::Bool(true)), "v", &lo, &hi));
  // Column-vs-column comparisons carry no literal bounds.
  EXPECT_FALSE(ExtractBounds(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("v"), Expr::ColumnRef("w")),
      "v", &lo, &hi));
}

TEST(SummarizeTimeWindowTest, PureWindowRecognized) {
  const ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("D.sample_time"),
                    Expr::Lit(Value::Int64(10))),
      Expr::Compare(CompareOp::kLt, Expr::ColumnRef("D.sample_time"),
                    Expr::Lit(Value::Int64(20))));
  const CachedWindow w = SummarizeTimeWindow(pred);
  EXPECT_TRUE(w.pure);
  EXPECT_DOUBLE_EQ(w.lo, 10);
  EXPECT_DOUBLE_EQ(w.hi, 20);
}

TEST(SummarizeTimeWindowTest, MixedPredicatesAreImpure) {
  // sample_time window AND a value bound: not a pure window.
  const ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("sample_time"),
                    Expr::Lit(Value::Int64(10))),
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("sample_value"),
                    Expr::Lit(Value::Int64(5))));
  EXPECT_FALSE(SummarizeTimeWindow(pred).pure);
  EXPECT_FALSE(SummarizeTimeWindow(nullptr).pure);
  // <> makes the tuple set non-contiguous.
  EXPECT_FALSE(SummarizeTimeWindow(
                   Expr::Compare(CompareOp::kNe, Expr::ColumnRef("sample_time"),
                                 Expr::Lit(Value::Int64(10))))
                   .pure);
}

TEST(ExtractBoundsTest, TightestBoundWins) {
  const ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("v"),
                    Expr::Lit(Value::Int64(5))),
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("v"),
                    Expr::Lit(Value::Int64(15))));
  double lo, hi;
  ASSERT_TRUE(ExtractBounds(pred, "v", &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 15);
}

}  // namespace
}  // namespace dex

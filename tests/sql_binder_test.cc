#include "sql/binder.h"

#include <gtest/gtest.h>

#include "core/seismic_schema.h"
#include "engine/executor.h"
#include "engine/kernel.h"
#include "io/sim_disk.h"

namespace dex {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : disk_(), catalog_(&disk_) {
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

  PlanPtr MustPlan(const std::string& sql) {
    auto r = sql::PlanQuery(sql, catalog_);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    return r.ValueOr(nullptr);
  }

  SimDisk disk_;
  Catalog catalog_;
};

TEST_F(BinderTest, SelectStarIsPlainScan) {
  const PlanPtr p = MustPlan("SELECT * FROM F");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, PlanKind::kScan);
  EXPECT_EQ(p->output_schema->num_fields(), 8u);
}

TEST_F(BinderTest, ProjectionNamesAndTypes) {
  const PlanPtr p = MustPlan("SELECT station, size_bytes AS sz FROM F");
  ASSERT_EQ(p->kind, PlanKind::kProject);
  EXPECT_EQ(p->output_schema->field(0).name, "station");
  EXPECT_EQ(p->output_schema->field(1).name, "sz");
  EXPECT_EQ(p->output_schema->field(1).type, DataType::kInt64);
}

TEST_F(BinderTest, QualifiedColumnNameStripsQualifierInOutput) {
  const PlanPtr p = MustPlan("SELECT D.sample_time, D.sample_value FROM D");
  EXPECT_EQ(p->output_schema->field(0).name, "sample_time");
  EXPECT_EQ(p->output_schema->field(1).name, "sample_value");
}

TEST_F(BinderTest, WhereBecomesFilter) {
  const PlanPtr p = MustPlan("SELECT * FROM F WHERE station = 'ISK'");
  ASSERT_EQ(p->kind, PlanKind::kFilter);
  EXPECT_EQ(p->children[0]->kind, PlanKind::kScan);
}

TEST_F(BinderTest, JoinsAreLeftDeepInSqlOrder) {
  const PlanPtr p = MustPlan(
      "SELECT * FROM F JOIN R ON F.uri = R.uri "
      "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id");
  ASSERT_EQ(p->kind, PlanKind::kJoin);
  EXPECT_EQ(p->children[1]->table_name, "D");
  ASSERT_EQ(p->children[0]->kind, PlanKind::kJoin);
  EXPECT_EQ(p->children[0]->children[0]->table_name, "F");
  EXPECT_EQ(p->children[0]->children[1]->table_name, "R");
}

TEST_F(BinderTest, AggregateAddsProjectOnTop) {
  const PlanPtr p = MustPlan("SELECT AVG(D.sample_value) FROM D");
  ASSERT_EQ(p->kind, PlanKind::kProject);
  ASSERT_EQ(p->children[0]->kind, PlanKind::kAggregate);
  EXPECT_EQ(p->output_schema->field(0).name, "AVG(D.sample_value)");
  EXPECT_EQ(p->output_schema->field(0).type, DataType::kDouble);
}

TEST_F(BinderTest, GroupByWithMixedItems) {
  const PlanPtr p = MustPlan(
      "SELECT station, COUNT(*) AS n FROM F GROUP BY station");
  ASSERT_EQ(p->kind, PlanKind::kProject);
  const PlanPtr& agg = p->children[0];
  ASSERT_EQ(agg->kind, PlanKind::kAggregate);
  EXPECT_EQ(agg->group_by.size(), 1u);
  EXPECT_EQ(agg->aggregates.size(), 1u);
  EXPECT_EQ(p->output_schema->field(1).name, "n");
}

TEST_F(BinderTest, NonGroupedColumnRejected) {
  auto r = sql::PlanQuery("SELECT station, COUNT(*) FROM F GROUP BY channel",
                          catalog_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(BinderTest, SelectStarWithGroupByRejected) {
  EXPECT_FALSE(sql::PlanQuery("SELECT * FROM F GROUP BY station", catalog_).ok());
}

TEST_F(BinderTest, OrderByMapsToOutputColumns) {
  const PlanPtr p = MustPlan(
      "SELECT F.station AS st, COUNT(*) AS n FROM F GROUP BY F.station "
      "ORDER BY st");
  ASSERT_EQ(p->kind, PlanKind::kSort);
}

TEST_F(BinderTest, OrderByQualifiedNameOverProjection) {
  const PlanPtr p =
      MustPlan("SELECT F.station FROM F ORDER BY F.station DESC");
  ASSERT_EQ(p->kind, PlanKind::kSort);
  EXPECT_FALSE(p->sort_keys[0].ascending);
}

TEST_F(BinderTest, LimitOnTop) {
  const PlanPtr p = MustPlan("SELECT * FROM F LIMIT 3");
  ASSERT_EQ(p->kind, PlanKind::kLimit);
  EXPECT_EQ(p->limit, 3);
}

TEST_F(BinderTest, FullClauseStack) {
  const PlanPtr p = MustPlan(
      "SELECT station, COUNT(*) AS n FROM F WHERE network = 'OR' "
      "GROUP BY station ORDER BY n DESC LIMIT 5");
  ASSERT_EQ(p->kind, PlanKind::kLimit);
  ASSERT_EQ(p->children[0]->kind, PlanKind::kSort);
  ASSERT_EQ(p->children[0]->children[0]->kind, PlanKind::kProject);
}

TEST_F(BinderTest, UnknownTableRejected) {
  EXPECT_TRUE(sql::PlanQuery("SELECT * FROM Zed", catalog_).status().IsNotFound());
  EXPECT_TRUE(sql::PlanQuery("SELECT * FROM F JOIN Zed ON F.uri = Zed.uri",
                             catalog_)
                  .status()
                  .IsNotFound());
}

TEST_F(BinderTest, UnknownColumnRejectedAtAnalysis) {
  EXPECT_FALSE(sql::PlanQuery("SELECT ghost FROM F", catalog_).ok());
  EXPECT_FALSE(
      sql::PlanQuery("SELECT * FROM F WHERE ghost = 1", catalog_).ok());
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  // Both F and R have "uri".
  EXPECT_FALSE(
      sql::PlanQuery("SELECT uri FROM F JOIN R ON F.uri = R.uri", catalog_)
          .ok());
}

TEST_F(BinderTest, PaperQuery1PlanShape) {
  const PlanPtr p = MustPlan(R"(
      SELECT AVG(D.sample_value)
      FROM F JOIN R ON F.uri = R.uri
             JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
      WHERE F.station = 'ISK' AND F.channel = 'BHE'
        AND R.start_time > '2010-01-12T00:00:00.000'
        AND R.start_time < '2010-01-12T23:59:59.999'
        AND D.sample_time > '2010-01-12T22:15:00.000'
        AND D.sample_time < '2010-01-12T22:15:02.000')");
  // Project <- Aggregate <- Filter <- Join shape before optimization.
  ASSERT_EQ(p->kind, PlanKind::kProject);
  ASSERT_EQ(p->children[0]->kind, PlanKind::kAggregate);
  ASSERT_EQ(p->children[0]->children[0]->kind, PlanKind::kFilter);
  ASSERT_EQ(p->children[0]->children[0]->children[0]->kind, PlanKind::kJoin);
}


// The parser writes `-9` as `(0 - 9)`; the binder folds arithmetic on two
// numeric literals so such bounds reach the kernels and the zone maps.
TEST_F(BinderTest, LiteralArithmeticFolds) {
  const struct {
    const char* sql;
    Value bound;
  } cases[] = {
      {"SELECT * FROM D WHERE sample_value > 2 - 5", Value::Int64(-3)},
      {"SELECT * FROM D WHERE sample_value > -2.5", Value::Double(-2.5)},
      {"SELECT * FROM D WHERE sample_value > -(-4)", Value::Int64(4)},
      {"SELECT * FROM D WHERE sample_value > 3 / 2", Value::Double(1.5)},
  };
  for (const auto& c : cases) {
    const PlanPtr p = MustPlan(c.sql);
    ASSERT_EQ(p->kind, PlanKind::kFilter) << c.sql;
    const ExprPtr& lit = p->predicate->children()[1];
    ASSERT_EQ(lit->kind(), ExprKind::kLiteral) << c.sql;
    EXPECT_EQ(lit->literal().type(), c.bound.type()) << c.sql;
    EXPECT_TRUE(lit->literal() == c.bound) << c.sql;
  }
}

TEST_F(BinderTest, NegativeBoundLowersToKernels) {
  const PlanPtr p = MustPlan(
      "SELECT * FROM D WHERE sample_value < -3000 AND sample_time > -1");
  ASSERT_EQ(p->kind, PlanKind::kFilter);
  const Schema& input = *p->children[0]->output_schema;
  auto bound = p->predicate->Bind(input);
  ASSERT_TRUE(bound.ok());
  std::vector<kernel::KernelConjunct> conjuncts;
  ASSERT_TRUE(kernel::LowerPredicate(*bound, input, &conjuncts));
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0].f64, -3000.0);
  EXPECT_EQ(conjuncts[1].i64, -1);
}

TEST_F(BinderTest, FoldingAppliesToEveryClause) {
  const PlanPtr p = MustPlan(
      "SELECT F.station, SUM(D.sample_value * -1) AS s FROM F "
      "JOIN D ON F.uri = D.uri AND D.record_id > 0 - 1 "
      "WHERE D.sample_value > -7 GROUP BY F.station HAVING SUM(D.sample_value "
      "* -1) > -10 ORDER BY F.station");
  const std::string plan = p->ToString();
  EXPECT_EQ(plan.find("(0 - "), std::string::npos) << plan;
  EXPECT_NE(plan.find("(D.record_id > -1)"), std::string::npos) << plan;
  // HAVING still finds the select list's aggregate: no hidden duplicate.
  EXPECT_EQ(plan.find("agg_1"), std::string::npos) << plan;
}

TEST_F(BinderTest, DivisionByZeroAndOverflowStayUnfolded) {
  for (const char* sql :
       {"SELECT * FROM D WHERE sample_value > 1 / 0",
        "SELECT * FROM D WHERE sample_value > 9223372036854775807 + 1"}) {
    const PlanPtr p = MustPlan(sql);
    ASSERT_EQ(p->kind, PlanKind::kFilter) << sql;
    EXPECT_EQ(p->predicate->children()[1]->kind(), ExprKind::kArithmetic)
        << sql;
  }
  // ... and division by zero still fails when the filter runs.
  auto d = catalog_.GetTable("D");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->AppendRow({Value::String("u"), Value::Int64(0),
                               Value::Timestamp(0), Value::Double(1.0)})
                  .ok());
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.charge_io = false;
  auto r = ExecutePlan(MustPlan("SELECT * FROM D WHERE sample_value > 1 / 0"),
                       &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("division by zero"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace dex

// Kernel-vs-row differential test for HashJoinOp.
//
// The run-keyed join (kernel mode) and the row-at-a-time join (kernels off,
// and every shape the run-keyed path declines) must return the same rows in
// the same order. Each shape runs with `use_simd_kernels` on and off, and
// the per-path batch counters say which path ran.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "io/sim_disk.h"

namespace dex {
namespace {

SchemaPtr ProbeSchema(const std::string& q) {
  return std::make_shared<Schema>(Schema({{"uri", DataType::kString, q},
                                          {"rid", DataType::kInt64, q},
                                          {"t", DataType::kTimestamp, q},
                                          {"v", DataType::kDouble, q}}));
}

/// Appends `n` probe rows of one (uri, rid) run.
void AppendRun(Table* t, const std::string& uri, int64_t rid, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int64_t row = static_cast<int64_t>(t->num_rows());
    EXPECT_TRUE(t->AppendRow({Value::String(uri), Value::Int64(rid),
                              Value::Timestamp(row * 1000),
                              Value::Double(static_cast<double>(row) * 0.25 -
                                            1000.0)})
                    .ok());
  }
}

std::string Render(const Table& t) {
  std::string out;
  char buf[40];
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value v = t.GetValue(r, c);
      if (v.type() == DataType::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += c + 1 < t.num_columns() ? "|" : "\n";
    }
  }
  return out;
}

class JoinKernelTest : public ::testing::Test {
 protected:
  JoinKernelTest() : catalog_(&disk_) {
    // P: runs of (uri, rid). The u2 run crosses the first 4096-row batch
    // boundary; u9 (absent from every build) fills the whole third batch;
    // u1 comes back after other files; (u3, 5) has no R row.
    probe_ = std::make_shared<Table>("P", ProbeSchema("P"));
    AppendRun(probe_.get(), "u1", 0, 1000);
    AppendRun(probe_.get(), "u1", 1, 500);
    AppendRun(probe_.get(), "u9", 0, 200);
    AppendRun(probe_.get(), "u2", 0, 2800);
    AppendRun(probe_.get(), "u9", 1, 7788);
    AppendRun(probe_.get(), "u3", 0, 300);
    AppendRun(probe_.get(), "u1", 2, 50);
    AppendRun(probe_.get(), "u3", 5, 100);
    Add(probe_, TableKind::kActual);

    // P2: a second probe table with its own dictionary and code order.
    auto p2 = std::make_shared<Table>("P2", ProbeSchema("P2"));
    AppendRun(p2.get(), "u3", 1, 70);
    AppendRun(p2.get(), "u8", 0, 30);
    AppendRun(p2.get(), "u1", 0, 40);
    Add(p2, TableKind::kActual);

    // Builds. BF interns its uris in another order than P, so codes differ.
    auto bf = MakeBuild("BF", {{"uri", DataType::kString, "BF"},
                               {"station", DataType::kString, "BF"}});
    for (const char* uri : {"u3", "u1", "u2", "u7"}) {
      Append(bf, {Value::String(uri), Value::String(std::string("S") + uri)});
    }
    auto br = MakeBuild("BR", {{"uri", DataType::kString, "BR"},
                               {"rid", DataType::kInt64, "BR"},
                               {"n", DataType::kInt64, "BR"}});
    const std::pair<const char*, int64_t> records[] = {
        {"u2", 0}, {"u1", 2}, {"u1", 0}, {"u3", 1}, {"u1", 1}, {"u3", 0}};
    for (const auto& [uri, rid] : records) {
      Append(br, {Value::String(uri), Value::Int64(rid), Value::Int64(rid * 7)});
    }
    auto bdup = MakeBuild("BDup", {{"uri", DataType::kString, "BDup"},
                                   {"tag", DataType::kString, "BDup"}});
    Append(bdup, {Value::String("u1"), Value::String("a")});
    Append(bdup, {Value::String("u2"), Value::String("c")});
    Append(bdup, {Value::String("u1"), Value::String("b")});
    MakeBuild("BEmpty", {{"uri", DataType::kString, "BEmpty"},
                         {"station", DataType::kString, "BEmpty"}});
    auto bts = MakeBuild("BTs", {{"ts", DataType::kTimestamp, "BTs"},
                                 {"label", DataType::kString, "BTs"}});
    for (int64_t ts : {2, 0, 5}) {
      Append(bts, {Value::Timestamp(ts), Value::String(std::to_string(ts))});
    }
    auto bdbl = MakeBuild("BDbl", {{"key", DataType::kDouble, "BDbl"},
                                   {"label", DataType::kString, "BDbl"}});
    for (double key : {-1000.0, -999.75, 0.5, 1.0e9}) {
      Append(bdbl, {Value::Double(key), Value::String("d")});
    }
    // BShared's uri column shares P's dictionary (it is copied from P).
    auto shared = MakeBuild("BShared", {{"uri", DataType::kString, "BShared"},
                                        {"rank", DataType::kInt64, "BShared"}});
    for (size_t row : {size_t{0}, size_t{1700}, size_t{12388}}) {
      shared->mutable_column(0)->AppendFrom(*probe_->column(0), row);
      shared->mutable_column(1)->AppendInt64(static_cast<int64_t>(row));
      EXPECT_TRUE(shared->CommitAppendedRows(1).ok());
    }
  }

  TablePtr MakeBuild(const std::string& name, std::vector<Field> fields) {
    auto t = std::make_shared<Table>(name,
                                     std::make_shared<Schema>(std::move(fields)));
    Add(t, TableKind::kMetadata);
    return t;
  }
  void Add(const TablePtr& t, TableKind kind) {
    EXPECT_TRUE(catalog_.AddTable(t, kind).ok());
  }
  static void Append(const TablePtr& t, const std::vector<Value>& row) {
    EXPECT_TRUE(t->AppendRow(row).ok());
  }

  struct Run {
    std::string rows;
    std::string schema;
    ExecStats stats;
  };

  Run Execute(const PlanPtr& plan, bool kernels) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.charge_io = false;
    ctx.use_simd_kernels = kernels;
    ctx.cache_fn = [this](const std::string&, const std::string&) {
      return Result<TablePtr>(probe_);
    };
    // A mount's uri names the catalog table it hands out.
    ctx.mount_fn = [this](const std::string&, const std::string& uri,
                          const ExprPtr&) { return catalog_.GetTable(uri); };
    Run out;
    EXPECT_TRUE(AnalyzePlan(plan, catalog_).ok());
    auto result = ExecutePlan(plan, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    out.rows = Render(**result);
    out.schema = (*result)->schema()->ToString();
    out.stats = ctx.stats;
    return out;
  }

  SimDisk disk_;
  Catalog catalog_;
  TablePtr probe_;
};

ExprPtr Col(const std::string& name) { return Expr::ColumnRef(name); }
ExprPtr Eq(const std::string& a, const std::string& b) {
  return Expr::Compare(CompareOp::kEq, Col(a), Col(b));
}

struct Shape {
  const char* name;
  std::function<PlanPtr()> plan;
  bool run_keyed;  // the path kernel mode takes
};

TEST_F(JoinKernelTest, RunKeyedMatchesRowAtATimeOnEveryShape) {
  const auto scan_p = [] { return MakeScan("P"); };
  const std::vector<Shape> shapes = {
      {"unique uri key",
       [&] { return MakeJoin(Eq("P.uri", "BF.uri"), scan_p(), MakeScan("BF")); },
       true},
      {"unique (uri, record_id) key",
       [&] {
         return MakeJoin(Expr::And(Eq("P.uri", "BR.uri"), Eq("P.rid", "BR.rid")),
                         scan_p(), MakeScan("BR"));
       },
       true},
      {"keys written build side first",
       [&] {
         return MakeJoin(Expr::And(Eq("BR.rid", "P.rid"), Eq("BR.uri", "P.uri")),
                         scan_p(), MakeScan("BR"));
       },
       true},
      {"duplicate build keys take the row path",
       [&] {
         return MakeJoin(Eq("P.uri", "BDup.uri"), scan_p(), MakeScan("BDup"));
       },
       false},
      {"build shares the probe dictionary",
       [&] {
         return MakeJoin(Eq("P.uri", "BShared.uri"), scan_p(),
                         MakeScan("BShared"));
       },
       true},
      {"probe batches with different dictionaries",
       [&] {
         return MakeJoin(Eq("P.uri", "BF.uri"),
                         MakeUnion({scan_p(), MakeScan("P2"), scan_p()}),
                         MakeScan("BF"));
       },
       true},
      {"incoming selection from a filter over a cache-scan",
       [&] {
         return MakeJoin(
             Expr::And(Eq("P.uri", "BR.uri"), Eq("P.rid", "BR.rid")),
             MakeFilter(Expr::Compare(CompareOp::kGt, Col("P.v"),
                                      Expr::Lit(Value::Double(-600.5))),
                        MakeCacheScan("P", "u")),
             MakeScan("BR"));
       },
       true},
      {"residual the kernels run",
       [&] {
         return MakeJoin(
             Expr::And(Eq("P.uri", "BF.uri"),
                       Expr::Compare(CompareOp::kLt, Col("P.v"),
                                     Expr::Lit(Value::Double(-420.25)))),
             scan_p(), MakeScan("BF"));
       },
       true},
      {"residual the interpreter runs",
       [&] {
         return MakeJoin(
             Expr::And(Eq("P.uri", "BF.uri"),
                       Expr::Compare(CompareOp::kNe, Col("BF.station"),
                                     Expr::Lit(Value::String("Su2")))),
             scan_p(), MakeScan("BF"));
       },
       true},
      {"empty build",
       [&] {
         return MakeJoin(Eq("P.uri", "BEmpty.uri"), scan_p(),
                         MakeScan("BEmpty"));
       },
       true},
      {"int64 probe key against timestamp build key",
       [&] { return MakeJoin(Eq("P.rid", "BTs.ts"), scan_p(), MakeScan("BTs")); },
       true},
      {"double keys take the row path",
       [&] { return MakeJoin(Eq("P.v", "BDbl.key"), scan_p(), MakeScan("BDbl")); },
       false},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Run row = Execute(shape.plan(), /*kernels=*/false);
    const Run run = Execute(shape.plan(), /*kernels=*/true);
    EXPECT_EQ(run.schema, row.schema);
    EXPECT_EQ(run.rows, row.rows);
    EXPECT_EQ(row.stats.kernel_join_batches, 0u);
    EXPECT_GT(row.stats.scalar_join_batches, 0u);
    if (shape.run_keyed) {
      EXPECT_GT(run.stats.kernel_join_batches, 0u);
      EXPECT_EQ(run.stats.scalar_join_batches, 0u);
    } else {
      EXPECT_EQ(run.stats.kernel_join_batches, 0u);
      EXPECT_GT(run.stats.scalar_join_batches, 0u);
    }
  }
}

TEST_F(JoinKernelTest, UnmatchedBatchesAndRowsAreDropped) {
  const Run run = Execute(
      MakeJoin(Eq("P.uri", "BF.uri"), MakeScan("P"), MakeScan("BF")), true);
  // u9 (7988 rows, including all of the third batch) has no F row.
  const size_t rows = static_cast<size_t>(
      std::count(run.rows.begin(), run.rows.end(), '\n'));
  EXPECT_EQ(rows, probe_->num_rows() - 200 - 7788);
  EXPECT_EQ(run.stats.kernel_join_batches, 4u);
}

TEST_F(JoinKernelTest, ProbedCacheTableKeepsItsByteSize) {
  const uint64_t before = probe_->ByteSize();
  const Run run = Execute(
      MakeJoin(Eq("P.uri", "BF.uri"),
               MakeFilter(Expr::Compare(CompareOp::kGt, Col("P.v"),
                                        Expr::Lit(Value::Double(0.0))),
                          MakeCacheScan("P", "u")),
               MakeScan("BF")),
      true);
  EXPECT_GT(run.stats.kernel_join_batches, 0u);
  EXPECT_EQ(probe_->ByteSize(), before);
}

// -- Aggregates that fold the join's key runs ---------------------------------

/// COUNT(*) and every aggregate of P's double, int64 and timestamp columns.
PlanPtr AggregateAll(std::vector<std::string> groups, PlanPtr child) {
  std::vector<ExprPtr> keys;
  for (const std::string& g : groups) keys.push_back(Col(g));
  std::vector<AggSpec> aggs = {{AggFunc::kCount, nullptr, "n"}};
  for (const char* arg : {"P.v", "P.rid", "P.t"}) {
    for (AggFunc fn : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                       AggFunc::kMax}) {
      aggs.push_back({fn, Col(arg), std::string(AggFuncToString(fn)) + arg});
    }
  }
  return MakeAggregate(std::move(keys), std::move(aggs), std::move(child));
}

/// Keeps every joined row, so the aggregate above reads filled batches.
PlanPtr KeepAll(PlanPtr join) {
  return MakeFilter(Expr::Compare(CompareOp::kGe, Col("P.rid"),
                                  Expr::Lit(Value::Int64(0))),
                    std::move(join));
}

struct AggShape {
  const char* name;
  std::vector<std::string> groups;
  std::function<PlanPtr()> join;
  bool folds;  // kernel mode hands the join's runs to the aggregate
};

TEST_F(JoinKernelTest, RunFoldedAggregatesAreBitIdenticalToFilledAndRowPaths) {
  // Values whose sums round, so any change of summation order shows.
  auto rounding = std::make_shared<Table>("Q", ProbeSchema("P"));
  const std::pair<const char*, int64_t> runs[] = {
      {"u1", 0}, {"u1", 1}, {"u2", 0}, {"u9", 0}, {"u3", 0}, {"u1", 2}};
  for (const auto& [uri, rid] : runs) {
    for (int i = 0; i < 1500; ++i) {
      const double row = static_cast<double>(rounding->num_rows());
      ASSERT_TRUE(rounding
                      ->AppendRow({Value::String(uri), Value::Int64(rid),
                                   Value::Timestamp(7 * rid + i),
                                   Value::Double(0.1 * row + 1.0 / (row + 3))})
                      .ok());
    }
  }
  Add(rounding, TableKind::kActual);
  const auto uri_rid = [](const std::string& build) {
    return Expr::And(Eq("P.uri", build + ".uri"), Eq("P.rid", build + ".rid"));
  };
  const std::vector<AggShape> shapes = {
      {"build-side string group key", {"BF.station"},
       [] { return MakeJoin(Eq("P.uri", "BF.uri"), MakeScan("P"), MakeScan("BF")); },
       true},
      {"no group", {},
       [&] { return MakeJoin(uri_rid("BR"), MakeScan("P"), MakeScan("BR")); },
       true},
      {"rounding sums over mounted tables, runs outside Q_f", {"BR.uri"},
       [&] {
         return MakeJoin(uri_rid("BR"), MakeUnion({MakeMount("P", "Q")}),
                         MakeScan("BR"));
       },
       true},
      {"incoming selection", {"BR.uri"},
       [&] {
         return MakeJoin(uri_rid("BR"),
                         MakeFilter(Expr::Compare(CompareOp::kGt, Col("P.v"),
                                                  Expr::Lit(Value::Double(-600.5))),
                                    MakeCacheScan("P", "u")),
                         MakeScan("BR"));
       },
       true},
      {"selective filter over a mounted table", {"BR.uri"},
       [&] {
         return MakeJoin(uri_rid("BR"),
                         MakeFilter(Expr::Compare(CompareOp::kLt, Col("P.v"),
                                                  Expr::Lit(Value::Double(-900.0))),
                                    MakeUnion({MakeMount("P", "P")})),
                         MakeScan("BR"));
       },
       true},
      {"groups spanning mounted branches", {"BF.station"},
       [] {
         return MakeJoin(Eq("P.uri", "BF.uri"),
                         MakeUnion({MakeMount("P", "Q"), MakeMount("P", "P2"),
                                    MakeMount("P", "P")}),
                         MakeScan("BF"));
       },
       true},
      {"empty input, grouped", {"BEmpty.station"},
       [] {
         return MakeJoin(Eq("P.uri", "BEmpty.uri"), MakeScan("P"),
                         MakeScan("BEmpty"));
       },
       false},
      {"empty input, no group", {},
       [] {
         return MakeJoin(Eq("P.uri", "BEmpty.uri"), MakeScan("P"),
                         MakeScan("BEmpty"));
       },
       false},
  };
  for (const AggShape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Run row = Execute(AggregateAll(shape.groups, shape.join()), false);
    const Run filled =
        Execute(AggregateAll(shape.groups, KeepAll(shape.join())), true);
    const Run fold = Execute(AggregateAll(shape.groups, shape.join()), true);
    EXPECT_EQ(filled.rows, row.rows);
    EXPECT_EQ(fold.rows, row.rows);
    EXPECT_EQ(fold.schema, row.schema);
    EXPECT_EQ(row.stats.agg_run_batches, 0u);
    EXPECT_EQ(filled.stats.agg_run_batches, 0u);
    EXPECT_EQ(fold.stats.scalar_agg_batches, 0u);
    if (shape.folds) {
      EXPECT_GT(fold.stats.agg_run_batches, 0u);
      // Hand-off batches still count as join and aggregate batches.
      EXPECT_EQ(fold.stats.agg_run_batches, fold.stats.kernel_agg_batches);
      EXPECT_EQ(fold.stats.kernel_agg_batches, filled.stats.kernel_agg_batches);
      EXPECT_EQ(fold.stats.kernel_join_batches,
                filled.stats.kernel_join_batches);
    } else {
      EXPECT_EQ(fold.stats.agg_run_batches, 0u);
    }
  }
}

TEST_F(JoinKernelTest, RefusedHandOffsKeepTheFilledPath) {
  const auto scan_p = [] { return MakeScan("P"); };
  const std::vector<AggShape> shapes = {
      {"residual", {"BF.station"},
       [&] {
         return MakeJoin(
             Expr::And(Eq("P.uri", "BF.uri"),
                       Expr::Compare(CompareOp::kLt, Col("P.v"),
                                     Expr::Lit(Value::Double(-420.25)))),
             scan_p(), MakeScan("BF"));
       },
       false},
      {"duplicate build keys", {"BDup.tag"},
       [&] { return MakeJoin(Eq("P.uri", "BDup.uri"), scan_p(), MakeScan("BDup")); },
       false},
      {"probe-side group key", {"P.uri"},
       [&] { return MakeJoin(Eq("P.uri", "BF.uri"), scan_p(), MakeScan("BF")); },
       false},
      {"two group keys", {"BF.station", "BF.uri"},
       [&] { return MakeJoin(Eq("P.uri", "BF.uri"), scan_p(), MakeScan("BF")); },
       false},
  };
  for (const AggShape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Run row = Execute(AggregateAll(shape.groups, shape.join()), false);
    const Run run = Execute(AggregateAll(shape.groups, shape.join()), true);
    EXPECT_FALSE(run.rows.empty());
    EXPECT_EQ(run.rows, row.rows);
    EXPECT_EQ(run.stats.agg_run_batches, 0u);
  }
}

TEST_F(JoinKernelTest, SelectiveFilterOverAMountedTableIsGatheredBeforeTheFill) {
  // P arrives as one 12 738-row batch; the filter keeps its first 400 rows.
  const auto plan = [] {
    return MakeJoin(Eq("P.uri", "BF.uri"),
                    MakeFilter(Expr::Compare(CompareOp::kLt, Col("P.v"),
                                             Expr::Lit(Value::Double(-900.0))),
                               MakeUnion({MakeMount("P", "P")})),
                    MakeScan("BF"));
  };
  const Run row = Execute(plan(), false);
  const Run run = Execute(plan(), true);
  EXPECT_EQ(run.rows, row.rows);
  EXPECT_EQ(std::count(run.rows.begin(), run.rows.end(), '\n'), 400);
  EXPECT_EQ(run.stats.kernel_join_batches, 1u);
  EXPECT_EQ(run.stats.selection_compactions, 1u);
}

TEST_F(JoinKernelTest, MountBranchIsOneBatchSharingItsTable) {
  const uint64_t before = probe_->ByteSize();
  const Run run = Execute(
      MakeJoin(Eq("P.uri", "BF.uri"),
               MakeUnion({MakeMount("P", "P"), MakeMount("P", "P2")}),
               MakeScan("BF")),
      true);
  // One probe batch per mounted table, although P holds 12 738 rows.
  EXPECT_EQ(run.stats.kernel_join_batches, 2u);
  EXPECT_EQ(run.stats.files_mounted, 2u);
  EXPECT_EQ(run.rows, Execute(MakeJoin(Eq("P.uri", "BF.uri"),
                                       MakeUnion({MakeScan("P"), MakeScan("P2")}),
                                       MakeScan("BF")),
                              false)
                          .rows);
  EXPECT_EQ(probe_->ByteSize(), before);
}

}  // namespace
}  // namespace dex

#include "engine/executor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "engine/optimizer.h"
#include "io/sim_disk.h"

namespace dex {
namespace {

/// Fixture with two small joined tables and one "mountable" source.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : disk_(), catalog_(&disk_) {
    // F(uri, station): 3 files.
    auto f_schema = std::make_shared<Schema>(
        Schema({{"uri", DataType::kString, "F"},
                {"station", DataType::kString, "F"}}));
    auto f = std::make_shared<Table>("F", f_schema);
    EXPECT_TRUE(f->AppendRow({Value::String("u1"), Value::String("ISK")}).ok());
    EXPECT_TRUE(f->AppendRow({Value::String("u2"), Value::String("ANK")}).ok());
    EXPECT_TRUE(f->AppendRow({Value::String("u3"), Value::String("ISK")}).ok());
    EXPECT_TRUE(catalog_.AddTable(f, TableKind::kMetadata).ok());

    // D(uri, n, value): 9 rows, 3 per file.
    auto d_schema = std::make_shared<Schema>(
        Schema({{"uri", DataType::kString, "D"},
                {"n", DataType::kInt64, "D"},
                {"value", DataType::kDouble, "D"}}));
    auto d = std::make_shared<Table>("D", d_schema);
    for (int file = 1; file <= 3; ++file) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(d->AppendRow({Value::String("u" + std::to_string(file)),
                                  Value::Int64(i),
                                  Value::Double(file * 10.0 + i)})
                        .ok());
      }
    }
    EXPECT_TRUE(catalog_.AddTable(d, TableKind::kActual).ok());
    EXPECT_TRUE(catalog_.SyncStorageSize("D").ok());
    ctx_.catalog = &catalog_;
  }

  Result<TablePtr> Run(PlanPtr plan) {
    DEX_RETURN_NOT_OK(AnalyzePlan(plan, catalog_));
    return ExecutePlan(plan, &ctx_);
  }

  SimDisk disk_;
  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, ScanProducesAllRows) {
  auto r = Run(MakeScan("D"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 9u);
  EXPECT_EQ(ctx_.stats.rows_scanned, 9u);
}

TEST_F(ExecutorTest, FilterSelects) {
  auto r = Run(MakeFilter(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("value"),
                    Expr::Lit(Value::Double(20.5))),
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 5u);  // 21, 22, 30, 31, 32
}

TEST_F(ExecutorTest, FilterAllPassZeroCopy) {
  auto r = Run(MakeFilter(Expr::Lit(Value::Bool(true)), MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 9u);
}

TEST_F(ExecutorTest, FilterNonePass) {
  auto r = Run(MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST_F(ExecutorTest, ProjectComputes) {
  auto r = Run(MakeProject(
      {Expr::ColumnRef("n"),
       Expr::Arith(ArithOp::kAdd, Expr::ColumnRef("value"),
                   Expr::Lit(Value::Int64(100)))},
      {"n", "shifted"}, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_columns(), 2u);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 1).dbl(), 110.0);
}

TEST_F(ExecutorTest, HashJoinMatchesOnKey) {
  auto r = Run(MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      MakeScan("D"), MakeScan("F")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 9u);  // every D row joins exactly one F row
  EXPECT_EQ((*r)->num_columns(), 5u);
}

TEST_F(ExecutorTest, HashJoinWithResidual) {
  // Join condition carries a non-equi conjunct.
  auto cond = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("D.n"),
                    Expr::Lit(Value::Int64(1))));
  auto r = Run(MakeJoin(cond, MakeScan("D"), MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);  // n == 2 per file
}

TEST_F(ExecutorTest, CartesianProductWhenNoEquiKeys) {
  auto r = Run(MakeJoin(Expr::Lit(Value::Bool(true)), MakeScan("D"),
                        MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 27u);
}

TEST_F(ExecutorTest, JoinSelectiveFilteredBuildSide) {
  auto r = Run(MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      MakeScan("D"),
      MakeFilter(Expr::Compare(CompareOp::kEq, Expr::ColumnRef("station"),
                               Expr::Lit(Value::String("ISK"))),
                 MakeScan("F"))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 6u);  // u1 and u3
}

TEST_F(ExecutorTest, AggregateWithoutGroups) {
  auto r = Run(MakeAggregate(
      {},
      {{AggFunc::kCount, nullptr, "n"},
       {AggFunc::kSum, Expr::ColumnRef("value"), "s"},
       {AggFunc::kAvg, Expr::ColumnRef("value"), "a"},
       {AggFunc::kMin, Expr::ColumnRef("value"), "lo"},
       {AggFunc::kMax, Expr::ColumnRef("value"), "hi"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 9);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 1).dbl(), 189.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 2).dbl(), 21.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 3).dbl(), 10.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 4).dbl(), 32.0);
}

TEST_F(ExecutorTest, AggregateGroupBy) {
  auto r = Run(MakeAggregate(
      {Expr::ColumnRef("uri")}, {{AggFunc::kCount, nullptr, "n"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*r)->GetValue(i, 1).int64(), 3);
  }
}

TEST_F(ExecutorTest, AggregateSumOfIntsIsInt) {
  auto r = Run(MakeAggregate(
      {}, {{AggFunc::kSum, Expr::ColumnRef("n"), "s"}}, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).type(), DataType::kInt64);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 9);  // (0+1+2)*3
}

TEST_F(ExecutorTest, AggregateEmptyInputNoGroups) {
  auto r = Run(MakeAggregate(
      {}, {{AggFunc::kCount, nullptr, "n"}},
      MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D"))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 0);
}

TEST_F(ExecutorTest, AggregateEmptyInputWithGroupsYieldsNoRows) {
  auto r = Run(MakeAggregate(
      {Expr::ColumnRef("uri")}, {{AggFunc::kCount, nullptr, "n"}},
      MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D"))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST_F(ExecutorTest, MinMaxOnStrings) {
  auto r = Run(MakeAggregate(
      {},
      {{AggFunc::kMin, Expr::ColumnRef("uri"), "lo"},
       {AggFunc::kMax, Expr::ColumnRef("uri"), "hi"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).str(), "u1");
  EXPECT_EQ((*r)->GetValue(0, 1).str(), "u3");
}

TEST_F(ExecutorTest, SortAscendingDescending) {
  auto asc = Run(MakeSort({{Expr::ColumnRef("value"), true}}, MakeScan("D")));
  ASSERT_TRUE(asc.ok());
  EXPECT_DOUBLE_EQ((*asc)->GetValue(0, 2).dbl(), 10.0);
  EXPECT_DOUBLE_EQ((*asc)->GetValue(8, 2).dbl(), 32.0);
  auto desc = Run(MakeSort({{Expr::ColumnRef("value"), false}}, MakeScan("D")));
  ASSERT_TRUE(desc.ok());
  EXPECT_DOUBLE_EQ((*desc)->GetValue(0, 2).dbl(), 32.0);
}

TEST_F(ExecutorTest, SortMultiKey) {
  auto r = Run(MakeSort({{Expr::ColumnRef("uri"), false},
                         {Expr::ColumnRef("n"), true}},
                        MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).str(), "u3");
  EXPECT_EQ((*r)->GetValue(0, 1).int64(), 0);
  EXPECT_EQ((*r)->GetValue(2, 1).int64(), 2);
}

TEST_F(ExecutorTest, LimitTruncates) {
  auto r = Run(MakeLimit(4, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 4u);
  auto zero = Run(MakeLimit(0, MakeScan("D")));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ((*zero)->num_rows(), 0u);
  auto big = Run(MakeLimit(1000, MakeScan("D")));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ((*big)->num_rows(), 9u);
}

TEST_F(ExecutorTest, UnionConcatenates) {
  auto r = Run(MakeUnion({MakeScan("D"), MakeScan("D")}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 18u);
}

TEST_F(ExecutorTest, ResultScanReadsNamedResult) {
  auto first = Run(MakeScan("F"));
  ASSERT_TRUE(first.ok());
  ctx_.named_results["saved"] = *first;
  auto r = Run(MakeResultScan("saved", (*first)->schema()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST_F(ExecutorTest, ResultScanMissingIdFails) {
  auto r = Run(MakeResultScan("ghost", std::make_shared<Schema>()));
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, MountCallsCallback) {
  int mounts = 0;
  ctx_.mount_fn = [&](const std::string& table, const std::string& uri,
                      const ExprPtr& pred) -> Result<TablePtr> {
    ++mounts;
    EXPECT_EQ(table, "D");
    EXPECT_EQ(uri, "u9");
    EXPECT_EQ(pred, nullptr);
    auto t = std::make_shared<Table>("D", (*catalog_.GetTable("D"))->schema());
    EXPECT_TRUE(
        t->AppendRow({Value::String("u9"), Value::Int64(0), Value::Double(1.0)})
            .ok());
    return TablePtr(t);
  };
  auto r = Run(MakeMount("D", "u9"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ(mounts, 1);
  EXPECT_EQ(ctx_.stats.files_mounted, 1u);
  EXPECT_EQ(ctx_.stats.mounted_rows, 1u);
}

TEST_F(ExecutorTest, MountWithoutCallbackFails) {
  auto r = Run(MakeMount("D", "u9"));
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, MountErrorPropagates) {
  ctx_.mount_fn = [&](const std::string&, const std::string& uri,
                      const ExprPtr&) -> Result<TablePtr> {
    return Status::IOError("file vanished: " + uri);
  };
  auto r = Run(MakeMount("D", "gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST_F(ExecutorTest, CacheScanUsesCacheCallback) {
  ctx_.cache_fn = [&](const std::string&,
                      const std::string&) -> Result<TablePtr> {
    auto t = std::make_shared<Table>("D", (*catalog_.GetTable("D"))->schema());
    EXPECT_TRUE(
        t->AppendRow({Value::String("uc"), Value::Int64(1), Value::Double(5.0)})
            .ok());
    return TablePtr(t);
  };
  auto r = Run(MakeCacheScan("D", "uc"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ(ctx_.stats.cache_scans, 1u);
}

// Under a Filter, a cache-scan streams only the rows of the filter's ranges
// over the table's run index, on a cache hit and on the evicted-entry
// fallback that mounts; batches span ranges. The Filter still decides, so
// the rows equal the kernels-off run, which streams every row.
TEST_F(ExecutorTest, CacheScanStreamsOnlyTheRunRangesOfItsFilter) {
  // Three runs of 6000 rows, each with n = 0..5999; the window keeps 3000
  // of each, 9000 rows in all: batches of kBatchSize that end inside a range
  // and span the next.
  auto indexed =
      std::make_shared<Table>("D", (*catalog_.GetTable("D"))->schema());
  for (int run = 0; run < 3; ++run) {
    for (int i = 0; i < 6000; ++i) {
      ASSERT_TRUE(indexed
                      ->AppendRow({Value::String("uc"), Value::Int64(i),
                                   Value::Double(run * 10000.0 + i)})
                      .ok());
    }
  }
  indexed->ExtendRunIndex(1, 0, {0, 6000, 12000});
  const ExprPtr window = Expr::And(
      Expr::Compare(CompareOp::kGe, Expr::ColumnRef("n"),
                    Expr::Lit(Value::Int64(1000))),
      Expr::Compare(CompareOp::kLt, Expr::ColumnRef("n"),
                    Expr::Lit(Value::Int64(4000))));
  for (bool evicted : {false, true}) {
    ctx_.cache_fn = [&](const std::string&,
                        const std::string&) -> Result<TablePtr> {
      if (evicted) return Status::NotFound("evicted");
      return TablePtr(indexed);
    };
    ctx_.mount_fn = [&](const std::string&, const std::string&,
                        const ExprPtr& pred) -> Result<TablePtr> {
      EXPECT_EQ(pred, nullptr);  // the fallback mounts the whole file
      return TablePtr(indexed);
    };
    std::vector<std::vector<std::string>> rows;
    for (bool kernels : {true, false}) {
      ctx_.stats = ExecStats{};
      ctx_.use_simd_kernels = kernels;
      auto r = Run(MakeFilter(window, MakeCacheScan("D", "uc")));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ((*r)->num_rows(), 9000u);
      EXPECT_EQ(ctx_.stats.range_skipped_rows, kernels ? 9000u : 0u);
      EXPECT_EQ(ctx_.stats.files_mounted, evicted ? 1u : 0u);
      rows.emplace_back();
      for (size_t i = 0; i < (*r)->num_rows(); ++i) {
        rows.back().push_back((*r)->GetValue(i, 2).ToString());
      }
    }
    EXPECT_EQ(rows[0], rows[1]) << "evicted=" << evicted;
  }
}

TEST_F(ExecutorTest, IndexJoinMatchesHashJoin) {
  ASSERT_TRUE(catalog_.BuildIndex("D", {"uri"}, "D_by_uri").ok());
  PlanPtr plan = MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("F.uri"),
                    Expr::ColumnRef("D.uri")),
      MakeScan("F"), MakeScan("D"));
  auto hash_result = Run(ClonePlan(plan));
  ASSERT_TRUE(hash_result.ok());
  ctx_.use_index_joins = true;
  auto index_result = Run(plan);
  ASSERT_TRUE(index_result.ok()) << index_result.status().ToString();
  EXPECT_EQ((*index_result)->num_rows(), (*hash_result)->num_rows());
  EXPECT_GT(ctx_.stats.index_probes, 0u);
}

TEST_F(ExecutorTest, IndexJoinHonorsRightFilter) {
  ASSERT_TRUE(catalog_.BuildIndex("D", {"uri"}, "D_by_uri").ok());
  ctx_.use_index_joins = true;
  PlanPtr plan = MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("F.uri"),
                    Expr::ColumnRef("D.uri")),
      MakeScan("F"),
      MakeFilter(Expr::Compare(CompareOp::kGt, Expr::ColumnRef("n"),
                               Expr::Lit(Value::Int64(0))),
                 MakeScan("D")));
  auto r = Run(plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 6u);  // n in {1, 2} per file
}

TEST_F(ExecutorTest, StageBreakIsTransparentInSingleStageExecution) {
  auto r = Run(MakeStageBreak(MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST_F(ExecutorTest, ScanChargesSimIoOnlyWhenEnabled) {
  disk_.FlushAll();
  const uint64_t t0 = disk_.stats().sim_nanos;
  ctx_.charge_io = false;
  ASSERT_TRUE(Run(MakeScan("D")).ok());
  EXPECT_EQ(disk_.stats().sim_nanos, t0);
  ctx_.charge_io = true;
  ASSERT_TRUE(Run(MakeScan("D")).ok());
  EXPECT_GT(disk_.stats().sim_nanos, t0);
}


// Grouped aggregates in kernel mode share one accumulator per argument
// column and fold runs of one group id. Every aggregate must stay
// bit-identical to the interpreter's (kernels off) on fractional values,
// with and without an incoming selection, over interleaved groups.
class SharedAccumulatorTest : public ::testing::Test {
 protected:
  SharedAccumulatorTest() : catalog_(&disk_) {
    auto schema = std::make_shared<Schema>(
        Schema({{"g", DataType::kString, "A"},
                {"d", DataType::kDouble, "A"},
                {"i", DataType::kInt64, "A"},
                {"ts", DataType::kTimestamp, "A"}}));
    auto a = std::make_shared<Table>("A", schema);
    // Runs of growing length cycle through the groups, so each batch sees
    // interleaved runs of several lengths; group z only has rows the filter
    // below removes.
    const char* cycle[] = {"a", "b", "a", "c", "z"};
    size_t row = 0;
    for (size_t run = 1; row < 10000; ++run) {
      const std::string g = cycle[run % 5];
      for (size_t k = 0; k < run % 37 + 1; ++k, ++row) {
        const double d = g == "z" ? -5e6 : static_cast<double>(row) * 0.1 +
                                               1e6 * static_cast<double>(row % 7);
        EXPECT_TRUE(a->AppendRow({Value::String(g), Value::Double(d),
                                  Value::Int64(static_cast<int64_t>(row) * 977 -
                                               4000000),
                                  Value::Timestamp(static_cast<int64_t>(row) *
                                                   33)})
                        .ok());
      }
    }
    EXPECT_TRUE(catalog_.AddTable(a, TableKind::kActual).ok());
  }

  std::string Run(const PlanPtr& plan, bool kernels, ExecStats* stats) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.charge_io = false;
    ctx.use_simd_kernels = kernels;
    EXPECT_TRUE(AnalyzePlan(plan, catalog_).ok());
    auto r = ExecutePlan(plan, &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    *stats = ctx.stats;
    if (!r.ok()) return "";
    std::string out;
    char buf[48];
    for (size_t row = 0; row < (*r)->num_rows(); ++row) {
      for (size_t c = 0; c < (*r)->num_columns(); ++c) {
        const Value v = (*r)->GetValue(row, c);
        if (v.type() == DataType::kDouble) {
          std::snprintf(buf, sizeof(buf), "%a", v.dbl());  // every bit
          out += buf;
        } else {
          out += v.ToString();
        }
        out += "|";
      }
      out += "\n";
    }
    return out;
  }

  static std::vector<AggSpec> AllAggregates() {
    std::vector<AggSpec> aggs;
    int n = 0;
    for (const char* col : {"d", "i", "ts"}) {
      for (AggFunc fn : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                         AggFunc::kMin, AggFunc::kMax}) {
        if (fn == AggFunc::kSum && std::string(col) == "ts") continue;
        aggs.push_back({fn, Expr::ColumnRef(col), "agg_" + std::to_string(n++)});
      }
    }
    aggs.push_back({AggFunc::kCount, nullptr, "agg_" + std::to_string(n++)});
    return aggs;
  }

  SimDisk disk_;
  Catalog catalog_;
};

TEST_F(SharedAccumulatorTest, BitIdenticalToInterpreter) {
  const auto filter = [](double lo) {
    return MakeFilter(Expr::Compare(CompareOp::kGt, Expr::ColumnRef("d"),
                                    Expr::Lit(Value::Double(lo))),
                      MakeScan("A"));
  };
  struct Input {
    const char* name;
    std::function<PlanPtr()> plan;
  };
  const std::vector<Input> inputs = {
      {"dense", [] { return MakeScan("A"); }},
      {"selection", [&] { return filter(2.5e5); }},
      {"empty", [&] { return filter(1e18); }},
  };
  for (const Input& input : inputs) {
    for (bool grouped : {true, false}) {
      SCOPED_TRACE(std::string(input.name) + (grouped ? " grouped" : ""));
      std::vector<ExprPtr> groups;
      if (grouped) groups.push_back(Expr::ColumnRef("g"));
      ExecStats on_stats, off_stats;
      const std::string on =
          Run(MakeAggregate(groups, AllAggregates(), input.plan()), true,
              &on_stats);
      const std::string off =
          Run(MakeAggregate(groups, AllAggregates(), input.plan()), false,
              &off_stats);
      const bool empty = std::string(input.name) == "empty";
      EXPECT_EQ(on, off);
      // Empty input: no groups, or the one all-zero row without GROUP BY.
      EXPECT_EQ(on.empty(), empty && grouped);
      EXPECT_EQ(off_stats.kernel_agg_batches, 0u);
      if (!empty) {
        EXPECT_GT(on_stats.kernel_agg_batches, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace dex

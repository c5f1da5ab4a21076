#include "engine/kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/random.h"
#include "engine/batch.h"

namespace dex {
namespace {

using kernel::NumericAgg;

bool ScalarCompare(double a, CompareOp op, double b) {
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return a >= b;
  }
  return false;
}

const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

TEST(KernelFilter, F64MatchesScalarReferenceForEveryOp) {
  Random rng(7);
  std::vector<double> v(1000);
  for (double& x : v) x = static_cast<double>(rng.Uniform(100));
  for (CompareOp op : kAllOps) {
    std::vector<uint32_t> sel(v.size());
    const size_t k = kernel::FilterF64(v.data(), v.size(), op, 50.0, sel.data());
    std::vector<uint32_t> expect;
    for (size_t i = 0; i < v.size(); ++i) {
      if (ScalarCompare(v[i], op, 50.0)) expect.push_back(i);
    }
    ASSERT_EQ(k, expect.size());
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(sel[i], expect[i]);
  }
}

TEST(KernelFilter, I64MatchesScalarReferenceForEveryOp) {
  Random rng(11);
  std::vector<int64_t> v(1000);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Uniform(100)) - 50;
  for (CompareOp op : kAllOps) {
    std::vector<uint32_t> sel(v.size());
    const size_t k = kernel::FilterI64(v.data(), v.size(), op, 0, sel.data());
    std::vector<uint32_t> expect;
    for (size_t i = 0; i < v.size(); ++i) {
      if (ScalarCompare(static_cast<double>(v[i]), op, 0.0)) {
        expect.push_back(i);
      }
    }
    ASSERT_EQ(k, expect.size());
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(sel[i], expect[i]);
  }
}

TEST(KernelFilter, RefineIsConjunction) {
  std::vector<int64_t> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i);
  std::vector<uint32_t> sel(v.size());
  size_t k = kernel::FilterI64(v.data(), v.size(), CompareOp::kGe, 10,
                               sel.data());
  k = kernel::RefineI64(v.data(), CompareOp::kLt, 20, sel.data(), k);
  ASSERT_EQ(k, 10u);
  for (size_t i = 0; i < k; ++i) EXPECT_EQ(sel[i], 10u + i);
}

TEST(KernelFilter, EmptyInputYieldsEmptySelection) {
  std::vector<uint32_t> sel(1);
  EXPECT_EQ(kernel::FilterF64(nullptr, 0, CompareOp::kEq, 0.0, sel.data()), 0u);
  EXPECT_EQ(kernel::RefineF64(nullptr, CompareOp::kEq, 0.0, sel.data(), 0), 0u);
}

TEST(KernelAgg, DenseAndSelectedAgree) {
  Random rng(23);
  std::vector<double> v(777);
  for (double& x : v) x = static_cast<double>(rng.Uniform(1000)) / 3.0;
  const NumericAgg dense = kernel::AggF64(v.data(), v.size());
  std::vector<uint32_t> all(v.size());
  for (size_t i = 0; i < v.size(); ++i) all[i] = static_cast<uint32_t>(i);
  const NumericAgg selected =
      kernel::AggF64Selected(v.data(), all.data(), all.size());
  EXPECT_EQ(dense.min, selected.min);
  EXPECT_EQ(dense.max, selected.max);
  EXPECT_EQ(dense.sum, selected.sum);
  EXPECT_EQ(dense.count, selected.count);

  double mn = v[0], mx = v[0], sum = 0;
  for (double x : v) {
    mn = std::min(mn, x);
    mx = std::max(mx, x);
    sum += x;
  }
  EXPECT_EQ(dense.min, mn);
  EXPECT_EQ(dense.max, mx);
  EXPECT_EQ(dense.sum, sum);
}

TEST(KernelAgg, I64KeepsExactIntegerResults) {
  // Values near 2^53 where double accumulation would lose exactness.
  std::vector<int64_t> v = {(1LL << 53) + 1, 1, -2, 5};
  const NumericAgg a = kernel::AggI64(v.data(), v.size());
  EXPECT_EQ(a.isum, (1LL << 53) + 5);
  EXPECT_EQ(a.imin, -2);
  EXPECT_EQ(a.imax, (1LL << 53) + 1);
  EXPECT_EQ(a.count, 4u);
}

TEST(KernelAgg, EmptySpanIsZeroed) {
  const NumericAgg a = kernel::AggF64(nullptr, 0);
  EXPECT_EQ(a.count, 0u);
  EXPECT_EQ(a.sum, 0.0);
}

TEST(KernelGroupBy, AssignsDenseSlotsInFirstSeenOrder) {
  const std::vector<int32_t> codes = {4, 2, 4, 7, 2, 2, 0};
  std::vector<int32_t> code_to_group, group_codes;
  std::vector<uint32_t> gid(codes.size());
  kernel::GroupByCodes(codes.data(), nullptr, 0, codes.size(), &code_to_group,
                       &group_codes, gid.data());
  ASSERT_EQ(group_codes.size(), 4u);  // 4, 2, 7, 0 in first-seen order
  EXPECT_EQ(group_codes[0], 4);
  EXPECT_EQ(group_codes[1], 2);
  EXPECT_EQ(group_codes[2], 7);
  EXPECT_EQ(group_codes[3], 0);
  const std::vector<uint32_t> expect_gid = {0, 1, 0, 2, 1, 1, 3};
  for (size_t i = 0; i < codes.size(); ++i) EXPECT_EQ(gid[i], expect_gid[i]);
}

TEST(KernelGroupBy, SelectionRestrictsRows) {
  const std::vector<int32_t> codes = {1, 2, 3, 2, 1};
  const std::vector<uint32_t> sel = {1, 3};  // only the two code-2 rows
  std::vector<int32_t> code_to_group, group_codes;
  std::vector<uint32_t> gid(sel.size());
  kernel::GroupByCodes(codes.data(), sel.data(), sel.size(), codes.size(),
                       &code_to_group, &group_codes, gid.data());
  ASSERT_EQ(group_codes.size(), 1u);
  EXPECT_EQ(group_codes[0], 2);
  EXPECT_EQ(gid[0], 0u);
  EXPECT_EQ(gid[1], 0u);
}

TEST(KernelGroupBy, GroupedAccumulationMatchesScalar) {
  Random rng(41);
  const size_t n = 500;
  std::vector<int32_t> codes(n);
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int32_t>(rng.Uniform(8));
    vals[i] = static_cast<double>(rng.Uniform(1000));
  }
  std::vector<int32_t> code_to_group, group_codes;
  std::vector<uint32_t> gid(n);
  kernel::GroupByCodes(codes.data(), nullptr, 0, n, &code_to_group,
                       &group_codes, gid.data());
  const size_t groups = group_codes.size();
  std::vector<double> mn(groups, 0), mx(groups, 0), sum(groups, 0);
  std::vector<uint8_t> seen(groups, 0);
  kernel::GroupAccumF64(vals.data(), nullptr, n, gid.data(), mn.data(),
                        mx.data(), sum.data(), seen.data());
  for (size_t g = 0; g < groups; ++g) {
    double emn = 0, emx = 0, esum = 0;
    uint64_t ecount = 0;
    for (size_t i = 0; i < n; ++i) {
      if (codes[i] != group_codes[g]) continue;
      if (ecount == 0) {
        emn = emx = vals[i];
      } else {
        emn = std::min(emn, vals[i]);
        emx = std::max(emx, vals[i]);
      }
      esum += vals[i];
      ++ecount;
    }
    ASSERT_TRUE(seen[g]);
    EXPECT_EQ(mn[g], emn);
    EXPECT_EQ(mx[g], emx);
    EXPECT_EQ(sum[g], esum);
  }
}

SchemaPtr LoweringSchema() {
  return std::make_shared<Schema>(Schema({{"i", DataType::kInt64, "t"},
                                          {"ts", DataType::kTimestamp, "t"},
                                          {"d", DataType::kDouble, "t"},
                                          {"s", DataType::kString, "t"}}));
}

ExprPtr BindTo(const ExprPtr& e, const Schema& schema) {
  auto bound = e->Bind(schema);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? *bound : nullptr;
}

TEST(KernelLowering, NonIntegralDoubleAgainstIntegerColumnDoesNotLower) {
  const SchemaPtr schema = LoweringSchema();
  std::vector<kernel::KernelConjunct> out;
  // Rounding 3.5 to an integer bound would change which rows pass.
  EXPECT_FALSE(kernel::LowerPredicate(
      BindTo(Expr::Compare(CompareOp::kLt, Expr::ColumnRef("i"),
                           Expr::Lit(Value::Double(3.5))),
             *schema),
      *schema, &out));
  EXPECT_FALSE(kernel::LowerPredicate(
      BindTo(Expr::Compare(CompareOp::kGt, Expr::Lit(Value::Double(-0.25)),
                           Expr::ColumnRef("i")),
             *schema),
      *schema, &out));
  // Nor does one outside int64's range: converting it is undefined.
  for (double huge : {1e30, -1e30, 9223372036854775808.0}) {
    EXPECT_FALSE(kernel::LowerPredicate(
        BindTo(Expr::Compare(CompareOp::kLt, Expr::ColumnRef("i"),
                             Expr::Lit(Value::Double(huge))),
               *schema),
        *schema, &out))
        << huge;
  }
  // An exactly representable one lowers to an integer comparison.
  ASSERT_TRUE(kernel::LowerPredicate(
      BindTo(Expr::Compare(CompareOp::kLt, Expr::ColumnRef("i"),
                           Expr::Lit(Value::Double(3.0))),
             *schema),
      *schema, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].is_f64);
  EXPECT_EQ(out[0].i64, 3);
  // Timestamps compare against integer literals (epoch millis) only.
  ASSERT_TRUE(kernel::LowerPredicate(
      BindTo(Expr::Compare(CompareOp::kLt, Expr::ColumnRef("ts"),
                           Expr::Lit(Value::Int64(1000))),
             *schema),
      *schema, &out));
  EXPECT_FALSE(out[0].is_f64);
  EXPECT_EQ(out[0].i64, 1000);
}

TEST(KernelLowering, FlipsLiteralOnTheLeftAndSplitsConjuncts) {
  const SchemaPtr schema = LoweringSchema();
  std::vector<kernel::KernelConjunct> out;
  ASSERT_TRUE(kernel::LowerPredicate(
      BindTo(Expr::And(Expr::Compare(CompareOp::kLt, Expr::Lit(Value::Int64(5)),
                                     Expr::ColumnRef("d")),
                       Expr::Compare(CompareOp::kGe, Expr::ColumnRef("ts"),
                                     Expr::Lit(Value::Timestamp(7)))),
             *schema),
      *schema, &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].col, 2);
  EXPECT_EQ(out[0].op, CompareOp::kGt);  // 5 < d  ==  d > 5
  EXPECT_TRUE(out[0].is_f64);
  EXPECT_EQ(out[0].f64, 5.0);
  EXPECT_EQ(out[1].col, 1);
  EXPECT_EQ(out[1].op, CompareOp::kGe);
  EXPECT_EQ(out[1].i64, 7);
  // String columns and non-comparison shapes stay on the interpreter.
  EXPECT_FALSE(kernel::LowerPredicate(
      BindTo(Expr::Compare(CompareOp::kEq, Expr::ColumnRef("s"),
                           Expr::Lit(Value::String("x"))),
             *schema),
      *schema, &out));
  EXPECT_FALSE(kernel::LowerPredicate(
      BindTo(Expr::Or(Expr::Compare(CompareOp::kLt, Expr::ColumnRef("i"),
                                    Expr::Lit(Value::Int64(1))),
                      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("i"),
                                    Expr::Lit(Value::Int64(9)))),
             *schema),
      *schema, &out));
}

TEST(KernelLowering, SelectorKernelsMatchInterpreter) {
  const SchemaPtr schema = LoweringSchema();
  Random rng(17);
  Batch base = Batch::Empty(schema);
  for (int r = 0; r < 500; ++r) {
    base.columns[0]->AppendInt64(rng.UniformRange(-20, 20));
    base.columns[1]->AppendInt64(rng.UniformRange(0, 1000));
    base.columns[2]->AppendDouble(static_cast<double>(rng.Uniform(100)) / 4);
    base.columns[3]->AppendString(rng.NextBool(0.5) ? "a" : "b");
  }
  const ExprPtr pred = BindTo(
      Expr::And(Expr::Compare(CompareOp::kGe, Expr::ColumnRef("i"),
                              Expr::Lit(Value::Int64(-5))),
                Expr::Compare(CompareOp::kLt, Expr::Lit(Value::Double(10.5)),
                              Expr::ColumnRef("d"))),
      *schema);
  const kernel::PredicateSelector kernels(pred, *schema, true);
  const kernel::PredicateSelector interpreter(pred, *schema, false);
  ASSERT_TRUE(kernels.uses_kernels());
  ASSERT_FALSE(interpreter.uses_kernels());
  // Dense input, then an incoming selection of every third row.
  for (bool preselect : {false, true}) {
    std::vector<uint32_t> by_kernels, by_interpreter;
    Batch a = base;
    Batch b = base;
    if (preselect) {
      for (uint32_t r = 0; r < 500; r += 3) a.selection.push_back(r);
      a.has_selection = true;
      b.selection = a.selection;
      b.has_selection = true;
    }
    ASSERT_TRUE(kernels.Select(&a, &by_kernels).ok());
    ASSERT_TRUE(interpreter.Select(&b, &by_interpreter).ok());
    // The interpreter compacted `b`: map its dense indices back.
    std::vector<uint32_t> mapped;
    for (uint32_t r : by_interpreter) {
      mapped.push_back(preselect ? r * 3 : r);
    }
    EXPECT_FALSE(by_kernels.empty());
    EXPECT_EQ(by_kernels, mapped) << "preselect=" << preselect;
  }
}

/// A LoweringSchema() table whose `ts` column is cut into run-indexed runs
/// that never decrease (with repeats), start anywhere and overlap.
Table RunTable(Random* rng) {
  Table t("t", LoweringSchema());
  std::vector<size_t> starts;
  for (int r = 0; r < 8; ++r) {
    starts.push_back(t.num_rows());
    int64_t ts = rng->UniformRange(0, 60);
    const int n = static_cast<int>(rng->UniformRange(1, 20));
    for (int i = 0; i < n; ++i) {
      ts += static_cast<int64_t>(rng->Uniform(3));
      EXPECT_TRUE(t.AppendRow({Value::Int64(i), Value::Timestamp(ts),
                               Value::Double(0), Value::String("x")})
                      .ok());
    }
  }
  t.ExtendRunIndex(1, 0, starts);
  return t;
}

kernel::KernelConjunct OnColumn(int col, CompareOp op, int64_t lit) {
  kernel::KernelConjunct c;
  c.col = col;
  c.op = op;
  c.i64 = lit;
  return c;
}

bool Satisfies(const Table& t, size_t row,
               const std::vector<kernel::KernelConjunct>& conjuncts) {
  for (const kernel::KernelConjunct& c : conjuncts) {
    const int64_t v = t.column(static_cast<size_t>(c.col))->GetInt64(row);
    const bool pass = c.op == CompareOp::kEq   ? v == c.i64
                      : c.op == CompareOp::kNe ? v != c.i64
                      : c.op == CompareOp::kLt ? v < c.i64
                      : c.op == CompareOp::kLe ? v <= c.i64
                      : c.op == CompareOp::kGt ? v > c.i64
                                               : v >= c.i64;
    if (!pass) return false;
  }
  return true;
}

TEST(KernelRanges, ResolvedRangesMatchAScanForEveryOpAndBound) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t lits[] = {kMin, kMin + 1, -1, 0, 7, 30, 45, 61, 200,
                          kMax - 1, kMax};
  Random rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Table t = RunTable(&rng);
    ASSERT_NE(t.run_starts(), nullptr);
    for (int q = 0; q < 200; ++q) {
      std::vector<kernel::KernelConjunct> conjuncts;
      const int n = static_cast<int>(rng.UniformRange(1, 3));
      bool bounds = false, all_bounds = true;
      for (int k = 0; k < n; ++k) {
        const CompareOp op = kAllOps[rng.Uniform(6)];
        const int64_t lit = rng.NextBool(0.3)
                                ? lits[rng.Uniform(std::size(lits))]
                                : rng.UniformRange(-5, 120);
        conjuncts.push_back(OnColumn(1, op, lit));
        bounds |= op != CompareOp::kNe;
        all_bounds &= op != CompareOp::kNe;
      }
      std::vector<RowRange> ranges;
      bool exact = false;
      const bool restricts =
          kernel::ResolveRowRanges(t, conjuncts, &ranges, &exact);
      ASSERT_EQ(restricts, bounds);
      if (!restricts) continue;
      EXPECT_EQ(exact, all_bounds);
      std::vector<bool> in_range(t.num_rows(), false);
      for (size_t r = 0; r < ranges.size(); ++r) {
        ASSERT_LT(ranges[r].begin, ranges[r].end);
        if (r > 0) ASSERT_LT(ranges[r - 1].end, ranges[r].begin);  // merged
        for (size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
          in_range[i] = true;
        }
      }
      for (size_t i = 0; i < t.num_rows(); ++i) {
        const bool match = Satisfies(t, i, conjuncts);
        if (match) EXPECT_TRUE(in_range[i]) << "row " << i;
        if (exact) EXPECT_EQ(in_range[i], match) << "row " << i;
      }
    }
  }
}

TEST(KernelRanges, OnlyBoundsOnTheIndexedColumnRestrict) {
  Random rng(29);
  const Table t = RunTable(&rng);
  std::vector<RowRange> ranges;
  bool exact = true;
  // Another column, or `<>`, never restricts.
  EXPECT_FALSE(kernel::ResolveRowRanges(
      t, {OnColumn(0, CompareOp::kLt, 3)}, &ranges));
  EXPECT_FALSE(kernel::ResolveRowRanges(
      t, {OnColumn(1, CompareOp::kNe, 30)}, &ranges));
  // With a bound beside them, the ranges cover the bound but are not exact.
  ASSERT_TRUE(kernel::ResolveRowRanges(
      t, {OnColumn(0, CompareOp::kLt, 3), OnColumn(1, CompareOp::kGe, 30)},
      &ranges, &exact));
  EXPECT_FALSE(exact);
  // Past the int64 extremes a strict bound keeps nothing.
  ASSERT_TRUE(kernel::ResolveRowRanges(
      t,
      {OnColumn(1, CompareOp::kGt, std::numeric_limits<int64_t>::max())},
      &ranges, &exact));
  EXPECT_TRUE(ranges.empty());
  EXPECT_TRUE(exact);
  ASSERT_TRUE(kernel::ResolveRowRanges(
      t,
      {OnColumn(1, CompareOp::kLt, std::numeric_limits<int64_t>::min())},
      &ranges));
  EXPECT_TRUE(ranges.empty());
  // An inclusive bound at an extreme keeps every run, merged into one.
  ASSERT_TRUE(kernel::ResolveRowRanges(
      t,
      {OnColumn(1, CompareOp::kGe, std::numeric_limits<int64_t>::min())},
      &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, t.num_rows());

  // A table without an index, and a selector on the interpreter path, do
  // not restrict at all.
  Table plain("t", LoweringSchema());
  ASSERT_TRUE(plain.AppendTable(t).ok());
  EXPECT_FALSE(kernel::ResolveRowRanges(
      plain, {OnColumn(1, CompareOp::kGe, 30)}, &ranges));
  const ExprPtr pred =
      BindTo(Expr::Compare(CompareOp::kGe, Expr::ColumnRef("ts"),
                           Expr::Lit(Value::Timestamp(30))),
             *t.schema());
  EXPECT_TRUE(kernel::PredicateSelector(pred, *t.schema(), true)
                  .ResolveRanges(t, &ranges));
  EXPECT_FALSE(kernel::PredicateSelector(pred, *t.schema(), false)
                   .ResolveRanges(t, &ranges));
}

TEST(BatchSelection, CompactGathersSelectedRowsAndDropsVector) {
  auto schema = std::make_shared<Schema>(
      Schema({{"s", DataType::kString, "t"}, {"x", DataType::kInt64, "t"}}));
  Batch b = Batch::Empty(schema);
  for (int i = 0; i < 6; ++i) {
    b.columns[0]->AppendString(i % 2 == 0 ? "even" : "odd");
    b.columns[1]->AppendInt64(i);
  }
  b.selection = {1, 3, 5};
  b.has_selection = true;
  EXPECT_EQ(b.num_rows(), 3u);
  EXPECT_EQ(b.physical_rows(), 6u);
  EXPECT_TRUE(b.Compact());
  EXPECT_FALSE(b.has_selection);
  ASSERT_EQ(b.num_rows(), 3u);
  EXPECT_EQ(b.columns[1]->GetInt64(0), 1);
  EXPECT_EQ(b.columns[1]->GetInt64(2), 5);
  EXPECT_EQ(b.columns[0]->GetString(1), "odd");
  EXPECT_FALSE(b.Compact());  // already dense: no-op
}

}  // namespace
}  // namespace dex

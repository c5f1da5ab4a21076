#include "storage/table.h"

#include <gtest/gtest.h>

namespace dex {
namespace {

SchemaPtr TwoColSchema() {
  return std::make_shared<Schema>(Schema(
      {{"name", DataType::kString, "T"}, {"n", DataType::kInt64, "T"}}));
}

TEST(TableTest, StartsEmptyWithColumnsMatchingSchema) {
  Table t("T", TwoColSchema());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.column(0)->type(), DataType::kString);
  EXPECT_EQ(t.column(1)->type(), DataType::kInt64);
}

TEST(TableTest, AppendRowAndGet) {
  Table t("T", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::Int64(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("b"), Value::Int64(2)}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(1, 0).str(), "b");
  EXPECT_EQ(t.GetValue(0, 1).int64(), 1);
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t("T", TwoColSchema());
  EXPECT_TRUE(t.AppendRow({Value::String("a")}).IsInvalidArgument());
}

TEST(TableTest, AppendRowTypeMismatchNamesColumn) {
  Table t("T", TwoColSchema());
  const Status s = t.AppendRow({Value::Int64(1), Value::Int64(2)});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("'name'"), std::string::npos);
}

TEST(TableTest, AppendTable) {
  Table a("A", TwoColSchema());
  ASSERT_TRUE(a.AppendRow({Value::String("x"), Value::Int64(1)}).ok());
  Table b("B", TwoColSchema());
  ASSERT_TRUE(b.AppendRow({Value::String("y"), Value::Int64(2)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::String("z"), Value::Int64(3)}).ok());
  ASSERT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.GetValue(2, 0).str(), "z");
}

TEST(TableTest, AppendTableSchemaMismatch) {
  Table a("A", TwoColSchema());
  Table c("C", std::make_shared<Schema>(
                   Schema({{"only", DataType::kInt64, "C"}})));
  EXPECT_FALSE(a.AppendTable(c).ok());
}

TEST(TableTest, CommitAppendedRowsValidatesColumnLengths) {
  Table t("T", TwoColSchema());
  t.mutable_column(0)->AppendString("a");
  // Column 1 not appended: commit must fail.
  EXPECT_TRUE(t.CommitAppendedRows(1).IsInternal());
  t.mutable_column(1)->AppendInt64(7);
  ASSERT_TRUE(t.CommitAppendedRows(1).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, ByteSizeGrowsWithData) {
  Table t("T", TwoColSchema());
  const uint64_t before = t.ByteSize();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("s"), Value::Int64(i)}).ok());
  }
  EXPECT_GT(t.ByteSize(), before + 100 * 8);
}

TEST(TableTest, ToStringTruncatesLongTables) {
  Table t("T", TwoColSchema());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("r"), Value::Int64(i)}).ok());
  }
  const std::string s = t.ToString(5);
  EXPECT_NE(s.find("25 more rows"), std::string::npos);
  EXPECT_NE(s.find("T.name"), std::string::npos);
}

// A range copy stands in for a gather of the same rows, so it must weigh
// the same: an empty string column adopts the source's dictionary even when
// no row is copied, as AppendGather does.
TEST(TableTest, AppendRangesWeighsLikeAGatherOfTheSameRows) {
  Table src("T", TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        src.AppendRow({Value::String(i < 5 ? "a" : "b"), Value::Int64(i)}).ok());
  }
  const std::vector<std::vector<RowRange>> cases = {
      {}, {{2, 4}}, {{0, 1}, {3, 7}, {9, 10}}};
  for (const std::vector<RowRange>& ranges : cases) {
    std::vector<uint32_t> rows;
    for (const RowRange& r : ranges) {
      for (size_t i = r.begin; i < r.end; ++i) rows.push_back(i);
    }
    Table copied("T", TwoColSchema());
    ASSERT_TRUE(copied.AppendRanges(src, ranges).ok());
    Table gathered("T", TwoColSchema());
    for (size_t c = 0; c < 2; ++c) {
      gathered.mutable_column(c)->AppendGather(*src.column(c), rows);
    }
    ASSERT_TRUE(gathered.CommitAppendedRows(rows.size()).ok());
    ASSERT_EQ(copied.num_rows(), rows.size());
    EXPECT_EQ(CountRows(ranges), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(copied.GetValue(r, 0), gathered.GetValue(r, 0));
      EXPECT_EQ(copied.GetValue(r, 1), gathered.GetValue(r, 1));
    }
    EXPECT_EQ(copied.column(0)->dict(), src.column(0)->dict());
    EXPECT_EQ(copied.ByteSize(), gathered.ByteSize()) << rows.size();
  }
}

}  // namespace
}  // namespace dex

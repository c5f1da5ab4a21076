#ifndef DEX_STORAGE_TABLE_H_
#define DEX_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace dex {

/// A half-open range [begin, end) of row positions.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Rows in `ranges`, summed.
inline size_t CountRows(const std::vector<RowRange>& ranges) {
  size_t n = 0;
  for (const RowRange& r : ranges) n += r.end - r.begin;
  return n;
}

/// \brief A named columnar table: a schema plus one Column per field.
///
/// Tables serve three roles in the system: eagerly loaded base tables (Ei),
/// metadata tables (always loaded), and materialized intermediate results
/// (e.g. the stage-1 result read back through the result-scan access path).
class Table {
 public:
  Table(std::string name, SchemaPtr schema);

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const ColumnPtr& column(size_t i) const { return columns_[i]; }
  Column* mutable_column(size_t i) { return columns_[i].get(); }

  /// Appends one row given as values in schema order.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends all rows of `other` (schemas must be type-compatible).
  Status AppendTable(const Table& other);

  /// Declare that `n` rows were appended directly through mutable_column
  /// bulk APIs (all columns must have size() == num_rows() + n).
  Status CommitAppendedRows(size_t n);

  /// Appends the rows of `src` (same column types) in `ranges`, ascending.
  /// Like AppendGather of the same rows, an empty string column adopts the
  /// source's dictionary even when no row is copied, so the copy weighs
  /// (ByteSize) exactly what a gathered one does.
  Status AppendRanges(const Table& src, const std::vector<RowRange>& ranges);

  // -- Record-run index --------------------------------------------------
  /// Declares the rows appended since row `first` (the row count before
  /// that append) as runs of int64-backed column `column`: one run from
  /// each of `starts` (ascending row positions, the first equal to `first`)
  /// to the next, the last one to num_rows(). Within a run the column never
  /// decreases. Extends the index when it covered every row before `first`
  /// (an empty table qualifies); otherwise the table keeps none.
  void ExtendRunIndex(size_t column, size_t first,
                      const std::vector<size_t>& starts);
  /// The first row of each run, or null when the table has no run index:
  /// it was never built, or a later append outside ExtendRunIndex left rows
  /// it does not cover.
  const std::vector<size_t>* run_starts() const {
    return has_run_index_ && run_rows_ == num_rows_ ? &run_starts_ : nullptr;
  }
  /// The column the run index orders (meaningful when run_starts() is set).
  size_t run_column() const { return run_column_; }

  Value GetValue(size_t row, size_t col) const {
    return columns_[col]->GetValue(row);
  }

  /// A table of the columns at `indices`, in that order, sharing rather
  /// than copying them.
  std::shared_ptr<Table> SelectColumns(const std::vector<size_t>& indices) const;

  /// Sum of column footprints in bytes (the "MonetDB size" of Table 1).
  uint64_t ByteSize() const;

  /// Renders at most `max_rows` rows as an aligned ASCII table.
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::string name_;
  SchemaPtr schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_ = 0;
  bool has_run_index_ = false;
  size_t run_column_ = 0;
  std::vector<size_t> run_starts_;
  size_t run_rows_ = 0;  // rows the run index covers
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace dex

#endif  // DEX_STORAGE_TABLE_H_

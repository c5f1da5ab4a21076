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
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace dex

#endif  // DEX_STORAGE_TABLE_H_

#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

namespace dex {

Table::Table(std::string name, SchemaPtr schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  DEX_CHECK(schema_ != nullptr);
  columns_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) {
    columns_.push_back(std::make_shared<Column>(f.type));
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " values, table '" + name_ +
        "' has " + std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    DEX_RETURN_NOT_OK(columns_[i]->AppendValue(values[i]).WithContext(
        "column '" + schema_->field(i).name + "'"));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("column count mismatch appending '" +
                                   other.name_ + "' to '" + name_ + "'");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->type() != other.columns_[i]->type()) {
      return Status::InvalidArgument("type mismatch in column " +
                                     std::to_string(i));
    }
    columns_[i]->AppendRange(*other.columns_[i], 0, other.num_rows());
  }
  num_rows_ += other.num_rows();
  return Status::OK();
}

Status Table::CommitAppendedRows(size_t n) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->size() != num_rows_ + n) {
      return Status::Internal("column " + std::to_string(i) + " of '" + name_ +
                              "' has " + std::to_string(columns_[i]->size()) +
                              " rows, expected " + std::to_string(num_rows_ + n));
    }
  }
  num_rows_ += n;
  return Status::OK();
}

Status Table::AppendRanges(const Table& src,
                           const std::vector<RowRange>& ranges) {
  if (src.num_columns() != num_columns()) {
    return Status::InvalidArgument("column count mismatch appending '" +
                                   src.name_ + "' to '" + name_ + "'");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column* col = columns_[c].get();
    if (ranges.empty()) col->AppendRange(*src.columns_[c], 0, 0);
    for (const RowRange& r : ranges) {
      col->AppendRange(*src.columns_[c], r.begin, r.end - r.begin);
    }
  }
  return CommitAppendedRows(CountRows(ranges));
}

void Table::ExtendRunIndex(size_t column, size_t first,
                           const std::vector<size_t>& starts) {
  if (run_rows_ != first || (has_run_index_ && run_column_ != column)) return;
  has_run_index_ = true;
  run_column_ = column;
  run_starts_.insert(run_starts_.end(), starts.begin(), starts.end());
  run_rows_ = num_rows_;
}

std::shared_ptr<Table> Table::SelectColumns(
    const std::vector<size_t>& indices) const {
  auto schema = std::make_shared<Schema>();
  for (size_t i : indices) schema->AddField(schema_->field(i));
  auto out = std::make_shared<Table>(name_, std::move(schema));
  for (size_t c = 0; c < indices.size(); ++c) {
    out->columns_[c] = columns_[indices[c]];
  }
  out->num_rows_ = num_rows_;
  return out;
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (const ColumnPtr& c : columns_) total += c->ByteSize();
  return total;
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (const Field& f : schema_->fields()) header.push_back(f.QualifiedName());
  cells.push_back(header);
  const size_t shown = std::min(num_rows_, max_rows);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < columns_.size(); ++c) {
      row.push_back(GetValue(r, c).ToString());
    }
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(header.size(), 0);
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out.append(widths[c], '-');
        out.append(2, ' ');
      }
      out += '\n';
    }
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace dex

#ifndef DEX_STORAGE_COLUMN_H_
#define DEX_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace dex {

/// \brief Shared dictionary for string columns.
///
/// String columns store int32 codes plus a dictionary. Dictionaries are
/// shared between a column and slices copied from it (the file URI column of
/// the actual-data table would otherwise dominate memory, exactly like
/// MonetDB's string heaps in the paper's Table 1).
class StringDict {
 public:
  /// Returns the code for `s`, interning it if new.
  int32_t Intern(const std::string& s);
  /// Returns the code for `s` or -1 if absent (lookup without mutation).
  int32_t Find(const std::string& s) const;
  const std::string& At(int32_t code) const { return values_[code]; }
  size_t size() const { return values_.size(); }
  uint64_t ByteSize() const { return byte_size_; }

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, int32_t> index_;
  uint64_t byte_size_ = 0;
};

/// \brief A typed, append-only column vector.
///
/// Used both as full table storage and as the chunk unit flowing between
/// physical operators. Int64/timestamp/bool share an int64 buffer; strings
/// are dictionary-encoded.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  void Reserve(size_t n);

  // -- Appends (type must match the physical representation) -----------
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);
  Status AppendValue(const Value& v);

  /// Copies row `row` of `src` (same type) to the end of this column.
  void AppendFrom(const Column& src, size_t row);
  /// Copies rows [start, start+count) of `src`.
  void AppendRange(const Column& src, size_t start, size_t count);
  /// Copies the selected rows of `src` in order.
  void AppendGather(const Column& src, const std::vector<uint32_t>& rows);

  // -- Bulk appends for column-at-a-time builders ------------------------
  /// Grow the column by `n` rows and return their storage for the caller
  /// to fill (int64-backed resp. double columns); valid until the next
  /// append. Growth is geometric, so many calls on one column stay linear.
  int64_t* AppendInt64Slots(size_t n);
  double* AppendDoubleSlots(size_t n);
  /// Appends `n` rows holding `v`, interned once rather than per row; no
  /// rows, no interning.
  void AppendStringRun(const std::string& v, size_t n);
  /// Appends `n` copies of row `row` of `src` (same type); a string is
  /// translated into this column's dictionary at most once.
  void AppendRepeat(const Column& src, size_t row, size_t n);

  // -- Element access ----------------------------------------------------
  int64_t GetInt64(size_t row) const { return i64_[row]; }
  double GetDouble(size_t row) const { return f64_[row]; }
  const std::string& GetString(size_t row) const {
    return dict_->At(codes_[row]);
  }
  int32_t GetStringCode(size_t row) const { return codes_[row]; }
  Value GetValue(size_t row) const;
  /// Numeric view of any non-string cell (ints widen to double).
  double GetNumeric(size_t row) const {
    return type_ == DataType::kDouble ? f64_[row]
                                      : static_cast<double>(i64_[row]);
  }

  // -- Bulk access for vectorized operators ------------------------------
  const int64_t* data_i64() const { return i64_.data(); }
  const double* data_f64() const { return f64_.data(); }
  const int32_t* codes() const { return codes_.data(); }
  const std::shared_ptr<StringDict>& dict() const { return dict_; }

  /// Estimated in-memory footprint in bytes (codes + owned share of dict).
  uint64_t ByteSize() const;

  void Clear();

 private:
  void EnsureOwnDict();

  DataType type_;
  size_t size_ = 0;
  std::vector<int64_t> i64_;   // int64/timestamp/bool payload
  std::vector<double> f64_;    // double payload
  std::vector<int32_t> codes_; // string payload (dictionary codes)
  std::shared_ptr<StringDict> dict_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace dex

#endif  // DEX_STORAGE_COLUMN_H_

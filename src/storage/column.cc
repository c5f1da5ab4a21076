#include "storage/column.h"

#include "common/logging.h"

namespace dex {

int32_t StringDict::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(values_.size());
  values_.push_back(s);
  index_.emplace(s, code);
  byte_size_ += s.size() + sizeof(int32_t) + 16;  // rough heap overhead
  return code;
}

int32_t StringDict::Find(const std::string& s) const {
  auto it = index_.find(s);
  return it == index_.end() ? -1 : it->second;
}

Column::Column(DataType type) : type_(type) {
  if (type_ == DataType::kString) dict_ = std::make_shared<StringDict>();
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kDouble:
      f64_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
    default:
      i64_.reserve(n);
  }
}

void Column::AppendInt64(int64_t v) {
  DEX_CHECK(IsIntegerBacked(type_));
  i64_.push_back(v);
  ++size_;
}

void Column::AppendDouble(double v) {
  DEX_CHECK(type_ == DataType::kDouble);
  f64_.push_back(v);
  ++size_;
}

void Column::EnsureOwnDict() {
  if (dict_.use_count() > 1) {
    // Clone-on-write: another column shares this dictionary.
    auto fresh = std::make_shared<StringDict>();
    for (int32_t& code : codes_) {
      code = fresh->Intern(dict_->At(code));
    }
    dict_ = std::move(fresh);
  }
}

void Column::AppendString(const std::string& v) {
  DEX_CHECK(type_ == DataType::kString);
  EnsureOwnDict();
  codes_.push_back(dict_->Intern(v));
  ++size_;
}

int64_t* Column::AppendInt64Slots(size_t n) {
  DEX_CHECK(IsIntegerBacked(type_));
  i64_.resize(size_ + n);
  size_ += n;
  return i64_.data() + (size_ - n);
}

double* Column::AppendDoubleSlots(size_t n) {
  DEX_CHECK(type_ == DataType::kDouble);
  f64_.resize(size_ + n);
  size_ += n;
  return f64_.data() + (size_ - n);
}

void Column::AppendStringRun(const std::string& v, size_t n) {
  DEX_CHECK(type_ == DataType::kString);
  if (n == 0) return;
  EnsureOwnDict();
  codes_.insert(codes_.end(), n, dict_->Intern(v));
  size_ += n;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    return Status::InvalidArgument("NULL values are not supported in columns");
  }
  switch (type_) {
    case DataType::kDouble: {
      DEX_ASSIGN_OR_RETURN(double d, v.AsDouble());
      AppendDouble(d);
      return Status::OK();
    }
    case DataType::kString:
      if (v.type() != DataType::kString) {
        return Status::InvalidArgument("cannot append " + v.ToString() +
                                       " to a STRING column");
      }
      AppendString(v.str());
      return Status::OK();
    default: {
      DEX_ASSIGN_OR_RETURN(int64_t i, v.AsInt64());
      AppendInt64(i);
      return Status::OK();
    }
  }
}

void Column::AppendFrom(const Column& src, size_t row) {
  DEX_CHECK(src.type_ == type_);
  switch (type_) {
    case DataType::kDouble:
      f64_.push_back(src.f64_[row]);
      break;
    case DataType::kString:
      if (dict_ == src.dict_) {
        codes_.push_back(src.codes_[row]);
      } else if (codes_.empty() && size_ == 0) {
        // Adopt the source dictionary for cheap slicing.
        dict_ = src.dict_;
        codes_.push_back(src.codes_[row]);
      } else {
        EnsureOwnDict();
        codes_.push_back(dict_->Intern(src.dict_->At(src.codes_[row])));
      }
      break;
    default:
      i64_.push_back(src.i64_[row]);
  }
  ++size_;
}

void Column::AppendRange(const Column& src, size_t start, size_t count) {
  DEX_CHECK(src.type_ == type_);
  DEX_CHECK_LE(start + count, src.size_);
  switch (type_) {
    case DataType::kDouble:
      f64_.insert(f64_.end(), src.f64_.begin() + start,
                  src.f64_.begin() + start + count);
      break;
    case DataType::kString:
      if (size_ == 0) dict_ = src.dict_;
      if (dict_ == src.dict_) {
        codes_.insert(codes_.end(), src.codes_.begin() + start,
                      src.codes_.begin() + start + count);
      } else {
        EnsureOwnDict();
        for (size_t i = start; i < start + count; ++i) {
          codes_.push_back(dict_->Intern(src.dict_->At(src.codes_[i])));
        }
      }
      break;
    default:
      i64_.insert(i64_.end(), src.i64_.begin() + start,
                  src.i64_.begin() + start + count);
  }
  size_ += count;
}

void Column::AppendGather(const Column& src, const std::vector<uint32_t>& rows) {
  DEX_CHECK(src.type_ == type_);
  switch (type_) {
    case DataType::kDouble:
      for (uint32_t r : rows) f64_.push_back(src.f64_[r]);
      break;
    case DataType::kString:
      if (size_ == 0) dict_ = src.dict_;
      if (dict_ == src.dict_) {
        for (uint32_t r : rows) codes_.push_back(src.codes_[r]);
      } else {
        EnsureOwnDict();
        for (uint32_t r : rows) {
          codes_.push_back(dict_->Intern(src.dict_->At(src.codes_[r])));
        }
      }
      break;
    default:
      for (uint32_t r : rows) i64_.push_back(src.i64_[r]);
  }
  size_ += rows.size();
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(i64_[row]);
    case DataType::kDouble:
      return Value::Double(f64_[row]);
    case DataType::kString:
      return Value::String(GetString(row));
    case DataType::kTimestamp:
      return Value::Timestamp(i64_[row]);
    case DataType::kBool:
      return Value::Bool(i64_[row] != 0);
  }
  return Value::Null();
}

uint64_t Column::ByteSize() const {
  switch (type_) {
    case DataType::kDouble:
      return f64_.size() * sizeof(double);
    case DataType::kString: {
      uint64_t bytes = codes_.size() * sizeof(int32_t);
      // Attribute the dictionary to its (possibly shared) owners once each.
      if (dict_) bytes += dict_->ByteSize() / dict_.use_count();
      return bytes;
    }
    default:
      return i64_.size() * sizeof(int64_t);
  }
}

void Column::Clear() {
  i64_.clear();
  f64_.clear();
  codes_.clear();
  if (type_ == DataType::kString) dict_ = std::make_shared<StringDict>();
  size_ = 0;
}

}  // namespace dex

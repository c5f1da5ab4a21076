#include "io/byte_codec.h"

#include <cstring>

#include "common/fnv.h"

namespace dex {

void ByteWriter::U64(uint64_t v) { Bytes(&v, 8); }

void ByteWriter::F64(double v) { Bytes(&v, 8); }

void ByteWriter::Str(std::string_view s) {
  U64(s.size());
  out_.append(s);
}

void ByteWriter::Bytes(const void* data, size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

void ByteWriter::Seal() { U64(Fnv1a(out_.data(), out_.size())); }

Status ByteReader::Corrupt(const std::string& why) const {
  return Status::Corruption(std::string(what_) + " " + why + " at offset " +
                            std::to_string(pos_));
}

Result<std::string_view> ByteReader::Bytes(uint64_t n) {
  if (n > bytes_.size() - pos_) return Corrupt("truncated");
  std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

Result<uint64_t> ByteReader::U64() {
  DEX_ASSIGN_OR_RETURN(std::string_view raw, Bytes(8));
  uint64_t v;
  std::memcpy(&v, raw.data(), 8);
  return v;
}

Result<int64_t> ByteReader::I64() {
  DEX_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  DEX_ASSIGN_OR_RETURN(std::string_view raw, Bytes(8));
  double v;
  std::memcpy(&v, raw.data(), 8);
  return v;
}

Result<std::string> ByteReader::Str(uint64_t max_len) {
  DEX_ASSIGN_OR_RETURN(uint64_t n, U64());
  if (n > max_len) return Corrupt("implausible string length");
  DEX_ASSIGN_OR_RETURN(std::string_view s, Bytes(n));
  return std::string(s);
}

Result<uint64_t> ByteReader::Count(uint64_t max) {
  DEX_ASSIGN_OR_RETURN(uint64_t n, U64());
  if (n > max) return Corrupt("implausible count " + std::to_string(n));
  return n;
}

Status ByteReader::Mark(const char (&mark)[kMarkBytes]) {
  DEX_ASSIGN_OR_RETURN(std::string_view raw, Bytes(kMarkBytes));
  if (std::memcmp(raw.data(), mark, kMarkBytes) != 0) {
    return Corrupt("bad magic or mark");
  }
  return Status::OK();
}

Status ByteReader::Seal() {
  const uint64_t want = Fnv1a(bytes_.data(), pos_);
  DEX_ASSIGN_OR_RETURN(uint64_t got, U64());
  if (got != want) return Corrupt("checksum mismatch");
  return Status::OK();
}

Status ByteReader::End() const {
  if (pos_ != bytes_.size()) return Corrupt("trailing bytes");
  return Status::OK();
}

Result<ByteReader> Unseal(std::string_view bytes,
                          const char (&magic)[kMarkBytes], const char* what) {
  if (bytes.size() < kMarkBytes + 8) {
    return Status::Corruption(std::string(what) + " truncated");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  ByteReader fields(body, what);
  DEX_RETURN_NOT_OK(fields.Mark(magic));
  uint64_t seal;
  std::memcpy(&seal, bytes.data() + body.size(), 8);
  if (seal != Fnv1a(body.data(), body.size())) {
    return Status::Corruption(std::string(what) + " checksum mismatch");
  }
  return fields;
}

}  // namespace dex

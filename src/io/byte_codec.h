#ifndef DEX_IO_BYTE_CODEC_H_
#define DEX_IO_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace dex {

/// \brief The one byte codec behind every persisted format: the metadata
/// snapshot, the zone-map file, the cache manifest and the columnar cache
/// entries. Each format decides its own fields; this codec decides how a
/// field is laid out and how damage is detected.
///
/// Layout, all little-endian:
///
///   u64, i64, f64  8 bytes each (i64 two's complement, f64 its IEEE-754 bits)
///   string         u64 length, then the bytes
///   mark           8 fixed bytes (a format's magic, or an end marker)
///   seal           u64 FNV-1a of every byte before it
///
/// A *sealed container* is magic + fields + seal. Its reader checks the magic
/// and the seal before any field is believed (Unseal): length prefixes alone
/// catch gross truncation, but a flipped bit inside a fixed-width field would
/// otherwise parse into wrong values. Every violation is Status::Corruption.

/// Length of a magic or end mark.
inline constexpr size_t kMarkBytes = 8;

class ByteWriter {
 public:
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);
  /// Raw bytes, no length prefix (marks, fixed-width column runs).
  void Bytes(const void* data, size_t n);
  /// Appends the FNV-1a of everything written so far.
  void Seal();

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked sequential reader. Every getter returns Corruption,
/// naming the format and the offset, instead of reading past the end.
class ByteReader {
 public:
  /// `bytes` must outlive the reader; `what` names the format in errors
  /// ("snapshot", "zone map", ...) and must be a string literal.
  ByteReader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  /// A length-prefixed string; a length above `max_len` or past the end is
  /// Corruption.
  Result<std::string> Str(
      uint64_t max_len = std::numeric_limits<uint64_t>::max());
  /// `n` raw bytes, as a view into the input.
  Result<std::string_view> Bytes(uint64_t n);
  /// A u64 count that must not exceed `max`, so that a damaged count fails
  /// here instead of driving an allocation.
  Result<uint64_t> Count(uint64_t max);
  /// 8 bytes that must equal `mark`.
  Status Mark(const char (&mark)[kMarkBytes]);
  /// A u64 that must equal the FNV-1a of every input byte before it.
  Status Seal();
  /// Corruption unless every byte was read.
  Status End() const;

 private:
  Status Corrupt(const std::string& why) const;

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* what_;
};

/// \brief Opens a sealed container: checks that `bytes` starts with `magic`
/// and ends with the FNV-1a of everything before its last 8 bytes, and
/// returns a reader over the fields between the two. `bytes` must outlive the
/// reader.
Result<ByteReader> Unseal(std::string_view bytes,
                          const char (&magic)[kMarkBytes], const char* what);

}  // namespace dex

#endif  // DEX_IO_BYTE_CODEC_H_

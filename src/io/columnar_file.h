#ifndef DEX_IO_COLUMNAR_FILE_H_
#define DEX_IO_COLUMNAR_FILE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "storage/table.h"

namespace dex {

/// \brief Compact, checksummed on-disk serialization of one cached partial
/// table — the unit of the persistent columnar cache.
///
/// Layout (all integers little-endian; every field goes through
/// io/byte_codec.h):
///
///   magic        8 bytes  "DXCOL001" (bumping the version renames the magic,
///                         so older engines reject newer files and vice versa)
///   header       source uri, pushed-down predicate repr + time window,
///                source file size/mtime (the staleness ladder inputs),
///                in-memory table footprint, table name, schema, row count
///   hdr checksum u64 FNV-1a of everything above (a torn header is caught
///                before any frame is trusted)
///   frames       one per column: encoding id, length-prefixed payload,
///                u64 FNV-1a frame checksum of the payload
///   footer       u64 FNV-1a of every byte above + "DXCOLEND"
///
/// Frame encodings keep the file compact relative to the decoded in-memory
/// footprint: constant runs collapse to one value (the uri column of a
/// per-file partial table is always constant), int64-backed columns with a
/// constant stride (sample_time at a fixed rate, record_id runs) collapse to
/// (base, stride), and string columns store the dictionary once plus codes.
///
/// Decode validates magic → header checksum → schema plausibility → every
/// frame checksum → footer checksum, and returns Status::Corruption on the
/// first violation — it never crashes and never returns partially decoded
/// rows. Any truncation, bit flip, or torn prefix therefore maps to a clean
/// "not trustworthy" signal the persistent cache turns into
/// quarantine-and-delete.
struct ColumnarFileMeta {
  std::string source_uri;       // repository file this table was mounted from
  std::string predicate_repr;   // selection applied before caching ("" = none)
  bool window_pure = false;     // predicate is a pure sample_time window
  double window_lo = 0;
  double window_hi = 0;
  uint64_t source_size_bytes = 0;  // source file size at persist time
  int64_t source_mtime_ms = 0;     // source file mtime at persist time
  uint64_t table_byte_size = 0;    // Table::ByteSize() at persist time
};

/// Serializes `table` + `meta` into the self-validating byte format above.
std::string EncodeColumnarFile(const Table& table, const ColumnarFileMeta& meta);

/// Parses and fully validates an encoded file. On success returns the decoded
/// table and fills `meta` (if non-null). Any integrity violation — bad magic,
/// version mismatch, truncation, checksum failure, implausible structure —
/// returns Status::Corruption.
Result<TablePtr> DecodeColumnarFile(const std::string& bytes,
                                    ColumnarFileMeta* meta);

/// Cheap header-only peek: validates magic + header checksum and fills
/// `meta` without touching the frames. Used by recovery to report what a
/// corrupt-beyond-the-header file claimed to be.
Status PeekColumnarMeta(const std::string& bytes, ColumnarFileMeta* meta);

}  // namespace dex

#endif  // DEX_IO_COLUMNAR_FILE_H_

#ifndef DEX_CORE_METADATA_SNAPSHOT_H_
#define DEX_CORE_METADATA_SNAPSHOT_H_

#include <string>

#include "common/result.h"
#include "mseed/scanner.h"

namespace dex {

/// Persistent metadata catalog ("instant-on", after the author's companion
/// paper: Kargin et al., "Instant-On Scientific Data Warehouses — Lazy ETL
/// for Data-Intensive Research", BIRTE 2012).
///
/// ALi already avoids loading actual data; the remaining up-front cost is
/// scanning every file's headers at Open(). A snapshot amortizes that across
/// sessions: metadata is saved once, and later opens hand it to the
/// Stage1Scanner as its baseline, which only stat()s files and re-scans just
/// the ones whose (size, mtime) changed.

/// \brief Writes `scan` to `path` in a compact versioned binary form.
Status SaveSnapshot(const mseed::ScanResult& scan, const std::string& path);

/// \brief Reads a snapshot written by SaveSnapshot. Corruption (bad magic,
/// checksum mismatch, truncation, trailing bytes) is reported as
/// Status::Corruption before any field is trusted.
Result<mseed::ScanResult> LoadSnapshot(const std::string& path);

}  // namespace dex

#endif  // DEX_CORE_METADATA_SNAPSHOT_H_

#ifndef DEX_CORE_COVERAGE_H_
#define DEX_CORE_COVERAGE_H_

#include <cstdint>

#include "common/result.h"
#include "storage/catalog.h"

namespace dex {

/// Coverage analysis — the paper's other kind of derived metadata (§5):
/// "derived metadata can be anything ranging from summary data (e.g. sum,
/// average, max, etc.) to analyzed data (e.g. gaps, overlaps, etc.)".
inline constexpr const char* kGapsTableName = "GAPS";
inline constexpr const char* kOverlapsTableName = "OVERLAPS";

struct CoverageStats {
  size_t streams = 0;    // distinct (station, channel) pairs
  size_t gaps = 0;
  size_t overlaps = 0;
  int64_t total_gap_ms = 0;
  int64_t total_overlap_ms = 0;
};

/// \brief Derives GAPS/OVERLAPS from `catalog`'s F and R tables and
/// registers both in `catalog` (replacing earlier versions).
///
/// Unlike the DM value statistics (which require mounting), gaps and
/// overlaps derive purely from the *given* metadata: each F row names its
/// file's (station, channel) stream, and R holds every record's window.
/// Per stream, windows taken in R row order are sorted by start time, and
///  - GAPS(station, channel, gap_start, gap_end, duration_ms): intervals
///    with no recorded data between consecutive records,
///  - OVERLAPS(station, channel, overlap_start, overlap_end, duration_ms):
///    intervals covered by more than one record (duplicate acquisition),
/// so the explorer can query them in SQL without touching a single file.
/// Tolerance: a break shorter than one sample interval is not a gap. A
/// file without records still counts its stream. `catalog` is the caller's
/// private clone of an epoch, so the result reflects exactly that epoch.
Result<CoverageStats> DeriveCoverage(Catalog* catalog);

SchemaPtr MakeGapsSchema();
SchemaPtr MakeOverlapsSchema();

}  // namespace dex

#endif  // DEX_CORE_COVERAGE_H_

#include "core/coverage.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/seismic_schema.h"

namespace dex {

namespace {

struct RecordWindow {
  int64_t start_ms;
  int64_t end_ms;
  double sample_rate_hz;
};

SchemaPtr MakeCoverageSchema(const char* table, const char* start_name,
                             const char* end_name) {
  auto s = std::make_shared<Schema>();
  const std::string q = table;
  s->AddField({"station", DataType::kString, q});
  s->AddField({"channel", DataType::kString, q});
  s->AddField({start_name, DataType::kTimestamp, q});
  s->AddField({end_name, DataType::kTimestamp, q});
  s->AddField({"duration_ms", DataType::kInt64, q});
  return s;
}

}  // namespace

SchemaPtr MakeGapsSchema() {
  return MakeCoverageSchema(kGapsTableName, "gap_start", "gap_end");
}

SchemaPtr MakeOverlapsSchema() {
  return MakeCoverageSchema(kOverlapsTableName, "overlap_start", "overlap_end");
}

Result<CoverageStats> DeriveCoverage(Catalog* catalog) {
  DEX_ASSIGN_OR_RETURN(TablePtr f, catalog->GetTable(kFileTableName));
  DEX_ASSIGN_OR_RETURN(TablePtr r, catalog->GetTable(kRecordTableName));
  const Column& f_uri = *f->column(0);
  const Column& f_station = *f->column(2);
  const Column& f_channel = *f->column(3);
  const Column& r_uri = *r->column(0);
  const Column& r_start = *r->column(2);
  const Column& r_end = *r->column(3);
  const Column& r_rate = *r->column(4);

  // (station, channel) -> record windows; ordered so the stream iteration
  // (and therefore GAPS/OVERLAPS row order) is deterministic. Every F row
  // keys its stream, and its uri's code in R's dictionary points at it.
  std::map<std::pair<std::string, std::string>, std::vector<RecordWindow>>
      streams;
  std::vector<std::vector<RecordWindow>*> by_code(r_uri.dict()->size(),
                                                  nullptr);
  for (size_t i = 0; i < f->num_rows(); ++i) {
    std::vector<RecordWindow>* windows =
        &streams[{f_station.GetString(i), f_channel.GetString(i)}];
    const int32_t code = r_uri.dict()->Find(f_uri.GetString(i));
    if (code >= 0) by_code[static_cast<size_t>(code)] = windows;
  }
  for (size_t i = 0; i < r->num_rows(); ++i) {
    std::vector<RecordWindow>* windows =
        by_code[static_cast<size_t>(r_uri.GetStringCode(i))];
    if (windows == nullptr) continue;
    windows->push_back(
        {r_start.GetInt64(i), r_end.GetInt64(i), r_rate.GetDouble(i)});
  }

  auto gaps = std::make_shared<Table>(kGapsTableName, MakeGapsSchema());
  auto overlaps =
      std::make_shared<Table>(kOverlapsTableName, MakeOverlapsSchema());
  CoverageStats stats;
  stats.streams = streams.size();
  for (auto& [stream, windows] : streams) {
    if (windows.empty()) continue;
    std::sort(windows.begin(), windows.end(),
              [](const RecordWindow& a, const RecordWindow& b) {
                return a.start_ms < b.start_ms;
              });
    int64_t covered_until = windows.front().end_ms;
    double last_rate = windows.front().sample_rate_hz;
    for (size_t i = 1; i < windows.size(); ++i) {
      const RecordWindow& w = windows[i];
      // One sample interval of slack: consecutive records are contiguous
      // when the next starts one interval after the previous record's last
      // sample.
      const int64_t interval_ms =
          last_rate > 0 ? static_cast<int64_t>(1000.0 / last_rate) : 0;
      if (w.start_ms > covered_until + interval_ms) {
        const int64_t gap_start = covered_until + interval_ms;
        const int64_t duration = w.start_ms - gap_start;
        DEX_RETURN_NOT_OK(gaps->AppendRow(
            {Value::String(stream.first), Value::String(stream.second),
             Value::Timestamp(gap_start), Value::Timestamp(w.start_ms),
             Value::Int64(duration)}));
        ++stats.gaps;
        stats.total_gap_ms += duration;
      } else if (w.start_ms <= covered_until && w.end_ms >= w.start_ms) {
        const int64_t overlap_end = std::min(covered_until, w.end_ms);
        if (overlap_end >= w.start_ms) {
          const int64_t duration = overlap_end - w.start_ms;
          DEX_RETURN_NOT_OK(overlaps->AppendRow(
              {Value::String(stream.first), Value::String(stream.second),
               Value::Timestamp(w.start_ms), Value::Timestamp(overlap_end),
               Value::Int64(duration)}));
          ++stats.overlaps;
          stats.total_overlap_ms += duration;
        }
      }
      covered_until = std::max(covered_until, w.end_ms);
      last_rate = w.sample_rate_hz;
    }
  }

  // Register (or refresh) the results as queryable metadata.
  if (catalog->HasTable(kGapsTableName)) {
    DEX_RETURN_NOT_OK(catalog->ReplaceTable(gaps));
    DEX_RETURN_NOT_OK(catalog->ReplaceTable(overlaps));
  } else {
    DEX_RETURN_NOT_OK(catalog->AddTable(gaps, TableKind::kMetadata));
    DEX_RETURN_NOT_OK(catalog->AddTable(overlaps, TableKind::kMetadata));
    DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kGapsTableName));
    DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kOverlapsTableName));
  }
  return stats;
}

}  // namespace dex

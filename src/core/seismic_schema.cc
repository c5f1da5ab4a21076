#include "core/seismic_schema.h"

#include <algorithm>

#include "common/logging.h"
#include "mseed/reader.h"

namespace dex {

SchemaPtr MakeFileSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kFileTableName;
  s->AddField({"uri", DataType::kString, q});
  s->AddField({"network", DataType::kString, q});
  s->AddField({"station", DataType::kString, q});
  s->AddField({"channel", DataType::kString, q});
  s->AddField({"location", DataType::kString, q});
  s->AddField({"size_bytes", DataType::kInt64, q});
  s->AddField({"mtime", DataType::kTimestamp, q});
  s->AddField({"n_records", DataType::kInt64, q});
  return s;
}

SchemaPtr MakeRecordSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kRecordTableName;
  s->AddField({"uri", DataType::kString, q});
  s->AddField({"record_id", DataType::kInt64, q});
  s->AddField({"start_time", DataType::kTimestamp, q});
  s->AddField({"end_time", DataType::kTimestamp, q});
  s->AddField({"sample_rate", DataType::kDouble, q});
  s->AddField({"n_samples", DataType::kInt64, q});
  return s;
}

SchemaPtr MakeDataSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kDataTableName;
  s->AddField({"uri", DataType::kString, q});
  s->AddField({"record_id", DataType::kInt64, q});
  s->AddField({"sample_time", DataType::kTimestamp, q});
  s->AddField({"sample_value", DataType::kDouble, q});
  return s;
}

SchemaPtr MakeDerivedSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kDerivedTableName;
  s->AddField({"uri", DataType::kString, q});
  s->AddField({"record_id", DataType::kInt64, q});
  s->AddField({"min_value", DataType::kDouble, q});
  s->AddField({"max_value", DataType::kDouble, q});
  s->AddField({"mean_value", DataType::kDouble, q});
  s->AddField({"sum_value", DataType::kDouble, q});
  s->AddField({"n_samples", DataType::kInt64, q});
  return s;
}

Result<TablePtr> BuildFileTable(const mseed::ScanResult& scan) {
  auto table = std::make_shared<Table>(kFileTableName, MakeFileSchema());
  for (const mseed::FileMeta& f : scan.files) {
    DEX_RETURN_NOT_OK(table->AppendRow(
        {Value::String(f.uri), Value::String(f.network), Value::String(f.station),
         Value::String(f.channel), Value::String(f.location),
         Value::Int64(static_cast<int64_t>(f.size_bytes)),
         Value::Timestamp(f.mtime_ms), Value::Int64(f.num_records)}));
  }
  return table;
}

Result<TablePtr> BuildRecordTable(const mseed::ScanResult& scan) {
  auto table = std::make_shared<Table>(kRecordTableName, MakeRecordSchema());
  for (const mseed::RecordMeta& r : scan.records) {
    DEX_RETURN_NOT_OK(table->AppendRow(
        {Value::String(r.uri), Value::Int64(r.record_id),
         Value::Timestamp(r.start_time_ms), Value::Timestamp(r.end_time_ms),
         Value::Double(r.sample_rate_hz), Value::Int64(r.num_samples)}));
  }
  return table;
}

mseed::ScanResult ScanResultFromTables(const Table& f_table,
                                       const Table& r_table) {
  mseed::ScanResult out;
  out.files.reserve(f_table.num_rows());
  for (size_t i = 0; i < f_table.num_rows(); ++i) {
    mseed::FileMeta fm;
    fm.uri = f_table.GetValue(i, 0).str();
    fm.network = f_table.GetValue(i, 1).str();
    fm.station = f_table.GetValue(i, 2).str();
    fm.channel = f_table.GetValue(i, 3).str();
    fm.location = f_table.GetValue(i, 4).str();
    fm.size_bytes = static_cast<uint64_t>(f_table.GetValue(i, 5).int64());
    fm.mtime_ms = f_table.GetValue(i, 6).int64();
    fm.num_records = static_cast<uint32_t>(f_table.GetValue(i, 7).int64());
    out.total_bytes += fm.size_bytes;
    out.files.push_back(std::move(fm));
  }
  out.records.reserve(r_table.num_rows());
  for (size_t i = 0; i < r_table.num_rows(); ++i) {
    mseed::RecordMeta rm;
    rm.uri = r_table.GetValue(i, 0).str();
    rm.record_id = r_table.GetValue(i, 1).int64();
    rm.start_time_ms = r_table.GetValue(i, 2).int64();
    rm.end_time_ms = r_table.GetValue(i, 3).int64();
    rm.sample_rate_hz = r_table.GetValue(i, 4).dbl();
    rm.num_samples = static_cast<uint32_t>(r_table.GetValue(i, 5).int64());
    out.records.push_back(std::move(rm));
  }
  return out;
}

Status AppendFileToDataTable(const std::string& uri,
                             const std::vector<mseed::DecodedRecord>& records,
                             Table* data_table) {
  DEX_CHECK(data_table != nullptr);
  const size_t first = data_table->num_rows();
  size_t total = 0;
  std::vector<size_t> run_starts;  // one run per record that has rows
  for (const mseed::DecodedRecord& rec : records) {
    if (!rec.samples.empty()) run_starts.push_back(first + total);
    total += rec.samples.size();
  }
  // One growth per column per file. The columns grow geometrically, so Ei's
  // many-file loads into one table stay linear; an exact reserve per call
  // would defeat that and turn them quadratic.
  data_table->mutable_column(0)->AppendStringRun(uri, total);
  int64_t* record_ids = data_table->mutable_column(1)->AppendInt64Slots(total);
  int64_t* times = data_table->mutable_column(2)->AppendInt64Slots(total);
  double* values = data_table->mutable_column(3)->AppendDoubleSlots(total);
  for (size_t r = 0; r < records.size(); ++r) {
    const mseed::DecodedRecord& rec = records[r];
    const size_t n = rec.samples.size();
    const double rate = rec.header.sample_rate_hz;
    const int64_t t0 = rec.header.start_time_ms;
    std::fill_n(record_ids, n, static_cast<int64_t>(r));
    const int32_t* samples = rec.samples.data();
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(samples[i]);
    if (rec.sparse) {
      const uint32_t* index = rec.sample_index.data();
      for (size_t i = 0; i < n; ++i) {
        times[i] = t0 + static_cast<int64_t>(static_cast<double>(index[i]) *
                                             1000.0 / rate);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        times[i] =
            t0 + static_cast<int64_t>(static_cast<double>(i) * 1000.0 / rate);
      }
    }
    record_ids += n;
    times += n;
    values += n;
  }
  DEX_RETURN_NOT_OK(data_table->CommitAppendedRows(total));
  // Each record's times are t0 plus a truncated offset that grows with the
  // sample index, and a valid header keeps every time inside int64
  // (RecordHeader::Validate), so each record is one non-decreasing run.
  data_table->ExtendRunIndex(2, first, run_starts);
  return Status::OK();
}

}  // namespace dex

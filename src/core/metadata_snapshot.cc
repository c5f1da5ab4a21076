#include "core/metadata_snapshot.h"

#include "io/byte_codec.h"
#include "io/file_io.h"

namespace dex {

namespace {

// v2 appends a whole-payload FNV-1a checksum, so a truncated or bit-flipped
// snapshot is rejected outright instead of trusting the per-field length
// checks to notice. v1 files ("DXSNAP01") are rejected as stale, which
// Database::Open treats like any corrupt snapshot: full rescan, then the
// snapshot is rewritten in the current format.
constexpr char kMagic[8] = {'D', 'X', 'S', 'N', 'A', 'P', '0', '2'};

}  // namespace

Status SaveSnapshot(const mseed::ScanResult& scan, const std::string& path) {
  ByteWriter out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.U64(scan.files.size());
  out.U64(scan.records.size());
  out.U64(scan.total_bytes);
  for (const mseed::FileMeta& f : scan.files) {
    out.Str(f.uri);
    out.Str(f.network);
    out.Str(f.station);
    out.Str(f.channel);
    out.Str(f.location);
    out.U64(f.size_bytes);
    out.I64(f.mtime_ms);
    out.U64(f.num_records);
  }
  for (const mseed::RecordMeta& r : scan.records) {
    out.Str(r.uri);
    out.I64(r.record_id);
    out.I64(r.start_time_ms);
    out.I64(r.end_time_ms);
    out.F64(r.sample_rate_hz);
    out.U64(r.num_samples);
    out.U64(r.data_offset);
    out.U64(r.data_bytes);
  }
  out.Seal();
  return WriteFileAtomic(path, out.bytes());
}

Result<mseed::ScanResult> LoadSnapshot(const std::string& path) {
  std::string data;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &data));
  DEX_ASSIGN_OR_RETURN(ByteReader cur, Unseal(data, kMagic, "snapshot"));
  mseed::ScanResult scan;
  // Every file and record entry is longer than one byte, so a count above
  // the remaining length is damage, not a reason to allocate.
  DEX_ASSIGN_OR_RETURN(uint64_t num_files, cur.Count(data.size()));
  DEX_ASSIGN_OR_RETURN(uint64_t num_records, cur.Count(data.size()));
  DEX_ASSIGN_OR_RETURN(scan.total_bytes, cur.U64());
  scan.files.reserve(num_files);
  for (uint64_t i = 0; i < num_files; ++i) {
    mseed::FileMeta f;
    DEX_ASSIGN_OR_RETURN(f.uri, cur.Str());
    DEX_ASSIGN_OR_RETURN(f.network, cur.Str());
    DEX_ASSIGN_OR_RETURN(f.station, cur.Str());
    DEX_ASSIGN_OR_RETURN(f.channel, cur.Str());
    DEX_ASSIGN_OR_RETURN(f.location, cur.Str());
    DEX_ASSIGN_OR_RETURN(f.size_bytes, cur.U64());
    DEX_ASSIGN_OR_RETURN(f.mtime_ms, cur.I64());
    DEX_ASSIGN_OR_RETURN(uint64_t n, cur.U64());
    f.num_records = static_cast<uint32_t>(n);
    scan.files.push_back(std::move(f));
  }
  scan.records.reserve(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    mseed::RecordMeta r;
    DEX_ASSIGN_OR_RETURN(r.uri, cur.Str());
    DEX_ASSIGN_OR_RETURN(r.record_id, cur.I64());
    DEX_ASSIGN_OR_RETURN(r.start_time_ms, cur.I64());
    DEX_ASSIGN_OR_RETURN(r.end_time_ms, cur.I64());
    DEX_ASSIGN_OR_RETURN(r.sample_rate_hz, cur.F64());
    DEX_ASSIGN_OR_RETURN(uint64_t n, cur.U64());
    r.num_samples = static_cast<uint32_t>(n);
    DEX_ASSIGN_OR_RETURN(r.data_offset, cur.U64());
    DEX_ASSIGN_OR_RETURN(uint64_t bytes, cur.U64());
    r.data_bytes = static_cast<uint32_t>(bytes);
    scan.records.push_back(std::move(r));
  }
  DEX_RETURN_NOT_OK(cur.End());
  return scan;
}

}  // namespace dex

#include "mseed/reader.h"

#include <cstring>

#include "io/file_io.h"
#include "mseed/steim.h"
#include "mseed/steim2.h"

namespace dex::mseed {

namespace {

// Record boundaries are 64-byte aligned: the header is 64 bytes and Steim
// payloads are whole 64-byte frames. Resynchronization only needs to probe
// aligned offsets.
constexpr size_t kBoundaryBytes = 64;

// Keep heavily damaged files from flooding the report; the skip counters
// stay exact even when warnings are suppressed.
constexpr size_t kMaxSalvageWarnings = 16;

Result<std::vector<int32_t>> DecodePayload(const RecordHeader& header,
                                           const std::string& payload) {
  if (header.encoding == 2) return Steim2::Decode(payload, header.num_samples);
  return Steim1::Decode(payload, header.num_samples);
}

/// Decodes one record under the pruner's plan (plan = full decode when
/// `pruner` is null). A selective decode that fails its zone-map
/// verification degrades to a full decode; only a failing *full* decode
/// propagates as an error (the caller's corruption policy applies).
Result<DecodedRecord> DecodePlanned(const RecordHeader& header,
                                    const std::string& payload, size_t index,
                                    RecordPruner* pruner,
                                    PruneStats* prune_stats) {
  DecodedRecord rec;
  rec.header = header;
  RecordDecodePlan plan;
  if (pruner != nullptr) plan = pruner->Plan(index, header);
  if (plan.skip_record) {
    rec.sparse = true;
    if (prune_stats != nullptr) ++prune_stats->records_skipped;
    return rec;
  }
  if (plan.frames != nullptr && header.encoding == 1) {
    rec.sparse = true;
    Status st = Steim1::DecodeSelected(payload, header.num_samples,
                                       *plan.frames, plan.keep,
                                       &rec.sample_index, &rec.samples);
    if (st.ok()) {
      if (prune_stats != nullptr) {
        for (bool k : plan.keep) {
          if (k) {
            ++prune_stats->frames_decoded;
          } else {
            ++prune_stats->frames_skipped;
          }
        }
      }
      return rec;
    }
    // The zone map disagreed with the bytes (stale or damaged): degrade to a
    // full decode and re-harvest authoritative stats. Cost, never wrong rows.
    rec.sparse = false;
    rec.sample_index.clear();
    rec.samples.clear();
    if (prune_stats != nullptr) ++prune_stats->fallbacks;
    plan.harvest = true;
  }
  Result<std::vector<int32_t>> samples =
      (header.encoding != 2 && plan.harvest)
          ? Steim1::DecodeWithStats(payload, header.num_samples,
                                    &rec.frame_stats, &rec.samples_sum)
          : DecodePayload(header, payload);
  DEX_RETURN_NOT_OK(samples.status());
  rec.samples = std::move(*samples);
  return rec;
}

// Corruption messages must be actionable from a quarantine warning: qualify
// the codec's payload-relative message with the source URI and the record's
// byte offset in that file.
Status WithRecordContext(const Status& st, const std::string& uri,
                         size_t record_index, uint64_t header_offset) {
  return st.WithContext("record " + std::to_string(record_index) +
                        " at offset " + std::to_string(header_offset) +
                        " of '" + uri + "'");
}

}  // namespace

Result<std::vector<RecordInfo>> Reader::ScanHeadersInMemory(
    const std::string& file_image) {
  std::vector<RecordInfo> out;
  uint64_t offset = 0;
  while (offset < file_image.size()) {
    auto header = RecordHeader::Parse(file_image, offset);
    DEX_RETURN_NOT_OK(header.status());
    RecordInfo info;
    info.header = *header;
    info.header_offset = offset;
    info.data_offset = offset + RecordHeader::kSerializedBytes;
    if (info.data_offset + info.header.data_bytes > file_image.size()) {
      return Status::Corruption("record payload runs past end of file at offset " +
                                std::to_string(offset));
    }
    offset = info.data_offset + info.header.data_bytes;
    out.push_back(std::move(info));
  }
  return out;
}

Result<std::vector<RecordInfo>> Reader::ScanHeaders(const std::string& path) {
  // Header scanning reads the whole byte stream but decodes nothing; for the
  // file sizes involved this is dominated by the open anyway, and it keeps
  // the corruption checks exhaustive.
  std::string image;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &image));
  auto infos = ScanHeadersInMemory(image);
  if (!infos.ok()) return infos.status().WithContext("scanning '" + path + "'");
  return infos;
}

Result<std::vector<DecodedRecord>> Reader::ReadAllRecords(
    const std::string& path, RecordPruner* pruner, PruneStats* prune_stats) {
  std::string image;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &image));
  auto scan = ScanHeadersInMemory(image);
  if (!scan.ok()) return scan.status().WithContext("scanning '" + path + "'");
  const std::vector<RecordInfo>& infos = *scan;
  std::vector<DecodedRecord> out;
  out.reserve(infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    const RecordInfo& info = infos[i];
    const std::string payload =
        image.substr(info.data_offset, info.header.data_bytes);
    auto rec = DecodePlanned(info.header, payload, i, pruner, prune_stats);
    if (!rec.ok()) {
      return WithRecordContext(rec.status(), path, i, info.header_offset);
    }
    out.push_back(std::move(*rec));
  }
  return out;
}

std::vector<DecodedRecord> Reader::SalvageInMemory(const std::string& file_image,
                                                   const std::string& uri,
                                                   SalvageReport* report,
                                                   RecordPruner* pruner,
                                                   PruneStats* prune_stats) {
  SalvageReport scratch;
  SalvageReport& rep = report != nullptr ? *report : scratch;
  rep = SalvageReport{};

  std::vector<DecodedRecord> out;
  const size_t n = file_image.size();
  size_t offset = 0;
  bool corruption_seen = false;

  auto warn = [&rep](std::string msg) {
    if (rep.warnings.size() < kMaxSalvageWarnings) {
      rep.warnings.push_back(std::move(msg));
    }
  };

  // Next plausible record boundary strictly after `from`: a 64-byte aligned
  // offset whose bytes carry the header magic, parse as a header, and whose
  // payload fits in the file.
  auto resync = [&](size_t from) -> size_t {
    size_t o = (from / kBoundaryBytes + 1) * kBoundaryBytes;
    for (; o + RecordHeader::kSerializedBytes <= n; o += kBoundaryBytes) {
      if (std::memcmp(file_image.data() + o, RecordHeader::kMagic, 4) != 0) {
        continue;
      }
      auto h = RecordHeader::Parse(file_image, o);
      if (!h.ok()) continue;
      if (o + RecordHeader::kSerializedBytes + h->data_bytes > n) continue;
      return o;
    }
    return std::string::npos;
  };

  while (offset + RecordHeader::kSerializedBytes <= n) {
    auto header = RecordHeader::Parse(file_image, offset);
    const bool payload_fits =
        header.ok() &&
        offset + RecordHeader::kSerializedBytes + header->data_bytes <= n;
    if (payload_fits) {
      const std::string payload = file_image.substr(
          offset + RecordHeader::kSerializedBytes, header->data_bytes);
      auto rec = DecodePlanned(*header, payload, out.size(), pruner,
                               prune_stats);
      if (rec.ok()) {
        out.push_back(std::move(*rec));
        if (corruption_seen) {
          ++rep.records_salvaged;
        } else {
          ++rep.records_ok;
        }
        offset += RecordHeader::kSerializedBytes + header->data_bytes;
        continue;
      }
      // The header is intact, so the next record boundary is still known:
      // drop only this record's payload and keep going.
      corruption_seen = true;
      ++rep.records_skipped;
      rep.bytes_skipped += RecordHeader::kSerializedBytes + header->data_bytes;
      warn(WithRecordContext(rec.status(), uri, out.size(), offset)
               .ToString());
      offset += RecordHeader::kSerializedBytes + header->data_bytes;
      continue;
    }
    // Corrupt header — or a header whose declared payload runs past EOF
    // (possibly a mangled length field): scan forward for the next boundary.
    corruption_seen = true;
    ++rep.records_skipped;
    const Status why =
        header.ok() ? Status::Corruption("record payload runs past end of file")
                    : header.status();
    const size_t next = resync(offset);
    if (next == std::string::npos) {
      rep.bytes_skipped += n - offset;
      warn(WithRecordContext(why, uri, out.size(), offset).ToString() +
           "; no further record boundary found, dropping " +
           std::to_string(n - offset) + " bytes");
      return out;
    }
    rep.bytes_skipped += next - offset;
    warn(WithRecordContext(why, uri, out.size(), offset).ToString() +
         "; resynchronized at offset " + std::to_string(next));
    offset = next;
  }
  if (offset < n) {
    // Trailing fragment shorter than a header: a truncated tail.
    ++rep.records_skipped;
    rep.bytes_skipped += n - offset;
    warn("truncated record header at offset " + std::to_string(offset) +
         " of '" + uri + "' (" + std::to_string(n - offset) +
         " trailing bytes)");
  }
  return out;
}

Result<std::vector<DecodedRecord>> Reader::ReadAllRecordsSalvage(
    const std::string& path, SalvageReport* report, RecordPruner* pruner,
    PruneStats* prune_stats) {
  std::string image;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &image));
  return SalvageInMemory(image, path, report, pruner, prune_stats);
}

Result<DecodedRecord> Reader::ReadRecord(const std::string& path,
                                         const RecordInfo& info) {
  std::string payload;
  DEX_RETURN_NOT_OK(
      ReadFileRange(path, info.data_offset, info.header.data_bytes, &payload));
  DecodedRecord rec;
  rec.header = info.header;
  auto samples = DecodePayload(info.header, payload);
  if (!samples.ok()) {
    return samples.status().WithContext(
        "record at offset " + std::to_string(info.header_offset) + " of '" +
        path + "'");
  }
  rec.samples = std::move(*samples);
  return rec;
}

}  // namespace dex::mseed

#include "csvf/csv_format.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_utils.h"
#include "common/time_utils.h"
#include "io/file_io.h"
#include "mseed/reader.h"

namespace dex::csvf {

namespace {

/// Parses the key=value pairs of a '#' metadata line.
Result<mseed::RecordHeader> ParseHeaderLine(const std::string& line,
                                            size_t line_no) {
  mseed::RecordHeader h;
  bool have_start = false, have_rate = false, have_samples = false;
  for (const std::string& tok : Split(Trim(line.substr(1)), ' ')) {
    if (tok.empty()) continue;
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("bad metadata token '" + tok + "' at line " +
                                std::to_string(line_no));
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "network") {
      h.network = value;
    } else if (key == "station") {
      h.station = value;
    } else if (key == "channel") {
      h.channel = value;
    } else if (key == "location") {
      h.location = value;
    } else if (key == "start") {
      DEX_ASSIGN_OR_RETURN(h.start_time_ms, ParseIso8601(value));
      have_start = true;
    } else if (key == "rate") {
      h.sample_rate_hz = std::atof(value.c_str());
      have_rate = true;
    } else if (key == "samples") {
      h.num_samples = static_cast<uint32_t>(std::atoll(value.c_str()));
      have_samples = true;
    } else {
      return Status::Corruption("unknown metadata key '" + key + "' at line " +
                                std::to_string(line_no));
    }
  }
  if (!have_start || !have_rate || !have_samples) {
    return Status::Corruption("metadata line " + std::to_string(line_no) +
                              " missing start=/rate=/samples=");
  }
  DEX_RETURN_NOT_OK(
      h.Validate().WithContext("line " + std::to_string(line_no)));
  return h;
}

/// Walks the file image invoking callbacks per record header and sample.
/// Sample parsing is optional (metadata scans skip the atoi).
template <typename OnHeader, typename OnSample>
Status WalkCsv(const std::string& image, bool parse_samples, OnHeader on_header,
               OnSample on_sample) {
  size_t pos = 0;
  size_t line_no = 0;
  uint32_t expected = 0;
  uint32_t seen = 0;
  bool in_record = false;
  while (pos < image.size()) {
    size_t eol = image.find('\n', pos);
    if (eol == std::string::npos) eol = image.size();
    ++line_no;
    if (eol > pos) {  // skip blank lines
      if (image[pos] == '#') {
        if (in_record && seen != expected) {
          return Status::Corruption("record ended with " + std::to_string(seen) +
                                    " of " + std::to_string(expected) +
                                    " samples before line " +
                                    std::to_string(line_no));
        }
        const std::string line = image.substr(pos, eol - pos);
        DEX_ASSIGN_OR_RETURN(mseed::RecordHeader h,
                             ParseHeaderLine(line, line_no));
        expected = h.num_samples;
        seen = 0;
        in_record = true;
        DEX_RETURN_NOT_OK(on_header(h));
      } else {
        if (!in_record) {
          return Status::Corruption("sample before any metadata line at line " +
                                    std::to_string(line_no));
        }
        ++seen;
        if (seen > expected) {
          return Status::Corruption("more samples than declared at line " +
                                    std::to_string(line_no));
        }
        if (parse_samples) {
          char* end = nullptr;
          const long v = std::strtol(image.c_str() + pos, &end, 10);
          if (end == image.c_str() + pos) {
            return Status::Corruption("unparsable sample at line " +
                                      std::to_string(line_no));
          }
          DEX_RETURN_NOT_OK(on_sample(static_cast<int32_t>(v)));
        }
      }
    }
    pos = eol + 1;
  }
  if (in_record && seen != expected) {
    return Status::Corruption("file truncated: " + std::to_string(seen) +
                              " of " + std::to_string(expected) +
                              " samples in the last record");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeCsvFile(const std::vector<mseed::RecordData>& records) {
  std::string out;
  for (const mseed::RecordData& rec : records) {
    char header[256];
    std::snprintf(header, sizeof(header),
                  "# network=%s station=%s channel=%s location=%s start=%s "
                  "rate=%g samples=%zu\n",
                  rec.network.c_str(), rec.station.c_str(), rec.channel.c_str(),
                  rec.location.c_str(),
                  FormatIso8601(rec.start_time_ms).c_str(), rec.sample_rate_hz,
                  rec.samples.size());
    out += header;
    for (int32_t s : rec.samples) {
      out += std::to_string(s);
      out += '\n';
    }
  }
  return out;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<mseed::RecordData>& records) {
  return WriteStringToFile(path, SerializeCsvFile(records));
}

Result<std::vector<mseed::DecodedRecord>> ParseCsvFile(
    const std::string& file_image) {
  std::vector<mseed::DecodedRecord> records;
  DEX_RETURN_NOT_OK(WalkCsv(
      file_image, /*parse_samples=*/true,
      [&](const mseed::RecordHeader& h) {
        records.push_back({h, {}});
        records.back().samples.reserve(h.num_samples);
        return Status::OK();
      },
      [&](int32_t v) {
        records.back().samples.push_back(v);
        return Status::OK();
      }));
  return records;
}

Result<std::vector<mseed::DecodedRecord>> ReadCsvFile(const std::string& uri) {
  std::string image;
  DEX_RETURN_NOT_OK(ReadFileToString(uri, &image));
  auto records = ParseCsvFile(image);
  if (!records.ok()) return records.status().WithContext("parsing '" + uri + "'");
  return records;
}

Result<mseed::ScanResult> ScanCsvFile(const std::string& uri) {
  std::string image;
  DEX_RETURN_NOT_OK(ReadFileToString(uri, &image));
  DEX_ASSIGN_OR_RETURN(int64_t mtime, FileMtimeMillis(uri));

  mseed::ScanResult out;
  mseed::FileMeta fm;
  fm.uri = uri;
  fm.size_bytes = image.size();
  fm.mtime_ms = mtime;
  Status walk = WalkCsv(
      image, /*parse_samples=*/false,
      [&](const mseed::RecordHeader& h) {
        if (out.records.empty()) {
          fm.network = h.network;
          fm.station = h.station;
          fm.channel = h.channel;
          fm.location = h.location;
        }
        mseed::RecordMeta rm;
        rm.uri = uri;
        rm.record_id = static_cast<int64_t>(out.records.size());
        rm.start_time_ms = h.start_time_ms;
        rm.end_time_ms = h.EndTimeMs();
        rm.sample_rate_hz = h.sample_rate_hz;
        rm.num_samples = h.num_samples;
        out.records.push_back(std::move(rm));
        return Status::OK();
      },
      [](int32_t) { return Status::OK(); });
  if (!walk.ok()) return walk.WithContext("scanning '" + uri + "'");
  fm.num_records = static_cast<uint32_t>(out.records.size());
  out.files.push_back(std::move(fm));
  out.total_bytes = image.size();
  return out;
}

Status ConvertMseedRepository(const std::string& mseed_root,
                              const std::string& csv_root) {
  DEX_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                       ListFiles(mseed_root, ".mseed"));
  for (const std::string& path : paths) {
    DEX_ASSIGN_OR_RETURN(std::vector<mseed::DecodedRecord> records,
                         mseed::Reader::ReadAllRecords(path));
    std::vector<mseed::RecordData> data;
    data.reserve(records.size());
    for (mseed::DecodedRecord& rec : records) {
      mseed::RecordData rd;
      rd.network = rec.header.network;
      rd.station = rec.header.station;
      rd.channel = rec.header.channel;
      rd.location = rec.header.location;
      rd.start_time_ms = rec.header.start_time_ms;
      rd.sample_rate_hz = rec.header.sample_rate_hz;
      rd.samples = std::move(rec.samples);
      data.push_back(std::move(rd));
    }
    // Mirror the relative path, swapping the extension.
    std::string rel = path.substr(mseed_root.size());
    rel = rel.substr(0, rel.size() - 6) + kCsvExtension;  // strip ".mseed"
    DEX_RETURN_NOT_OK(WriteCsvFile(csv_root + rel, data));
  }
  return Status::OK();
}

}  // namespace dex::csvf

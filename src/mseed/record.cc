#include "mseed/record.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace dex::mseed {

namespace {

void AppendFixedString(std::string* out, const std::string& s, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out->push_back(i < s.size() ? s[i] : '\0');
  }
}

std::string ReadFixedString(const std::string& data, size_t pos, size_t width) {
  size_t len = 0;
  while (len < width && data[pos + len] != '\0') ++len;
  return data.substr(pos, len);
}

template <typename T>
void AppendLE(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
T ReadLE(const std::string& data, size_t pos) {
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  return v;
}

}  // namespace

void RecordHeader::AppendTo(std::string* out) const {
  const size_t start = out->size();
  out->append(kMagic, 4);
  AppendFixedString(out, network, 8);
  AppendFixedString(out, station, 8);
  AppendFixedString(out, channel, 8);
  AppendFixedString(out, location, 8);
  AppendLE(out, start_time_ms);
  AppendLE(out, sample_rate_hz);
  AppendLE(out, num_samples);
  AppendLE(out, data_bytes);
  out->push_back(static_cast<char>(encoding));
  // Pad to the fixed size.
  out->append(kSerializedBytes - (out->size() - start), '\0');
}

Status RecordHeader::Validate() const {
  const auto rate = [this] {
    char text[32];
    std::snprintf(text, sizeof(text), "%g", sample_rate_hz);
    return std::string(text);
  };
  if (!(sample_rate_hz > 0.0 && sample_rate_hz <= 1e6)) {  // NaN fails too
    return Status::Corruption("implausible sample rate " + rate() +
                              " in record header");
  }
  constexpr int64_t kLimit = int64_t{1} << 62;
  const double span =
      num_samples == 0 ? 0.0 : (num_samples - 1) * 1000.0 / sample_rate_hz;
  const double last = static_cast<double>(start_time_ms) + span;
  if (start_time_ms > kLimit || start_time_ms < -kLimit || span > 0x1p62 ||
      std::fabs(last) > 0x1p62) {
    return Status::Corruption("record sample times overflow: start " +
                              std::to_string(start_time_ms) + " ms, " +
                              std::to_string(num_samples) + " samples at " +
                              rate() + " Hz");
  }
  return Status::OK();
}

Result<RecordHeader> RecordHeader::Parse(const std::string& data, size_t offset) {
  if (offset + kSerializedBytes > data.size()) {
    return Status::Corruption("truncated record header at offset " +
                              std::to_string(offset));
  }
  if (std::memcmp(data.data() + offset, kMagic, 4) != 0) {
    return Status::Corruption("bad record magic at offset " +
                              std::to_string(offset));
  }
  RecordHeader h;
  size_t pos = offset + 4;
  h.network = ReadFixedString(data, pos, 8);
  pos += 8;
  h.station = ReadFixedString(data, pos, 8);
  pos += 8;
  h.channel = ReadFixedString(data, pos, 8);
  pos += 8;
  h.location = ReadFixedString(data, pos, 8);
  pos += 8;
  h.start_time_ms = ReadLE<int64_t>(data, pos);
  pos += 8;
  h.sample_rate_hz = ReadLE<double>(data, pos);
  pos += 8;
  h.num_samples = ReadLE<uint32_t>(data, pos);
  pos += 4;
  h.data_bytes = ReadLE<uint32_t>(data, pos);
  pos += 4;
  h.encoding = static_cast<uint8_t>(data[pos]);
  DEX_RETURN_NOT_OK(h.Validate());
  if (h.encoding != 1 && h.encoding != 2) {
    return Status::Corruption("unknown waveform encoding " +
                              std::to_string(h.encoding));
  }
  return h;
}

}  // namespace dex::mseed

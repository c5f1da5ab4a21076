#ifndef DEX_MSEED_RECORD_H_
#define DEX_MSEED_RECORD_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace dex::mseed {

/// \brief Fixed-size header preceding each record's Steim1 payload.
///
/// Modeled on the miniSEED fixed data header: SEED channel identifier
/// (network, station, channel, location), start time, sample rate and sample
/// count. A record is "the sensor readings over a consecutive time interval,
/// i.e., a time series" (paper §3). Serialized little-endian, 64 bytes.
struct RecordHeader {
  static constexpr size_t kSerializedBytes = 64;
  static constexpr char kMagic[4] = {'D', 'S', 'E', '1'};

  std::string network;   // up to 8 chars
  std::string station;   // up to 8 chars
  std::string channel;   // up to 8 chars
  std::string location;  // up to 8 chars
  int64_t start_time_ms = 0;   // epoch millis of the first sample
  double sample_rate_hz = 0.0;
  uint32_t num_samples = 0;
  uint32_t data_bytes = 0;     // length of the compressed payload that follows
  uint8_t encoding = 1;        // 1 = Steim1, 2 = Steim2

  /// OK when every sample time is defined: a finite rate in (0, 1e6] Hz,
  /// and a first sample time, span (num_samples - 1) * 1000 / rate and last
  /// sample time (computed in double) all within +-2^62 ms, so neither the
  /// per-sample offset cast nor `start + offset` can overflow int64. Both
  /// formats' parsers reject a header that fails it as corrupt.
  Status Validate() const;

  /// Epoch millis of the last sample.
  int64_t EndTimeMs() const {
    if (num_samples == 0 || sample_rate_hz <= 0.0) return start_time_ms;
    return start_time_ms +
           static_cast<int64_t>((num_samples - 1) * 1000.0 / sample_rate_hz);
  }

  /// Appends the 64-byte serialized header to `out`.
  void AppendTo(std::string* out) const;

  /// Parses a header at `data[offset..]`.
  static Result<RecordHeader> Parse(const std::string& data, size_t offset);
};

/// \brief Location of one record inside a file: header plus byte offsets.
struct RecordInfo {
  RecordHeader header;
  uint64_t header_offset = 0;  // where the 64-byte header starts
  uint64_t data_offset = 0;    // where the Steim1 payload starts
};

}  // namespace dex::mseed

#endif  // DEX_MSEED_RECORD_H_

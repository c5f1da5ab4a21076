#include "mseed/record.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace dex::mseed {
namespace {

RecordHeader MakeHeader() {
  RecordHeader h;
  h.network = "OR";
  h.station = "ISK";
  h.channel = "BHE";
  h.location = "00";
  h.start_time_ms = 1263254400000LL;  // 2010-01-12
  h.sample_rate_hz = 40.0;
  h.num_samples = 5000;
  h.data_bytes = 1344;
  return h;
}

TEST(RecordHeaderTest, SerializedSizeIsFixed) {
  std::string buf;
  MakeHeader().AppendTo(&buf);
  EXPECT_EQ(buf.size(), RecordHeader::kSerializedBytes);
}

TEST(RecordHeaderTest, Roundtrip) {
  std::string buf;
  const RecordHeader h = MakeHeader();
  h.AppendTo(&buf);
  auto parsed = RecordHeader::Parse(buf, 0);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->network, "OR");
  EXPECT_EQ(parsed->station, "ISK");
  EXPECT_EQ(parsed->channel, "BHE");
  EXPECT_EQ(parsed->location, "00");
  EXPECT_EQ(parsed->start_time_ms, h.start_time_ms);
  EXPECT_DOUBLE_EQ(parsed->sample_rate_hz, 40.0);
  EXPECT_EQ(parsed->num_samples, 5000u);
  EXPECT_EQ(parsed->data_bytes, 1344u);
}

TEST(RecordHeaderTest, RoundtripAtOffset) {
  std::string buf(100, 'x');
  MakeHeader().AppendTo(&buf);
  auto parsed = RecordHeader::Parse(buf, 100);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->station, "ISK");
}

TEST(RecordHeaderTest, MaxLengthCodesSurvive) {
  RecordHeader h = MakeHeader();
  h.station = "ABCDEFGH";  // exactly 8 chars, no terminator in the field
  std::string buf;
  h.AppendTo(&buf);
  auto parsed = RecordHeader::Parse(buf, 0);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->station, "ABCDEFGH");
}

TEST(RecordHeaderTest, TruncatedBufferRejected) {
  std::string buf;
  MakeHeader().AppendTo(&buf);
  buf.resize(32);
  EXPECT_TRUE(RecordHeader::Parse(buf, 0).status().IsCorruption());
}

TEST(RecordHeaderTest, BadMagicRejected) {
  std::string buf;
  MakeHeader().AppendTo(&buf);
  buf[0] = 'X';
  EXPECT_TRUE(RecordHeader::Parse(buf, 0).status().IsCorruption());
}

TEST(RecordHeaderTest, ImplausibleSampleRateRejected) {
  RecordHeader h = MakeHeader();
  h.sample_rate_hz = -1.0;
  std::string buf;
  h.AppendTo(&buf);
  EXPECT_TRUE(RecordHeader::Parse(buf, 0).status().IsCorruption());
}

TEST(RecordHeaderTest, UndefinedSampleTimesRejected) {
  constexpr int64_t kLimit = int64_t{1} << 62;
  // Rates that leave sample times undefined, or so small the span overflows.
  for (double rate : {0.0, -0.0, std::nan(""), HUGE_VAL, 1e6 * 1.0001, 1e-300}) {
    RecordHeader h = MakeHeader();
    h.sample_rate_hz = rate;
    EXPECT_TRUE(h.Validate().IsCorruption()) << rate;
    std::string buf;
    h.AppendTo(&buf);
    EXPECT_TRUE(RecordHeader::Parse(buf, 0).status().IsCorruption()) << rate;
  }
  // First or last sample time beyond +-2^62 ms.
  RecordHeader h = MakeHeader();
  h.sample_rate_hz = 1.0;
  h.num_samples = 10;
  h.start_time_ms = kLimit + 1;
  EXPECT_TRUE(h.Validate().IsCorruption());
  h.start_time_ms = -kLimit - 1;
  EXPECT_TRUE(h.Validate().IsCorruption());
  h.start_time_ms = kLimit - 4096;  // the last sample lands past 2^62
  EXPECT_TRUE(h.Validate().IsCorruption());
  // Inside the limits is fine.
  h.start_time_ms = kLimit - 16384;
  EXPECT_TRUE(h.Validate().ok()) << h.Validate().ToString();
  h.start_time_ms = -kLimit;
  EXPECT_TRUE(h.Validate().ok());
  h.sample_rate_hz = 1e6;
  EXPECT_TRUE(h.Validate().ok());
  h.num_samples = 0;
  h.sample_rate_hz = 1e-300;  // no samples, no span to overflow
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_TRUE(MakeHeader().Validate().ok());
}

TEST(RecordHeaderTest, EndTimeFromRateAndCount) {
  RecordHeader h = MakeHeader();
  h.start_time_ms = 1000;
  h.sample_rate_hz = 2.0;  // 500 ms between samples
  h.num_samples = 11;
  EXPECT_EQ(h.EndTimeMs(), 1000 + 10 * 500);
}

TEST(RecordHeaderTest, EndTimeDegenerateCases) {
  RecordHeader h = MakeHeader();
  h.num_samples = 0;
  EXPECT_EQ(h.EndTimeMs(), h.start_time_ms);
  h.num_samples = 10;
  h.sample_rate_hz = 0.0;
  EXPECT_EQ(h.EndTimeMs(), h.start_time_ms);
}

}  // namespace
}  // namespace dex::mseed

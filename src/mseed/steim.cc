#include "mseed/steim.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace dex::mseed {

namespace {

constexpr int kWordsPerFrame = 16;

// 2-bit nibble codes.
constexpr uint32_t kNibbleSpecial = 0;  // non-data word (w0, X0, XN)
constexpr uint32_t kNibble8 = 1;        // four 8-bit differences
constexpr uint32_t kNibble16 = 2;       // two 16-bit differences
constexpr uint32_t kNibble32 = 3;       // one 32-bit difference

void PutWordBE(std::string* out, size_t pos, uint32_t w) {
  (*out)[pos] = static_cast<char>((w >> 24) & 0xff);
  (*out)[pos + 1] = static_cast<char>((w >> 16) & 0xff);
  (*out)[pos + 2] = static_cast<char>((w >> 8) & 0xff);
  (*out)[pos + 3] = static_cast<char>(w & 0xff);
}

uint32_t GetWordBE(const std::string& data, size_t pos) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(data[pos])) << 24) |
         (static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 1])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 2])) << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(data[pos + 3]));
}

bool FitsIn8(int32_t d) { return d >= -128 && d <= 127; }
bool FitsIn16(int32_t d) { return d >= -32768 && d <= 32767; }

}  // namespace

size_t Steim1::MaxEncodedBytes(size_t n) {
  // Worst case: one 32-bit difference per data word, 13 data words in the
  // first frame, 15 in the rest.
  if (n == 0) return kFrameBytes;
  const size_t data_words = n;
  const size_t first_frame_words = 13;
  if (data_words <= first_frame_words) return kFrameBytes;
  const size_t rest = data_words - first_frame_words;
  const size_t extra_frames = (rest + 14) / 15;
  return (1 + extra_frames) * kFrameBytes;
}

std::string Steim1::Encode(const std::vector<int32_t>& samples) {
  std::string out;
  if (samples.empty()) return out;

  // Differences; d[0] is unused by the decoder (X0 is absolute) but still
  // encoded, as libmseed does.
  std::vector<int32_t> diffs(samples.size());
  diffs[0] = samples[0];
  for (size_t i = 1; i < samples.size(); ++i) {
    diffs[i] = static_cast<int32_t>(static_cast<uint32_t>(samples[i]) -
                                    static_cast<uint32_t>(samples[i - 1]));
  }

  size_t next = 0;  // next difference to encode
  bool first_frame = true;
  while (next < diffs.size()) {
    const size_t frame_pos = out.size();
    out.append(kFrameBytes, '\0');
    uint32_t nibbles = 0;
    int word = first_frame ? 3 : 1;  // skip w0 (+ X0/XN in frame 0)
    if (first_frame) {
      PutWordBE(&out, frame_pos + 4, static_cast<uint32_t>(samples.front()));
      PutWordBE(&out, frame_pos + 8, static_cast<uint32_t>(samples.back()));
    }
    for (; word < kWordsPerFrame && next < diffs.size(); ++word) {
      const size_t remaining = diffs.size() - next;
      uint32_t code;
      uint32_t w = 0;
      if (remaining >= 4 && FitsIn8(diffs[next]) && FitsIn8(diffs[next + 1]) &&
          FitsIn8(diffs[next + 2]) && FitsIn8(diffs[next + 3])) {
        code = kNibble8;
        for (int k = 0; k < 4; ++k) {
          w = (w << 8) | (static_cast<uint32_t>(diffs[next + k]) & 0xff);
        }
        next += 4;
      } else if (remaining >= 2 && FitsIn16(diffs[next]) &&
                 FitsIn16(diffs[next + 1])) {
        code = kNibble16;
        w = ((static_cast<uint32_t>(diffs[next]) & 0xffff) << 16) |
            (static_cast<uint32_t>(diffs[next + 1]) & 0xffff);
        next += 2;
      } else {
        code = kNibble32;
        w = static_cast<uint32_t>(diffs[next]);
        next += 1;
      }
      nibbles |= code << (2 * (15 - word));
      PutWordBE(&out, frame_pos + 4 * static_cast<size_t>(word), w);
    }
    PutWordBE(&out, frame_pos, nibbles);
    first_frame = false;
  }
  return out;
}

namespace {

/// Shared decode core: unpacks differences frame by frame. When
/// `frame_counts` is non-null it receives how many differences each frame
/// produced (one entry per frame, including trailing all-padding frames).
Result<std::vector<int32_t>> UnpackDiffs(const std::string& data,
                                         size_t num_samples,
                                         std::vector<uint32_t>* frame_counts) {
  std::vector<int32_t> diffs;
  diffs.reserve(num_samples);
  const size_t num_frames = data.size() / Steim1::kFrameBytes;
  if (frame_counts != nullptr) {
    frame_counts->assign(num_frames, 0);
  }
  for (size_t f = 0; f < num_frames && diffs.size() < num_samples; ++f) {
    const size_t frame_pos = f * Steim1::kFrameBytes;
    const uint32_t nibbles = GetWordBE(data, frame_pos);
    const int start_word = (f == 0) ? 3 : 1;
    const size_t before = diffs.size();
    for (int word = start_word; word < kWordsPerFrame && diffs.size() < num_samples;
         ++word) {
      const uint32_t code = (nibbles >> (2 * (15 - word))) & 0x3;
      const uint32_t w = GetWordBE(data, frame_pos + 4 * static_cast<size_t>(word));
      switch (code) {
        case kNibble8:
          for (int k = 3; k >= 0 && diffs.size() < num_samples; --k) {
            diffs.push_back(static_cast<int8_t>((w >> (8 * k)) & 0xff));
          }
          break;
        case kNibble16:
          for (int k = 1; k >= 0 && diffs.size() < num_samples; --k) {
            diffs.push_back(static_cast<int16_t>((w >> (16 * k)) & 0xffff));
          }
          break;
        case kNibble32:
          diffs.push_back(static_cast<int32_t>(w));
          break;
        case kNibbleSpecial:
          // Padding at the tail of the last frame.
          break;
      }
    }
    if (frame_counts != nullptr) {
      (*frame_counts)[f] = static_cast<uint32_t>(diffs.size() - before);
    }
  }
  if (diffs.size() < num_samples) {
    return Status::Corruption("Steim1 payload ran out of differences (" +
                              std::to_string(diffs.size()) + " < " +
                              std::to_string(num_samples) + ")");
  }
  return diffs;
}

Status CheckFrameAlignment(const std::string& data) {
  if (data.size() < Steim1::kFrameBytes ||
      data.size() % Steim1::kFrameBytes != 0) {
    return Status::Corruption("Steim1 payload is not a multiple of 64 bytes");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<int32_t>> Steim1::Decode(const std::string& data,
                                            size_t num_samples) {
  return DecodeWithStats(data, num_samples, nullptr, nullptr);
}

Result<std::vector<int32_t>> Steim1::DecodeWithStats(
    const std::string& data, size_t num_samples,
    std::vector<FrameStat>* stats, int64_t* sum) {
  if (stats != nullptr) stats->clear();
  if (sum != nullptr) *sum = 0;
  if (num_samples == 0) return std::vector<int32_t>{};
  DEX_RETURN_NOT_OK(CheckFrameAlignment(data));
  const int32_t x0 = static_cast<int32_t>(GetWordBE(data, 4));
  const int32_t xn = static_cast<int32_t>(GetWordBE(data, 8));

  std::vector<uint32_t> frame_counts;
  DEX_ASSIGN_OR_RETURN(
      std::vector<int32_t> diffs,
      UnpackDiffs(data, num_samples, stats != nullptr ? &frame_counts : nullptr));

  std::vector<int32_t> samples(num_samples);
  samples[0] = x0;
  for (size_t i = 1; i < num_samples; ++i) {
    samples[i] = static_cast<int32_t>(static_cast<uint32_t>(samples[i - 1]) +
                                      static_cast<uint32_t>(diffs[i]));
  }
  if (samples.back() != xn) {
    return Status::Corruption(
        "Steim1 reverse integration constant mismatch (got " +
        std::to_string(samples.back()) + ", frame says " + std::to_string(xn) + ")");
  }
  if (stats != nullptr) {
    stats->reserve(frame_counts.size());
    int64_t frames_sum = 0;
    size_t next = 0;  // first sample index of the current frame
    for (size_t f = 0; f < frame_counts.size(); ++f) {
      FrameStat fs;
      fs.first_sample = static_cast<uint32_t>(next);
      fs.count = frame_counts[f];
      fs.entry = (next == 0) ? x0 : samples[next - 1];
      if (fs.count > 0) {
        fs.min = fs.max = samples[next];
        for (size_t i = next; i < next + fs.count; ++i) {
          fs.min = std::min(fs.min, samples[i]);
          fs.max = std::max(fs.max, samples[i]);
          frames_sum += samples[i];
        }
      } else {
        // An all-padding trailing frame: carry the entry value so the
        // selective decoder's exit check still chains through it.
        fs.min = fs.max = fs.entry;
      }
      next += fs.count;
      stats->push_back(fs);
    }
    if (sum != nullptr) *sum = frames_sum;
  }
  return samples;
}

Status Steim1::DecodeSelected(const std::string& data, size_t num_samples,
                              const std::vector<FrameStat>& stats,
                              const std::vector<bool>& keep,
                              std::vector<uint32_t>* indices,
                              std::vector<int32_t>* values) {
  if (num_samples == 0) return Status::OK();
  DEX_RETURN_NOT_OK(CheckFrameAlignment(data));
  const size_t num_frames = data.size() / kFrameBytes;
  if (stats.size() != num_frames || keep.size() != num_frames) {
    return Status::Corruption("Steim1 zone map covers " +
                              std::to_string(stats.size()) + " frames, payload has " +
                              std::to_string(num_frames));
  }
  // The recorded frame spans must tile [0, num_samples) exactly; a stale map
  // (file rewritten to the same byte length) trips here or on the per-frame
  // entry/exit checks below.
  size_t expected_first = 0;
  for (size_t f = 0; f < num_frames; ++f) {
    if (stats[f].first_sample != expected_first) {
      return Status::Corruption("Steim1 zone map frame spans do not tile");
    }
    expected_first += stats[f].count;
  }
  if (expected_first != num_samples) {
    return Status::Corruption("Steim1 zone map sample count mismatch (" +
                              std::to_string(expected_first) + " vs " +
                              std::to_string(num_samples) + ")");
  }
  const int32_t x0 = static_cast<int32_t>(GetWordBE(data, 4));
  const int32_t xn = static_cast<int32_t>(GetWordBE(data, 8));
  if (stats[0].entry != x0) {
    return Status::Corruption("Steim1 zone map entry constant mismatch");
  }

  for (size_t f = 0; f < num_frames; ++f) {
    if (!keep[f] || stats[f].count == 0) continue;
    const int32_t exit_expected = (f + 1 < num_frames) ? stats[f + 1].entry : xn;
    const size_t frame_pos = f * kFrameBytes;
    const uint32_t nibbles = GetWordBE(data, frame_pos);
    const int start_word = (f == 0) ? 3 : 1;
    int32_t v = stats[f].entry;
    uint32_t produced = 0;
    uint32_t index = stats[f].first_sample;
    const uint32_t want = stats[f].count;
    auto emit = [&](int32_t diff) {
      if (produced >= want) return;
      if (index == 0) {
        // Sample 0 is X0 itself; its encoded difference is ignored.
        v = x0;
      } else {
        v = static_cast<int32_t>(static_cast<uint32_t>(v) +
                                 static_cast<uint32_t>(diff));
      }
      indices->push_back(index);
      values->push_back(v);
      ++index;
      ++produced;
    };
    for (int word = start_word; word < kWordsPerFrame && produced < want; ++word) {
      const uint32_t code = (nibbles >> (2 * (15 - word))) & 0x3;
      const uint32_t w = GetWordBE(data, frame_pos + 4 * static_cast<size_t>(word));
      switch (code) {
        case kNibble8:
          for (int k = 3; k >= 0; --k) {
            emit(static_cast<int8_t>((w >> (8 * k)) & 0xff));
          }
          break;
        case kNibble16:
          for (int k = 1; k >= 0; --k) {
            emit(static_cast<int16_t>((w >> (16 * k)) & 0xffff));
          }
          break;
        case kNibble32:
          emit(static_cast<int32_t>(w));
          break;
        case kNibbleSpecial:
          break;
      }
    }
    if (produced != want) {
      return Status::Corruption("Steim1 frame " + std::to_string(f) +
                                " yielded " + std::to_string(produced) +
                                " samples, zone map says " + std::to_string(want));
    }
    if (v != exit_expected) {
      return Status::Corruption("Steim1 frame " + std::to_string(f) +
                                " exit value " + std::to_string(v) +
                                " does not match the recorded entry of frame " +
                                std::to_string(f + 1));
    }
  }
  return Status::OK();
}

}  // namespace dex::mseed

#ifndef DEX_MSEED_STEIM_H_
#define DEX_MSEED_STEIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dex::mseed {

/// \brief Steim1 waveform compression, as used by SEED/miniSEED.
///
/// Frames are 64 bytes = 16 big-endian 32-bit words. Word 0 packs sixteen
/// 2-bit nibbles describing each word: 00 = non-data, 01 = four 8-bit
/// differences, 10 = two 16-bit differences, 11 = one 32-bit difference.
/// In the first frame, words 1 and 2 hold X0 (forward integration constant,
/// the first sample) and XN (reverse integration constant, the last sample);
/// XN lets the decoder verify integrity.
///
/// This is the "highly compressed" actual data of the paper's Table 1: the
/// eager-ingestion baseline pays decompression + materialization for the
/// whole repository, ALi only for files of interest.
class Steim1 {
 public:
  static constexpr size_t kFrameBytes = 64;

  /// \brief Per-frame zone-map statistics, harvested for free during a full
  /// decode (the decoder touches every sample anyway — the paper's
  /// derived-metadata argument applied one level down).
  ///
  /// `entry` is the accumulated sample value *entering* the frame: the value
  /// of the last sample produced before it (for frame 0, X0 — which is also
  /// sample 0 itself). Because Steim1 is differential, `entry` is exactly
  /// what a later selective decode needs to resume at this frame without
  /// unpacking any frame before it.
  struct FrameStat {
    uint32_t first_sample = 0;  // index of the first sample this frame yields
    uint32_t count = 0;         // samples produced by this frame
    int32_t min = 0;            // min sample value produced by this frame
    int32_t max = 0;            // max sample value produced by this frame
    int32_t entry = 0;          // accumulated value entering this frame
  };

  /// Compresses `samples` into a sequence of 64-byte frames.
  static std::string Encode(const std::vector<int32_t>& samples);

  /// Decompresses exactly `num_samples` samples from `data`. Fails with
  /// Corruption if the frames are malformed or the reverse integration
  /// constant does not match.
  static Result<std::vector<int32_t>> Decode(const std::string& data,
                                             size_t num_samples);

  /// Like Decode, but additionally fills one FrameStat per 64-byte frame
  /// and `*sum` with the sum of the samples — the same pass, no extra
  /// traversal. `stats` is cleared first.
  static Result<std::vector<int32_t>> DecodeWithStats(
      const std::string& data, size_t num_samples,
      std::vector<FrameStat>* stats, int64_t* sum);

  /// Selective decode: unpacks only the frames with `keep[f]` set, resuming
  /// each from `stats[f].entry`, and appends (sample index, value) pairs to
  /// `indices`/`values` in sample order. Skipped frames cost nothing — not
  /// even a word fetch beyond their nibble header.
  ///
  /// Self-verifying against stale zone maps: every decoded frame's exit
  /// value must equal the next frame's recorded `entry` (the last frame's
  /// must equal XN), and every frame must yield exactly `stats[f].count`
  /// samples. Any mismatch returns Corruption so the caller degrades to a
  /// full decode — a wrong persisted zone map can cost time, never rows.
  static Status DecodeSelected(const std::string& data, size_t num_samples,
                               const std::vector<FrameStat>& stats,
                               const std::vector<bool>& keep,
                               std::vector<uint32_t>* indices,
                               std::vector<int32_t>* values);

  /// Upper bound on the encoded size for `n` samples (for sizing buffers).
  static size_t MaxEncodedBytes(size_t n);
};

}  // namespace dex::mseed

#endif  // DEX_MSEED_STEIM_H_

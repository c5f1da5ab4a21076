#ifndef DEX_MSEED_READER_H_
#define DEX_MSEED_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "mseed/record.h"
#include "mseed/steim.h"

namespace dex::mseed {

/// \brief Decoded record: header plus raw integer samples.
///
/// A record may be decoded *sparsely* when a zone map proved that whole
/// Steim frames (or the whole record) cannot satisfy the query's predicate:
/// `sparse` is then true, `samples[i]` is the value of sample index
/// `sample_index[i]`, and skipped frames contribute no entries. A skipped
/// record keeps its slot (header intact, zero samples) so record ids stay
/// positional. `frame_stats` carries per-frame zone statistics harvested
/// during a full Steim1 decode when the caller asked for them.
struct DecodedRecord {
  RecordHeader header;
  std::vector<int32_t> samples;
  bool sparse = false;
  std::vector<uint32_t> sample_index;  // parallel to samples when sparse
  std::vector<Steim1::FrameStat> frame_stats;
  int64_t samples_sum = 0;  // harvested with frame_stats: the samples' sum
};

/// \brief Per-record decode instruction, produced by a caller-supplied
/// planner before the payload is touched.
struct RecordDecodePlan {
  /// Drop the whole record before decode (zone map excludes every sample).
  /// The record keeps its positional slot with zero samples.
  bool skip_record = false;
  /// Harvest per-frame stats during a full Steim1 decode (free: same pass).
  bool harvest = false;
  /// Frame-selective decode (Steim1 only): when non-null, only frames with
  /// `keep[f]` set are unpacked, resuming from the recorded entry values.
  /// Must outlive the read call. Ignored when `skip_record` is set.
  const std::vector<Steim1::FrameStat>* frames = nullptr;
  std::vector<bool> keep;
};

/// \brief Decides, per record, how much of its payload must be decoded.
/// `index` is the record's position in the file (its record id). Called on
/// the reading thread; implementations must be safe for concurrent mounts
/// of different files.
class RecordPruner {
 public:
  virtual ~RecordPruner() = default;
  virtual RecordDecodePlan Plan(size_t index, const RecordHeader& header) = 0;
};

/// \brief What zone-map pruning did (and failed to do) during one read.
struct PruneStats {
  uint64_t records_skipped = 0;  // whole records dropped before decode
  uint64_t frames_skipped = 0;   // frames skipped in selective decodes
  uint64_t frames_decoded = 0;   // frames unpacked in selective decodes
  uint64_t fallbacks = 0;        // selective decode failed → full decode
};

/// \brief What a salvaging read recovered from (and lost to) a damaged file.
///
/// `records_salvaged` counts records decoded *after* the first corruption
/// event in the file — data a strict reader would have thrown away.
/// `records_skipped` counts corrupt regions that had to be dropped (an
/// undecodable payload, or a run of bytes skipped while resynchronizing).
struct SalvageReport {
  uint64_t records_ok = 0;
  uint64_t records_salvaged = 0;
  uint64_t records_skipped = 0;
  uint64_t bytes_skipped = 0;
  std::vector<std::string> warnings;  // one per corruption event

  bool clean() const { return records_skipped == 0 && records_salvaged == 0; }
};

/// \brief Reads mSEED-style files.
///
/// Two access granularities mirror the paper's metadata/actual-data split:
/// `ScanHeaders` touches only the 64-byte headers (record-level metadata,
/// cheap — what the repository scanner and ALi's first stage rely on), while
/// `ReadAllRecords`/`ReadRecord` decompress actual data (expensive — what
/// `mount` pays during the second stage).
class Reader {
 public:
  /// Parses the record headers of `path` without decoding any samples.
  static Result<std::vector<RecordInfo>> ScanHeaders(const std::string& path);

  /// Same, over an in-memory file image.
  static Result<std::vector<RecordInfo>> ScanHeadersInMemory(
      const std::string& file_image);

  /// Reads and decodes every record in the file. Strict: the first corrupt
  /// byte fails the whole file. `pruner`, when non-null, is consulted per
  /// record and may skip it, restrict it to selected frames, or request
  /// frame-stat harvest; a selective decode that fails its zone-map
  /// verification degrades to a full decode (counted in `prune_stats`),
  /// never to an error.
  static Result<std::vector<DecodedRecord>> ReadAllRecords(
      const std::string& path, RecordPruner* pruner = nullptr,
      PruneStats* prune_stats = nullptr);

  /// Fault-tolerant variant: on a corrupt record, resynchronizes to the next
  /// plausible record boundary and keeps decoding. Record boundaries are
  /// 64-byte aligned (the header is 64 bytes and Steim payloads are whole
  /// 64-byte frames), so resynchronization scans forward over aligned
  /// offsets for a valid header magic + parseable header. Returns an error
  /// only when the file's bytes cannot be read at all; a fully corrupt file
  /// yields an empty record list plus a report describing what was lost.
  /// `pruner` as in ReadAllRecords.
  static Result<std::vector<DecodedRecord>> ReadAllRecordsSalvage(
      const std::string& path, SalvageReport* report,
      RecordPruner* pruner = nullptr, PruneStats* prune_stats = nullptr);

  /// Same, over an in-memory file image. `uri` labels warnings.
  static std::vector<DecodedRecord> SalvageInMemory(
      const std::string& file_image, const std::string& uri,
      SalvageReport* report, RecordPruner* pruner = nullptr,
      PruneStats* prune_stats = nullptr);

  /// Reads and decodes one record located by a prior ScanHeaders.
  static Result<DecodedRecord> ReadRecord(const std::string& path,
                                          const RecordInfo& info);
};

}  // namespace dex::mseed

#endif  // DEX_MSEED_READER_H_

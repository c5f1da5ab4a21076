#include "core/zone_map.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/seismic_schema.h"
#include "engine/kernel.h"
#include "io/byte_codec.h"
#include "io/file_io.h"
#include "obs/flight_recorder.h"

namespace dex {

namespace {

constexpr char kMagic[8] = {'D', 'X', 'Z', 'M', '0', '0', '0', '1'};
constexpr uint64_t kMaxFiles = 1ull << 24;
constexpr uint64_t kMaxRecordsPerFile = 1ull << 24;
constexpr uint64_t kMaxFramesPerRecord = 1ull << 20;
constexpr uint64_t kMaxStringBytes = 1ull << 20;

/// The pruner handed to the reader: a snapshot of one file's zones taken
/// under the store mutex, so concurrent zone updates (other sessions
/// mounting the same uri) never race the decode loop.
class SnapshotPruner : public mseed::RecordPruner {
 public:
  SnapshotPruner(std::map<int64_t, ZoneMapStore::RecordZone> zones, double lo,
                 double hi, bool record_level, bool frame_level, bool harvest)
      : zones_(std::move(zones)),
        lo_(lo),
        hi_(hi),
        record_level_(record_level),
        frame_level_(frame_level),
        harvest_(harvest) {}

  mseed::RecordDecodePlan Plan(size_t index,
                               const mseed::RecordHeader& header) override {
    mseed::RecordDecodePlan plan;
    auto it = zones_.find(static_cast<int64_t>(index));
    if (it == zones_.end()) {
      // Unknown record: decode fully, harvesting frame stats so the next
      // query over this file can prune.
      plan.harvest = harvest_;
      return plan;
    }
    const ZoneMapStore::RecordZone& zone = it->second;
    if (record_level_ && zone.values.count > 0 &&
        (zone.values.max < lo_ || zone.values.min > hi_)) {
      plan.skip_record = true;
      return plan;
    }
    if (frame_level_ && !zone.frames.empty() && header.encoding == 1) {
      plan.frames = &zone.frames;  // outlives the read: we own the snapshot
      plan.keep.resize(zone.frames.size());
      bool all = true;
      for (size_t f = 0; f < zone.frames.size(); ++f) {
        const mseed::Steim1::FrameStat& fs = zone.frames[f];
        const bool keep = fs.count > 0 && static_cast<double>(fs.max) >= lo_ &&
                          static_cast<double>(fs.min) <= hi_;
        plan.keep[f] = keep;
        all = all && keep;
      }
      if (all) {
        // Every frame may match: a plain full decode is cheaper than the
        // selective path (no chain verification bookkeeping).
        plan.frames = nullptr;
        plan.keep.clear();
      }
    }
    return plan;
  }

 private:
  const std::map<int64_t, ZoneMapStore::RecordZone> zones_;
  const double lo_, hi_;
  const bool record_level_, frame_level_, harvest_;
};

}  // namespace

void ZoneMapStore::Reconcile(const std::vector<mseed::FileMeta>& files) {
  std::vector<std::string> stale;  // flight-event details, in `files` order
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Listed files move into `kept` (their nodes, not copies); whatever is
    // left in files_ afterwards was not listed.
    std::unordered_map<std::string, FileZones> kept;
    kept.reserve(files.size());
    for (const mseed::FileMeta& file : files) {
      auto node = files_.extract(file.uri);
      if (node.empty()) {
        FileZones& fz = kept[file.uri];
        fz.size_bytes = file.size_bytes;
        fz.mtime_ms = file.mtime_ms;
        fz.expected_records = file.num_records;
        continue;
      }
      FileZones& fz = node.mapped();
      if (fz.size_bytes != file.size_bytes || fz.mtime_ms != file.mtime_ms) {
        // The file was rewritten since the zones were harvested: they
        // describe bytes that no longer exist. Drop them (safety ladder
        // step 1).
        if (!fz.records.empty()) {
          stale.push_back("'" + file.uri + "' rewritten; dropped " +
                          std::to_string(fz.records.size()) + " record zones");
          ++stale_dropped_;
          dirty_ = true;
        }
        fz.records.clear();
        fz.size_bytes = file.size_bytes;
        fz.mtime_ms = file.mtime_ms;
      }
      fz.expected_records = file.num_records;
      kept.insert(std::move(node));
    }
    // Forgetting a file's zones changes what the next save writes.
    for (const FileEntry& left : files_) {
      if (!left.second.records.empty()) dirty_ = true;
    }
    files_ = std::move(kept);
  }
  // Flight-record the drops outside mu_, in the order of `files`, so the
  // event stream is deterministic.
  for (std::string& detail : stale) {
    obs::FlightEvent e;
    e.kind = "zonemap_stale";
    e.detail = std::move(detail);
    obs::FlightRecorder::Global().Record(std::move(e));
  }
}

void ZoneMapStore::RecordMounted(
    const std::string& uri, int64_t record_id,
    const std::function<RecordValueStats()>& values,
    const std::vector<mseed::Steim1::FrameStat>* frames,
    uint32_t expected_records) {
  std::lock_guard<std::mutex> lock(mu_);
  FileZones& fz = files_[uri];
  if (fz.expected_records == 0) fz.expected_records = expected_records;
  auto it = fz.records.find(record_id);
  if (it != fz.records.end()) {
    // Re-mount of a known record: only upgrade (add frames a previous
    // harvest-free mount did not collect). Values are re-derived from the
    // same bytes, so first write wins.
    if (it->second.frames.empty() && frames != nullptr && !frames->empty()) {
      it->second.frames = *frames;
      dirty_ = true;
    }
    return;
  }
  RecordZone zone;
  zone.values = values();
  if (frames != nullptr) zone.frames = *frames;
  fz.records.emplace(record_id, std::move(zone));
  dirty_ = true;
}

RecordValueStats RecordValues(const mseed::DecodedRecord& rec) {
  if (rec.frame_stats.empty()) {
    const kernel::NumericAgg agg =
        kernel::AggI32(rec.samples.data(), rec.samples.size());
    return {agg.min, agg.max, agg.sum, agg.count};
  }
  // The harvested frames tile the record's samples, so their stats and the
  // sum the decode took with them fold into the record's without a second
  // pass over the samples.
  int32_t lo = 0;
  int32_t hi = 0;
  uint64_t count = 0;
  for (const mseed::Steim1::FrameStat& fs : rec.frame_stats) {
    if (fs.count == 0) continue;  // all padding
    lo = count == 0 ? fs.min : std::min(lo, fs.min);
    hi = count == 0 ? fs.max : std::max(hi, fs.max);
    count += fs.count;
  }
  return {static_cast<double>(lo), static_cast<double>(hi),
          static_cast<double>(rec.samples_sum), count};
}

std::unique_ptr<mseed::RecordPruner> ZoneMapStore::MakePruner(
    const std::string& uri, double lo, double hi, bool record_level,
    bool frame_level, bool harvest) const {
  std::map<int64_t, RecordZone> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(uri);
    if (it != files_.end()) snapshot = it->second.records;
  }
  if (snapshot.empty() && !harvest) return nullptr;
  return std::make_unique<SnapshotPruner>(std::move(snapshot), lo, hi,
                                          record_level, frame_level, harvest);
}

bool ZoneMapStore::HasCompleteFile(const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(uri);
  return it != files_.end() && it->second.complete();
}

bool ZoneMapStore::MayMatchValueRange(const std::string& uri, double lo,
                                      double hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(uri);
  if (it == files_.end() || !it->second.complete()) return true;
  for (const auto& rz : it->second.records) {
    const RecordValueStats& v = rz.second.values;
    if (v.count > 0 && v.max >= lo && v.min <= hi) return true;
  }
  return false;
}

Result<TablePtr> ZoneMapStore::BuildDerivedTable() const {
  auto table = std::make_shared<Table>(kDerivedTableName, MakeDerivedSchema());
  size_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Column at a time, one growth per column per file.
  for (const FileEntry* kv : SortedFilesLocked()) {
    const size_t n = kv->second.records.size();
    table->mutable_column(0)->AppendStringRun(kv->first, n);
    int64_t* ids = table->mutable_column(1)->AppendInt64Slots(n);
    double* mins = table->mutable_column(2)->AppendDoubleSlots(n);
    double* maxs = table->mutable_column(3)->AppendDoubleSlots(n);
    double* means = table->mutable_column(4)->AppendDoubleSlots(n);
    double* sums = table->mutable_column(5)->AppendDoubleSlots(n);
    int64_t* counts = table->mutable_column(6)->AppendInt64Slots(n);
    for (const auto& [record_id, zone] : kv->second.records) {
      const RecordValueStats& v = zone.values;
      *ids++ = record_id;
      *mins++ = v.min;
      *maxs++ = v.max;
      *means++ = v.count > 0 ? v.sum / static_cast<double>(v.count) : 0.0;
      *sums++ = v.sum;
      *counts++ = static_cast<int64_t>(v.count);
    }
    total += n;
  }
  DEX_RETURN_NOT_OK(table->CommitAppendedRows(total));
  return table;
}

std::vector<const ZoneMapStore::FileEntry*> ZoneMapStore::SortedFilesLocked()
    const {
  std::vector<const FileEntry*> entries;
  entries.reserve(files_.size());
  for (const FileEntry& kv : files_) {
    if (!kv.second.records.empty()) entries.push_back(&kv);
  }
  std::sort(entries.begin(), entries.end(),
            [](const FileEntry* a, const FileEntry* b) {
              return a->first < b->first;
            });
  return entries;
}

Status ZoneMapStore::SaveIfDirty(const std::string& path) {
  ByteWriter out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirty_) return Status::OK();
    out.Bytes(kMagic, sizeof(kMagic));
    // Deterministic bytes: uris sorted, records already ordered by id.
    const std::vector<const FileEntry*> entries = SortedFilesLocked();
    out.U64(entries.size());
    for (const FileEntry* kv : entries) {
      const FileZones& fz = kv->second;
      out.Str(kv->first);
      out.U64(fz.size_bytes);
      out.I64(fz.mtime_ms);
      out.U64(fz.expected_records);
      out.U64(fz.records.size());
      for (const auto& rz : fz.records) {
        out.I64(rz.first);
        out.F64(rz.second.values.min);
        out.F64(rz.second.values.max);
        out.F64(rz.second.values.sum);
        out.U64(rz.second.values.count);
        out.U64(rz.second.frames.size());
        for (const mseed::Steim1::FrameStat& fs : rz.second.frames) {
          out.U64(fs.first_sample);
          out.U64(fs.count);
          out.I64(fs.min);
          out.I64(fs.max);
          out.I64(fs.entry);
        }
      }
    }
    out.Seal();
    dirty_ = false;
  }
  Status s = WriteFileAtomic(path, out.bytes());
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;  // retry on the next save
  }
  return s;
}

Status ZoneMapStore::Load(const std::string& path) {
  std::string bytes;
  Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) return Status::OK();  // cold start: nothing persisted yet

  // Parse into a staging map first; only commit when the whole file —
  // seal, every field and the absence of trailing bytes — validated. Any
  // violation discards everything (safety ladder step 2): zones are hints,
  // a partial restore is not worth reasoning about.
  std::unordered_map<std::string, FileZones> staged;
  Status s = [&]() -> Status {
    DEX_ASSIGN_OR_RETURN(ByteReader body, Unseal(bytes, kMagic, "zone map"));
    DEX_ASSIGN_OR_RETURN(uint64_t num_files, body.Count(kMaxFiles));
    for (uint64_t i = 0; i < num_files; ++i) {
      DEX_ASSIGN_OR_RETURN(std::string uri, body.Str(kMaxStringBytes));
      FileZones fz;
      DEX_ASSIGN_OR_RETURN(fz.size_bytes, body.U64());
      DEX_ASSIGN_OR_RETURN(fz.mtime_ms, body.I64());
      DEX_ASSIGN_OR_RETURN(uint64_t expected, body.U64());
      fz.expected_records = static_cast<uint32_t>(expected);
      DEX_ASSIGN_OR_RETURN(uint64_t num_records, body.Count(kMaxRecordsPerFile));
      for (uint64_t r = 0; r < num_records; ++r) {
        DEX_ASSIGN_OR_RETURN(int64_t record_id, body.I64());
        RecordZone zone;
        DEX_ASSIGN_OR_RETURN(zone.values.min, body.F64());
        DEX_ASSIGN_OR_RETURN(zone.values.max, body.F64());
        DEX_ASSIGN_OR_RETURN(zone.values.sum, body.F64());
        DEX_ASSIGN_OR_RETURN(zone.values.count, body.U64());
        DEX_ASSIGN_OR_RETURN(uint64_t num_frames,
                             body.Count(kMaxFramesPerRecord));
        zone.frames.resize(num_frames);
        for (mseed::Steim1::FrameStat& fs : zone.frames) {
          DEX_ASSIGN_OR_RETURN(uint64_t first, body.U64());
          DEX_ASSIGN_OR_RETURN(uint64_t count, body.U64());
          DEX_ASSIGN_OR_RETURN(int64_t mn, body.I64());
          DEX_ASSIGN_OR_RETURN(int64_t mx, body.I64());
          DEX_ASSIGN_OR_RETURN(int64_t entry, body.I64());
          fs.first_sample = static_cast<uint32_t>(first);
          fs.count = static_cast<uint32_t>(count);
          fs.min = static_cast<int32_t>(mn);
          fs.max = static_cast<int32_t>(mx);
          fs.entry = static_cast<int32_t>(entry);
        }
        fz.records.emplace(record_id, std::move(zone));
      }
      staged.emplace(std::move(uri), std::move(fz));
    }
    return body.End();
  }();

  if (!s.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_discarded_;
    }
    DEX_LOG(Warning) << "discarding persisted zone maps (" << path
                     << "): " << s.ToString();
    // A corrupt persisted set is a control-plane decision worth replaying:
    // the next queries silently run unpruned, and "why was this cold run
    // slow?" should be answerable from the flight ring.
    obs::FlightEvent e;
    e.kind = "zonemap_discard";
    e.detail = "'" + path + "' discarded: " + s.ToString();
    obs::FlightRecorder::Global().Record(std::move(e));
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  files_ = std::move(staged);
  persisted_loads_ = files_.size();
  dirty_ = false;
  return Status::OK();
}

ZoneMapStore::Stats ZoneMapStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats st;
  for (const auto& kv : files_) {
    if (kv.second.records.empty()) continue;
    ++st.files;
    st.records += kv.second.records.size();
    for (const auto& rz : kv.second.records) {
      st.frames += rz.second.frames.size();
    }
  }
  st.persisted_loads = persisted_loads_;
  st.stale_dropped = stale_dropped_;
  st.corrupt_discarded = corrupt_discarded_;
  return st;
}

}  // namespace dex

// The four persisted formats — metadata snapshot (DXSNAP02), columnar cache
// entry (DXCOL001), cache manifest (DXMAN001) and zone-map file (DXZM0001) —
// under two contracts:
//
//  - FormatStability: one fixed input per format encodes to bytes of a
//    recorded length and FNV-1a. Files written by an older build must keep
//    loading in a newer one and the reverse, so any change to these numbers
//    is a format change: it needs a new magic (or manifest generation), not
//    a new constant here.
//  - CorruptionHarness: one small image per format, loaded through its
//    public entry point. The pristine image loads; every strict prefix,
//    every single-bit flip at every byte offset, and appended trailing bytes
//    are detected through the format's own signal — never a crash, never
//    data.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/logging.h"
#include "core/metadata_snapshot.h"
#include "core/persistent_cache.h"
#include "core/zone_map.h"
#include "io/columnar_file.h"
#include "io/file_io.h"
#include "io/sim_disk.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dex {
namespace {

// -- Fixed inputs, one per format ---------------------------------------------

constexpr char kSourceUri[] = "/repo/OR/ISK/BHE.mseed";

std::string ScratchDir(const std::string& tag) {
  return "/tmp/dex_test_formats_" + tag + "_" + std::to_string(::getpid());
}

// Constant string, strided timestamp and irregular double columns: three of
// the columnar frame encodings in four rows.
TablePtr FixedTable() {
  auto schema = std::make_shared<Schema>();
  schema->AddField({"uri", DataType::kString, "D"});
  schema->AddField({"sample_time", DataType::kTimestamp, "D"});
  schema->AddField({"sample_value", DataType::kDouble, "D"});
  auto table = std::make_shared<Table>("D", schema);
  const double values[] = {1.5, -2.25, 3.0, 0.125};
  for (int i = 0; i < 4; ++i) {
    table->mutable_column(0)->AppendString(kSourceUri);
    table->mutable_column(1)->AppendInt64(1000 + 250 * i);
    table->mutable_column(2)->AppendDouble(values[i]);
  }
  EXPECT_TRUE(table->CommitAppendedRows(4).ok());
  return table;
}

// table_byte_size is set, so the bytes do not follow Table::ByteSize().
ColumnarFileMeta FixedMeta(const std::string& uri, uint64_t size_bytes,
                           int64_t mtime_ms) {
  ColumnarFileMeta meta;
  meta.source_uri = uri;
  meta.predicate_repr = "(D.sample_time >= 1000)";
  meta.window_pure = true;
  meta.window_lo = 1000;
  meta.window_hi = 2000;
  meta.source_size_bytes = size_bytes;
  meta.source_mtime_ms = mtime_ms;
  meta.table_byte_size = 512;
  return meta;
}

std::string ColumnarImage() {
  return EncodeColumnarFile(*FixedTable(),
                            FixedMeta(kSourceUri, 4096, 1723180800000));
}

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

// Two files, three records.
std::string SnapshotImage(const std::string& path) {
  mseed::ScanResult scan;
  for (uint32_t f = 0; f < 2; ++f) {
    mseed::FileMeta file;
    file.uri = std::string("/repo/OR/ISK/BH") + "EN"[f] + ".mseed";
    file.network = "OR";
    file.station = "ISK";
    file.channel = std::string("BH") + "EN"[f];
    file.location = "00";
    file.size_bytes = 1024 * (f + 1);
    file.mtime_ms = 1723180800000 + f;
    file.num_records = f + 1;
    scan.total_bytes += file.size_bytes;
    for (uint32_t r = 0; r < file.num_records; ++r) {
      mseed::RecordMeta rec;
      rec.uri = file.uri;
      rec.record_id = r;
      rec.start_time_ms = 1262304000000 + 100000 * r;
      rec.end_time_ms = rec.start_time_ms + 99000;
      rec.sample_rate_hz = 0.01;
      rec.num_samples = 100;
      rec.data_offset = 512 * r + 64;
      rec.data_bytes = 448;
      scan.records.push_back(rec);
    }
    scan.files.push_back(file);
  }
  EXPECT_TRUE(SaveSnapshot(scan, path).ok());
  return ReadBytes(path);
}

// One file with two record zones; the first carries two Steim1 frame stats.
std::string ZoneMapImage(const std::string& path) {
  ZoneMapStore store;
  mseed::FileMeta file;
  file.uri = kSourceUri;
  file.size_bytes = 4096;
  file.mtime_ms = 1723180800000;
  file.num_records = 2;
  store.Reconcile({file});
  const std::vector<mseed::Steim1::FrameStat> frames = {{0, 7, -3, 12, 0},
                                                        {7, 5, -9, 4, 12}};
  store.RecordMounted(kSourceUri, 0, {-9, 12, 21.5, 12}, &frames, 2);
  store.RecordMounted(kSourceUri, 1, {-1.5, 2.5, 0.5, 4}, nullptr, 2);
  EXPECT_TRUE(store.SaveIfDirty(path).ok());
  return ReadBytes(path);
}

// One entry for `uri`; returns the manifest and sets `entry_file` to the
// entry file's name within `dir`.
std::string ManifestImage(const std::string& dir, const std::string& uri,
                          const ColumnarFileMeta& meta,
                          std::string* entry_file) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {dir, PersistentCache::kGeneration});
  EXPECT_TRUE(pc.Persist(uri, *FixedTable(), meta));
  auto files = ListFiles(dir, ".dxcol");
  EXPECT_TRUE(files.ok() && files->size() == 1u);
  if (entry_file != nullptr && files.ok() && !files->empty()) {
    *entry_file = files->front().substr(files->front().find_last_of('/') + 1);
  }
  return ReadBytes(dir + "/MANIFEST");
}

// -- FormatStability ----------------------------------------------------------

struct Fingerprint {
  size_t size;
  uint64_t fnv1a;
};

void ExpectFingerprint(const std::string& bytes, Fingerprint want) {
  EXPECT_EQ(bytes.size(), want.size);
  EXPECT_EQ(Fnv1aString(bytes), want.fnv1a)
      << "0x" << std::hex << Fnv1aString(bytes);
}

TEST(FormatStability, ColumnarEntry) {
  ExpectFingerprint(ColumnarImage(), {441, 0x6c1c1eb6d7b5dc35ULL});
}

TEST(FormatStability, Snapshot) {
  const std::string dir = ScratchDir("stable_snapshot");
  ExpectFingerprint(SnapshotImage(dir + "/meta.snap"),
                    {490, 0xd9ea82dd0050796eULL});
  (void)RemoveDirRecursive(dir);
}

TEST(FormatStability, ZoneMap) {
  const std::string dir = ScratchDir("stable_zonemap");
  ExpectFingerprint(ZoneMapImage(dir + "/zonemaps"),
                    {262, 0xcafe61c24725d983ULL});
  (void)RemoveDirRecursive(dir);
}

TEST(FormatStability, CacheManifest) {
  const std::string dir = ScratchDir("stable_manifest");
  ExpectFingerprint(
      ManifestImage(dir, kSourceUri, FixedMeta(kSourceUri, 4096, 1723180800000),
                    nullptr),
      {116, 0x0e2b928affbe1c66ULL});
  (void)RemoveDirRecursive(dir);
}

// -- CorruptionHarness --------------------------------------------------------

/// What loading one (possibly damaged) image did, judged by the format's own
/// signal: it yielded data, it reported the damage, or neither.
enum class Outcome { kLoaded, kDetected, kUndetected };

using Loader = std::function<Outcome(const std::string& image)>;

std::string LittleEndian(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  return std::string(buf, 8);
}

/// Loads `image`, then every mutant of it: each strict prefix, each
/// single-bit flip at each byte and, with `trailing`, one appended byte and
/// the image's own FNV-1a appended — which re-seals a whole-payload
/// checksum, so only a trailing-bytes check catches it. Every mutant must be
/// detected.
void ExpectEveryMutantDetected(const std::string& image, const Loader& load,
                               bool trailing = true) {
  ASSERT_EQ(load(image), Outcome::kLoaded) << "the pristine image must load";
  std::vector<std::string> missed;
  auto check = [&](const std::string& mutant, const std::string& what) {
    if (load(mutant) != Outcome::kDetected) missed.push_back(what);
  };
  for (size_t len = 0; len < image.size(); ++len) {
    check(image.substr(0, len), "prefix of " + std::to_string(len) + " bytes");
  }
  for (size_t off = 0; off < image.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = image;
      bad[off] = static_cast<char>(bad[off] ^ (1 << bit));
      check(bad, "bit " + std::to_string(bit) + " of byte " +
                     std::to_string(off));
    }
  }
  if (trailing) {
    check(image + '\0', "one trailing byte");
    check(image + LittleEndian(Fnv1aString(image)), "re-sealed trailing bytes");
  }
  std::string first;
  for (size_t i = 0; i < missed.size() && i < 8; ++i) first += missed[i] + "; ";
  EXPECT_TRUE(missed.empty()) << missed.size() << " mutants undetected, e.g. "
                              << first;
}

TEST(CorruptionHarness, Snapshot) {
  const std::string dir = ScratchDir("harness_snapshot");
  const std::string path = dir + "/meta.snap";
  const std::string image = SnapshotImage(path);
  ExpectEveryMutantDetected(image, [&](const std::string& bytes) {
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    auto loaded = LoadSnapshot(path);
    if (loaded.ok()) return Outcome::kLoaded;
    return loaded.status().IsCorruption() ? Outcome::kDetected
                                          : Outcome::kUndetected;
  });
  (void)RemoveDirRecursive(dir);
}

TEST(CorruptionHarness, ColumnarDecode) {
  ExpectEveryMutantDetected(ColumnarImage(), [](const std::string& bytes) {
    auto decoded = DecodeColumnarFile(bytes, nullptr);
    if (decoded.ok()) return Outcome::kLoaded;
    return decoded.status().IsCorruption() ? Outcome::kDetected
                                           : Outcome::kUndetected;
  });
}

// Peek validates the header alone (magic, fields, header checksum), so its
// sweep covers the header — the shortest prefix Peek accepts — and appends
// nothing: frames follow the header by design.
TEST(CorruptionHarness, ColumnarPeek) {
  const std::string image = ColumnarImage();
  ColumnarFileMeta meta;
  size_t header = 0;
  while (header < image.size() &&
         !PeekColumnarMeta(image.substr(0, header), &meta).ok()) {
    ++header;
  }
  ASSERT_GT(header, 8u);
  ASSERT_LT(header, image.size()) << "the header must end before the frames";
  EXPECT_EQ(meta.source_uri, kSourceUri);
  ExpectEveryMutantDetected(
      image.substr(0, header), [](const std::string& bytes) {
        ColumnarFileMeta got;
        const Status s = PeekColumnarMeta(bytes, &got);
        if (s.ok()) return Outcome::kLoaded;
        return s.IsCorruption() && got.source_uri.empty()
                   ? Outcome::kDetected
                   : Outcome::kUndetected;
      },
      /*trailing=*/false);
}

TEST(CorruptionHarness, ZoneMap) {
  const std::string dir = ScratchDir("harness_zonemap");
  const std::string path = dir + "/zonemaps";
  const std::string image = ZoneMapImage(path);
  // Every detected mutant logs a discard warning; keep the output readable.
  const LogLevel level = Logger::threshold();
  Logger::set_threshold(LogLevel::kError);
  ExpectEveryMutantDetected(image, [&](const std::string& bytes) {
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    ZoneMapStore store;
    if (!store.Load(path).ok()) return Outcome::kUndetected;
    const ZoneMapStore::Stats st = store.GetStats();
    if (st.corrupt_discarded == 0 && st.files > 0) return Outcome::kLoaded;
    return st.corrupt_discarded == 1 && st.files == 0 ? Outcome::kDetected
                                                      : Outcome::kUndetected;
  });
  Logger::set_threshold(level);
  (void)RemoveDirRecursive(dir);
}

// The entry's source file exists with the size and mtime it was persisted
// against, so the pristine manifest recovers its one entry and a stale drop
// can never pass for detection.
TEST(CorruptionHarness, CacheManifest) {
  const std::string dir = ScratchDir("harness_manifest");
  const std::string cache_dir = dir + "/cache";
  const std::string source = dir + "/BHE.mseed";
  ASSERT_TRUE(WriteStringToFile(source, std::string(100, 's')).ok());
  auto size = FileSize(source);
  auto mtime = FileMtimeMillis(source);
  ASSERT_TRUE(size.ok() && mtime.ok());
  std::string entry_file;
  const std::string image = ManifestImage(
      cache_dir, source, FixedMeta(source, *size, *mtime), &entry_file);
  const std::string entry = ReadBytes(cache_dir + "/" + entry_file);
  ExpectEveryMutantDetected(image, [&](const std::string& bytes) {
    // A detected manifest wipes the directory: rebuild it for every load.
    (void)RemoveDirRecursive(cache_dir);
    EXPECT_TRUE(WriteStringToFile(cache_dir + "/" + entry_file, entry).ok());
    EXPECT_TRUE(WriteStringToFile(cache_dir + "/MANIFEST", bytes).ok());
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir, PersistentCache::kGeneration});
    const size_t survivors = pc.Recover().size();
    const PersistentCache::Stats st = pc.stats();
    if (survivors == 1 && st.recovered == 1) return Outcome::kLoaded;
    return survivors == 0 && st.recovered == 0 && st.stale_dropped == 0
               ? Outcome::kDetected
               : Outcome::kUndetected;
  });
  (void)RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace dex

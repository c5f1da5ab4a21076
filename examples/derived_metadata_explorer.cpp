// Derived metadata as a side effect of exploration (paper §5):
//
//   "we can derive metadata as a side-effect of ALi or actual data
//    processing, without the explorer noticing."
//
// A two-phase story: the explorer browses a station once (mounting its
// files); afterwards, per-record summary statistics exist in the DM table,
// built from the zone maps every mount harvests.
// Later questions — which records are interesting, where are the peaks —
// are answered from metadata alone, and value-range predicates skip files
// that provably cannot match.

#include <cstdio>

#include "core/database.h"
#include "io/file_io.h"
#include "mseed/generator.h"

namespace {
constexpr const char* kRepoDir = "/tmp/dex_derived_repo";
}

int main() {
  dex::mseed::GeneratorOptions gen;
  gen.num_stations = 3;
  gen.channels_per_station = 3;
  gen.num_days = 5;
  gen.sample_rate_hz = 0.5;
  gen.event_probability = 0.3;
  (void)dex::RemoveDirRecursive(kRepoDir);
  if (!dex::mseed::GenerateRepository(kRepoDir, gen).ok()) return 1;

  dex::DatabaseOptions options;
  options.two_stage.pruning.file_level = true;
  auto db_or = dex::Database::Open(kRepoDir, options);
  if (!db_or.ok()) return 1;
  auto& db = *db_or;

  std::printf("phase 1: ordinary exploration of station ISK (mounts happen)\n");
  auto first = db->Query(
      "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean "
      "FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK';");
  if (!first.ok()) return 1;
  std::printf("%s", first->table->ToString().c_str());
  std::printf("  mounted %llu files; DM table now holds %zu record summaries\n",
              static_cast<unsigned long long>(first->stats.mount.mounts),
              static_cast<size_t>(db->zone_maps()->GetStats().records));

  std::printf("\nphase 2: which ISK records carry a large event?  "
              "(metadata only — not a single mount)\n");
  auto hunting = db->Query(
      "SELECT DM.uri, DM.record_id, DM.max_value FROM DM "
      "WHERE DM.max_value > 2000 ORDER BY DM.max_value DESC LIMIT 5;");
  if (!hunting.ok()) {
    std::fprintf(stderr, "%s\n", hunting.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", hunting->table->ToString().c_str());
  std::printf("  stage1_only=%s, mounts=%llu\n",
              hunting->stats.two_stage.stage1_only ? "yes" : "no",
              static_cast<unsigned long long>(hunting->stats.mount.mounts));

  std::printf("\nphase 3: an outlier hunt across ISK — files whose stats "
              "exclude the range are pruned before mounting\n");
  auto pruned = db->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND D.sample_value > 100000;");
  if (!pruned.ok()) return 1;
  std::printf("  matches: %lld, files pruned: %zu, files mounted: %llu\n",
              static_cast<long long>(pruned->table->GetValue(0, 0).int64()),
              pruned->stats.two_stage.files_pruned,
              static_cast<unsigned long long>(pruned->stats.mount.mounts));

  std::printf("\nphase 4: joining DM with F — derived metadata participates "
              "in Q_f like any metadata table\n");
  auto joined = db->Query(
      "SELECT F.channel, MAX(DM.max_value) AS peak "
      "FROM F JOIN DM ON F.uri = DM.uri GROUP BY F.channel ORDER BY F.channel;");
  if (!joined.ok()) {
    std::fprintf(stderr, "%s\n", joined.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", joined->table->ToString().c_str());
  return 0;
}

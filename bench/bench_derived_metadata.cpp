// Ablation A3 — "Extending metadata" (paper §5):
//
//   "we can derive metadata as a side-effect of ALi or actual data
//    processing, without the explorer noticing, in order to address lack of
//    metadata exploitation and long exploration."
//
// Scenario: an outlier hunt. The explorer sweeps stations looking for
// extreme samples (seismic events). With derived metadata enabled, the first
// pass records per-record min/max as a side effect; later passes prune files
// whose stats prove they cannot match, and summary queries are answered from
// the DM table without touching actual data at all.

#include "bench/bench_common.h"

using namespace dex;
using namespace dex::bench;

namespace {

const char* kWarmup =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK' "
    "OR F.station = 'ANK' OR F.station = 'IZM';";

std::string OutlierHunt(double threshold) {
  return "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
         "WHERE (F.station = 'ISK' OR F.station = 'ANK' OR F.station = 'IZM') "
         "AND D.sample_value > " + std::to_string(threshold) + ";";
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::FromEnv();
  const std::string dir = EnsureRepo(config);

  PrintHeader("A3 — Derived metadata: outlier hunts with and without it");

  DatabaseOptions plain;
  auto db_plain = MustOpen(dir, plain);

  DatabaseOptions derived;
  derived.two_stage.pruning.file_level = true;
  auto db_derived = MustOpen(dir, derived);

  // First pass on both systems: same work, but the derived system records
  // per-record stats as a side effect of the mounts.
  const Timing warm_plain = TimeQuery(db_plain.get(), kWarmup);
  const Timing warm_derived = TimeQuery(db_derived.get(), kWarmup);
  std::printf("first exploration pass: plain %.4fs, derived %.4fs "
              "(side-effect collection overhead: %+.1f%%)\n",
              warm_plain.total(), warm_derived.total(),
              100.0 * (warm_derived.total() / warm_plain.total() - 1.0));

  std::printf("\n%-24s %12s %8s %12s %8s %8s\n", "outlier threshold",
              "plain(s)", "mounts", "derived(s)", "mounts", "pruned");
  for (double threshold : {500.0, 2000.0, 8000.0, 50000.0}) {
    const std::string sql = OutlierHunt(threshold);
    const Timing plain_t = TimeQuery(db_plain.get(), sql);
    const Timing derived_t = TimeQuery(db_derived.get(), sql);
    std::printf("value > %-16.0f %12.4f %8llu %12.4f %8llu %8zu\n", threshold,
                plain_t.total(),
                static_cast<unsigned long long>(plain_t.stats.mount.mounts),
                derived_t.total(),
                static_cast<unsigned long long>(derived_t.stats.mount.mounts),
                derived_t.stats.two_stage.files_pruned);
  }

  // Summary queries answered purely from derived metadata (stage 1 only).
  const char* kSummary =
      "SELECT COUNT(*) AS records, MAX(DM.max_value) AS peak FROM DM;";
  const Timing dm = TimeQuery(db_derived.get(), kSummary);
  auto summary = db_derived->Query(kSummary);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("\npeak amplitude from DM table alone: %.4fs, stage1_only=%s, "
              "%llu mounts: %lld records, peak %.0f\n",
              dm.total(), dm.stats.two_stage.stage1_only ? "yes" : "no",
              static_cast<unsigned long long>(dm.stats.mount.mounts),
              static_cast<long long>(summary->table->GetValue(0, 0).int64()),
              summary->table->GetValue(0, 1).dbl());
  std::printf(
      "\nreading the table: the higher the threshold, the more files the\n"
      "derived stats exclude; queries that once re-mounted whole stations\n"
      "run from metadata alone — the paper's 'may even eliminate some of\n"
      "the long running queries'.\n");
  return 0;
}

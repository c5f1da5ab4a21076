// A12 — zone-map pruning + vectorized kernels: what skipping decode work
// the predicate already excluded buys on selective scans.
//
// Two databases over the same repository answer the same outlier-hunt
// queries:
//   volcano — zone maps off, SIMD kernels off: every mount decodes every
//             record in full and the per-batch scalar expression
//             interpreter filters the rows;
//   pruned  — record/frame zone maps on, vectorized kernels on: the first
//             pass harvests zones as a decode side effect, later passes
//             skip records/frames whose [min,max] cannot match and filter
//             the residual with the branchless kernels.
//
// Pruning saves *decode CPU only*: the mount still charges the whole-file
// simulated read, so the two systems must agree bit-for-bit on result rows
// AND on charged simulated I/O — only measured CPU seconds may move.
//
// Self-gating: exits non-zero unless (1) every threshold's result hash and
// charged sim I/O match between the two systems, (2) every selective
// threshold clears the >= 2x CPU speedup gate, (3) the pruned system
// actually skipped records. CI re-asserts the same from the JSON rows.

#include "bench/bench_common.h"
#include "common/fnv.h"

using namespace dex;
using namespace dex::bench;

namespace {

const char* kWarmup =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri;";

std::string OutlierHunt(double threshold) {
  return "SELECT F.station, COUNT(*) AS n, MIN(D.sample_value) AS lo, "
         "MAX(D.sample_value) AS hi "
         "FROM F JOIN D ON F.uri = D.uri "
         "WHERE D.sample_value > " + std::to_string(threshold) + " " +
         "GROUP BY F.station ORDER BY F.station;";
}

uint64_t TableHash(const Table& table) {
  return Fnv1aString(table.ToString(1u << 20));
}

struct QueryRun {
  Timing timing;
  uint64_t hash = 0;
};

QueryRun RunHashed(Database* db, const std::string& sql, int runs = 3) {
  QueryRun run;
  run.timing = TimeQueryAvg(db, sql, runs);
  auto r = db->Query(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  run.hash = TableHash(*r->table);
  return run;
}

}  // namespace

int main() {
  ObservabilityScope obs_scope;  // DEX_TRACE_OUT / DEX_METRICS_OUT
  const BenchConfig config = BenchConfig::FromEnv();
  const std::string dir = EnsureRepo(config);

  PrintHeader("A12 — Zone-map pruning + vectorized kernels vs volcano");

  DatabaseOptions volcano;
  volcano.collect_zone_maps = false;
  volcano.two_stage.pruning.record_level = false;
  volcano.two_stage.pruning.frame_level = false;
  volcano.two_stage.pruning.use_simd_kernels = false;
  auto db_volcano = MustOpen(dir, volcano);

  DatabaseOptions pruned;  // defaults: record/frame pruning + kernels on
  auto db_pruned = MustOpen(dir, pruned);

  // First pass on both systems: identical decode work, but the pruned
  // system harvests record/frame zones as a side effect of the mounts.
  const Timing warm_volcano = TimeQuery(db_volcano.get(), kWarmup);
  const Timing warm_pruned = TimeQuery(db_pruned.get(), kWarmup);
  const double overhead_pct =
      100.0 * (warm_pruned.cpu_seconds / warm_volcano.cpu_seconds - 1.0);
  std::printf("harvest pass: volcano %.4fs cpu, pruned %.4fs cpu "
              "(zone harvest overhead %+.1f%%)\n",
              warm_volcano.cpu_seconds, warm_pruned.cpu_seconds, overhead_pct);
  std::printf(
      "{\"bench\":\"zonemap\",\"row\":\"harvest\",\"volcano_cpu_s\":%.6f,"
      "\"pruned_cpu_s\":%.6f,\"overhead_pct\":%.2f}\n",
      warm_volcano.cpu_seconds, warm_pruned.cpu_seconds, overhead_pct);

  // Selective thresholds (gated >= 2x) plus one unselective control
  // (reported, not gated: a scan that keeps everything cannot prune).
  struct Case {
    double threshold;
    bool gated;
  };
  const Case cases[] = {
      {2000.0, true},      // seismic events only
      {8000.0, true},      // event peaks only
      {1000000.0, true},   // impossible: pure zone-map elimination
      {-1000000.0, false}, // control: keeps every sample
  };

  std::printf("\n%-22s %12s %12s %8s %10s %10s\n", "threshold", "volcano(s)",
              "pruned(s)", "speedup", "rec-skip", "frm-skip");
  bool pass = true;
  double min_gated_speedup = 1e9;
  uint64_t total_records_skipped = 0;
  for (const Case& c : cases) {
    const std::string sql = OutlierHunt(c.threshold);
    const QueryRun volcano_run = RunHashed(db_volcano.get(), sql);
    const QueryRun pruned_run = RunHashed(db_pruned.get(), sql);
    const double speedup =
        volcano_run.timing.cpu_seconds / pruned_run.timing.cpu_seconds;
    const uint64_t rec_skip =
        pruned_run.timing.stats.mount.records_skipped_zonemap;
    const uint64_t frm_skip =
        pruned_run.timing.stats.mount.frames_skipped_zonemap;
    const bool hashes_equal = volcano_run.hash == pruned_run.hash;
    const bool sim_io_equal = volcano_run.timing.stats.sim_io_nanos ==
                              pruned_run.timing.stats.sim_io_nanos;
    if (!hashes_equal || !sim_io_equal) pass = false;
    if (c.gated) {
      min_gated_speedup = std::min(min_gated_speedup, speedup);
      if (speedup < 2.0) pass = false;
      total_records_skipped += rec_skip;
    }
    std::printf("value > %-14.0f %12.4f %12.4f %7.2fx %10llu %10llu%s%s\n",
                c.threshold, volcano_run.timing.cpu_seconds,
                pruned_run.timing.cpu_seconds, speedup,
                static_cast<unsigned long long>(rec_skip),
                static_cast<unsigned long long>(frm_skip),
                hashes_equal ? "" : "  RESULT MISMATCH",
                sim_io_equal ? "" : "  SIM-I/O DRIFT");
    std::printf(
        "{\"bench\":\"zonemap\",\"row\":\"selective_scan\",\"threshold\":%.0f,"
        "\"gated\":%s,\"volcano_cpu_s\":%.6f,\"pruned_cpu_s\":%.6f,"
        "\"speedup\":%.3f,\"volcano_hash\":\"%016llx\","
        "\"pruned_hash\":\"%016llx\",\"sim_io_equal\":%s,"
        "\"records_skipped\":%llu,\"frames_skipped\":%llu}\n",
        c.threshold, c.gated ? "true" : "false",
        volcano_run.timing.cpu_seconds, pruned_run.timing.cpu_seconds, speedup,
        static_cast<unsigned long long>(volcano_run.hash),
        static_cast<unsigned long long>(pruned_run.hash),
        sim_io_equal ? "true" : "false",
        static_cast<unsigned long long>(rec_skip),
        static_cast<unsigned long long>(frm_skip));
  }
  if (total_records_skipped == 0) pass = false;

  std::printf(
      "{\"bench\":\"zonemap\",\"row\":\"zonemap_gate\",\"pass\":%s,"
      "\"min_gated_speedup\":%.3f,\"records_skipped\":%llu}\n",
      pass ? "true" : "false", min_gated_speedup,
      static_cast<unsigned long long>(total_records_skipped));
  std::printf(
      "\nreading the table: the zones harvested by the first pass let later\n"
      "selective scans drop records and Steim frames before decode; the\n"
      "sim-I/O ledger stays put (whole files are still read), only the CPU\n"
      "column moves. The gate holds the selective rows to >= 2x.\n");
  if (!pass) {
    std::fprintf(stderr, "zonemap gate FAILED\n");
    return 1;
  }
  return 0;
}

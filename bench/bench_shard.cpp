// A11 — sharded scatter/gather execution: what partitioning the repository
// across N storage nodes buys, and what the interconnect costs.
//
// The 64-file workload (4 stations x 4 channels x 4 days) runs a
// per-station aggregate that mounts every file, swept over
// shards {1,4,8} x workers {1,4,8}. Each shard models one storage node
// with a serial disk behind its own network link, so the *critical path*
// (slowest shard's scan + mount + gather time) shrinks with the shard
// count while the *charged* simulated time — and the results, and the
// quarantine set — stay bit-identical at any worker count and any
// physical pool size. Two scenario legs exercise the fault model: a
// lossy-interconnect replay (same seed twice → identical nanos) and a
// dead shard (deterministic partial results with files_skipped_shard).
//
// Self-gating: exits non-zero unless (1) sharded rows are worker-invariant
// in result hash, quarantine hash, and charged sim nanos, (2) 4 shards
// deliver >= 2x the 1-shard stage1+stage2 critical path, (3) the lossy
// replay is bit-identical, (4) the dead-shard runs agree with each other.
// CI re-asserts the same invariants from the JSON rows.

#include <map>
#include <tuple>

#include "bench/bench_common.h"
#include "common/fnv.h"
#include "shard/sharded_repository.h"

using namespace dex;
using namespace dex::bench;

namespace {

/// Every file participates: per-station aggregate over the full D join.
const char* kScatterQuery =
    "SELECT F.station, AVG(D.sample_value), COUNT(*) "
    "FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station ORDER BY F.station;";

uint64_t TableHash(const Table& table) {
  return Fnv1aString(table.ToString(1u << 20));
}

/// The quarantine set as the determinism witness: registry count + the
/// QUARANTINE metadata table rendering.
uint64_t QuarantineHash(Database* db) {
  std::string dump = std::to_string(db->registry()->num_quarantined());
  auto t = db->catalog()->GetTable("QUARANTINE");
  if (t.ok()) dump += (*t)->ToString(1u << 20);
  return Fnv1aString(dump);
}

struct RunRow {
  int shards = 1;
  size_t workers = 1;
  uint64_t result_hash = 0;
  uint64_t quarantine_hash = 0;
  uint64_t sim_io_nanos = 0;        // charged: must be worker-invariant
  uint64_t net_sim_nanos = 0;       // interconnect share of the charge
  uint64_t critical_path_nanos = 0; // stage-1 + stage-2 over the shards
  size_t files_skipped_shard = 0;
};

RunRow RunOnce(const std::string& dir, int shards, size_t workers,
               double loss_rate = 0.0, uint64_t seed = 0,
               int kill_shard = -1) {
  DatabaseOptions opts;
  opts.shard.num_shards = shards;
  opts.shard.policy = ShardedRepository::Policy::kStationRange;
  opts.shard.net.fault_seed = seed;
  opts.shard.net.transient_loss_rate = loss_rate;
  opts.two_stage.num_threads = workers;
  opts.stage1_threads = workers;
  auto db = MustOpen(dir, opts);
  db->FlushBuffers();  // Open()'s header scan left the files resident
  if (kill_shard >= 0) {
    const Status st = db->shards()->KillShard(kill_shard);
    if (!st.ok()) {
      std::fprintf(stderr, "kill shard failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  const Timing t = TimeQuery(db.get(), kScatterQuery);
  const TwoStageStats& ts = t.stats.two_stage;
  const OpenStats& open = db->open_stats();

  RunRow row;
  row.shards = shards;
  row.workers = workers;
  row.result_hash = 0;  // filled by caller (needs the table)
  row.quarantine_hash = QuarantineHash(db.get());
  row.sim_io_nanos = t.stats.sim_io_nanos;
  row.net_sim_nanos = ts.net_sim_nanos;
  row.files_skipped_shard = ts.files_skipped_shard;
  // Stage-2 critical path: the sharded executor reports the slowest shard;
  // the unsharded serial baseline (1 worker) reports nothing, so its
  // critical path *is* what the single node charged.
  const uint64_t stage2 =
      ts.parallel_sim_nanos > 0 ? ts.parallel_sim_nanos : t.stats.sim_io_nanos;
  row.critical_path_nanos = open.parallel_sim_nanos + stage2;

  // Re-run for the result hash (cached second run — same table either way).
  auto r = db->Query(kScatterQuery);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  row.result_hash = TableHash(*r->table);
  return row;
}

void PrintJson(const RunRow& row, size_t files, const char* scenario) {
  std::printf(
      "{\"bench\":\"shard\",\"scenario\":\"%s\",\"shards\":%d,"
      "\"workers\":%zu,\"files\":%zu,\"result_hash\":\"%016llx\","
      "\"quarantine_hash\":\"%016llx\",\"sim_io_nanos\":%llu,"
      "\"net_sim_nanos\":%llu,\"critical_path_nanos\":%llu,"
      "\"files_skipped_shard\":%zu}\n",
      scenario, row.shards, row.workers, files,
      static_cast<unsigned long long>(row.result_hash),
      static_cast<unsigned long long>(row.quarantine_hash),
      static_cast<unsigned long long>(row.sim_io_nanos),
      static_cast<unsigned long long>(row.net_sim_nanos),
      static_cast<unsigned long long>(row.critical_path_nanos),
      row.files_skipped_shard);
}

}  // namespace

int main() {
  ObservabilityScope obs_scope;  // DEX_TRACE_OUT / DEX_METRICS_OUT
  BenchConfig config = BenchConfig::FromEnv();
  if (std::getenv("DEX_BENCH_STATIONS") == nullptr &&
      std::getenv("DEX_BENCH_CHANNELS") == nullptr &&
      std::getenv("DEX_BENCH_DAYS") == nullptr) {
    config.stations = 4;
    config.channels = 4;
    config.days = 4;
  }
  const std::string dir = EnsureRepo(config);
  const size_t files = static_cast<size_t>(config.stations) * config.channels *
                       config.days;

  PrintHeader("A11 — Sharded scatter/gather execution");
  std::printf("workload: %d stations x %d channels x %d days = %zu files, "
              "per-station aggregate mounting every file\n\n",
              config.stations, config.channels, config.days, files);

  int failures = 0;
  std::map<int, RunRow> first_by_shards;
  std::map<std::pair<int, size_t>, RunRow> rows;

  std::printf("%-7s %-8s %12s %12s %15s %9s\n", "shards", "workers",
              "charged sim", "net sim", "critical path", "speedup");
  for (int shards : {1, 4, 8}) {
    for (size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
      const RunRow row = RunOnce(dir, shards, workers);
      rows[{shards, workers}] = row;
      if (first_by_shards.find(shards) == first_by_shards.end()) {
        first_by_shards.emplace(shards, row);
      }
      const RunRow& base = rows[{1, size_t{1}}];
      const double speedup =
          row.critical_path_nanos > 0
              ? static_cast<double>(base.critical_path_nanos) /
                    static_cast<double>(row.critical_path_nanos)
              : 1.0;
      std::printf("%-7d %-8zu %11.4fs %11.4fs %14.4fs %8.2fx\n", shards,
                  workers, row.sim_io_nanos / 1e9, row.net_sim_nanos / 1e9,
                  row.critical_path_nanos / 1e9, speedup);
      PrintJson(row, files, "sweep");

      // Gate 1: sharded execution is worker-invariant in everything but
      // wall time.
      if (shards > 1) {
        const RunRow& first = first_by_shards[shards];
        if (row.result_hash != first.result_hash ||
            row.quarantine_hash != first.quarantine_hash ||
            row.sim_io_nanos != first.sim_io_nanos ||
            row.critical_path_nanos != first.critical_path_nanos) {
          std::fprintf(stderr,
                       "FAIL: %d-shard run at %zu workers diverged from the "
                       "1-worker run\n",
                       shards, workers);
          ++failures;
        }
      }
    }
  }

  // Gate 2: four shards at least halve the single-node critical path.
  const double speedup4 =
      static_cast<double>(rows[{1, size_t{1}}].critical_path_nanos) /
      static_cast<double>(rows[{4, size_t{1}}].critical_path_nanos);
  std::printf("\n4-shard critical-path speedup over 1 shard: %.2fx\n",
              speedup4);
  if (speedup4 < 2.0) {
    std::fprintf(stderr, "FAIL: expected >= 2x at 4 shards, got %.2fx\n",
                 speedup4);
    ++failures;
  }

  // Scenario: lossy interconnect, replayed. Same seed, different worker
  // counts — the fault schedule, results, and charged time must replay
  // bit-identically.
  const RunRow replay_a = RunOnce(dir, 4, 1, /*loss_rate=*/0.05, /*seed=*/7);
  const RunRow replay_b = RunOnce(dir, 4, 8, /*loss_rate=*/0.05, /*seed=*/7);
  PrintJson(replay_a, files, "replay");
  PrintJson(replay_b, files, "replay");
  if (replay_a.result_hash != replay_b.result_hash ||
      replay_a.sim_io_nanos != replay_b.sim_io_nanos ||
      replay_a.net_sim_nanos != replay_b.net_sim_nanos) {
    std::fprintf(stderr, "FAIL: lossy replay diverged across worker counts\n");
    ++failures;
  }
  if (replay_a.net_sim_nanos <= rows[{4, size_t{1}}].net_sim_nanos) {
    std::fprintf(stderr, "FAIL: losses did not show up in the net charge\n");
    ++failures;
  }

  // Scenario: a dead shard. One station range drops out; the partial
  // result and its accounting must not depend on the worker count.
  const RunRow dead_a = RunOnce(dir, 4, 1, 0.0, 0, /*kill_shard=*/1);
  const RunRow dead_b = RunOnce(dir, 4, 8, 0.0, 0, /*kill_shard=*/1);
  PrintJson(dead_a, files, "dead_shard");
  PrintJson(dead_b, files, "dead_shard");
  if (dead_a.files_skipped_shard == 0 ||
      dead_a.files_skipped_shard != dead_b.files_skipped_shard ||
      dead_a.result_hash != dead_b.result_hash ||
      dead_a.sim_io_nanos != dead_b.sim_io_nanos) {
    std::fprintf(stderr, "FAIL: dead-shard degradation not deterministic\n");
    ++failures;
  }
  if (dead_a.result_hash == rows[{4, size_t{1}}].result_hash) {
    std::fprintf(stderr, "FAIL: dead shard did not change the result\n");
    ++failures;
  }

  std::printf(
      "\nreading the table: \"charged sim\" is what each query added to the\n"
      "simulated clock — for a fixed shard count it is identical at every\n"
      "worker count (workers only shorten wall time). \"critical path\" is\n"
      "the slowest shard's stage-1 scan + stage-2 mount + gather time: the\n"
      "latency a real N-node deployment would see, shrinking with N at the\n"
      "price of the interconnect charge in \"net sim\". 8 shards repeat the\n"
      "4-shard numbers: station-range partitioning cannot split 4 stations\n"
      "across more than 4 nodes — partition granularity caps scale-out.\n");

  if (failures > 0) {
    std::fprintf(stderr, "\n%d invariant(s) failed\n", failures);
    return 1;
  }
  std::printf("\nall sharding invariants held\n");
  return 0;
}

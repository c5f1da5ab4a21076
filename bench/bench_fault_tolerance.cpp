// A8 — the price of robustness: query latency and result completeness
// under injected I/O faults.
//
// A real repository sits on flaky media; the question for ALi is what a
// given fault rate costs a query (retry backoff charged as simulated I/O)
// and what it costs the answer (rows lost to quarantined files). We sweep
// the transient fault rate with the default kSalvage policy, then fail a
// handful of files permanently and watch quarantine amortize the damage.

#include "bench/bench_common.h"

using namespace dex;
using namespace dex::bench;

int main() {
  const BenchConfig config = BenchConfig::FromEnv();
  const std::string dir = EnsureRepo(config);

  PrintHeader("A8 — Fault-tolerant lazy ingestion");
  std::printf("workload: %d stations x %d channels x %d days @ %g Hz\n\n",
              config.stations, config.channels, config.days,
              config.sample_rate_hz);

  const std::string scan_all = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

  // Baseline row count on a fault-free medium.
  uint64_t full_rows = 0;
  {
    auto db = MustOpen(dir, {});
    db->FlushBuffers();
    const Timing t = TimeQuery(db.get(), scan_all);
    full_rows = static_cast<uint64_t>(t.stats.result_rows > 0
                                          ? t.stats.mount.samples_decoded
                                          : 0);
  }

  std::printf("-- transient faults (kSalvage, retry/backoff) --\n");
  std::printf("%-12s %10s %10s %10s %10s %12s\n", "fault rate", "cold query",
              "sim I/O", "retries", "failed", "completeness");
  const double rates[] = {0.0, 0.001, 0.01, 0.05};
  for (double rate : rates) {
    DatabaseOptions opts;
    opts.disk.faults.seed = 42;
    opts.disk.faults.transient_error_rate = rate;
    auto db = MustOpen(dir, opts);
    db->FlushBuffers();
    const Timing t = TimeQuery(db.get(), scan_all);
    const double completeness =
        full_rows == 0 ? 1.0
                       : static_cast<double>(t.stats.mount.samples_decoded) /
                             static_cast<double>(full_rows);
    std::printf("%11.1f%% %9.4fs %9.4fs %10llu %10llu %11.2f%%\n", rate * 100,
                t.total(), t.sim_io_seconds,
                static_cast<unsigned long long>(t.stats.mount.read_retries),
                static_cast<unsigned long long>(t.stats.mount.files_failed),
                completeness * 100);
  }

  std::printf(
      "\n-- permanent failures (quarantine + graceful degradation) --\n");
  {
    auto db = MustOpen(dir, {});
    db->FlushBuffers();
    const Timing healthy = TimeQuery(db.get(), scan_all);

    // Three files' sectors die under the database.
    const std::vector<std::string> uris = db->registry()->AllUris();
    const size_t victims = uris.size() < 3 ? uris.size() : 3;
    for (size_t i = 0; i < victims; ++i) {
      auto entry = db->registry()->Get(uris[i]);
      if (entry.ok()) db->disk()->fault_injector()->FailObject(entry->object);
    }
    db->FlushBuffers();

    // First query after the failure eats the retries and quarantines.
    const Timing first = TimeQuery(db.get(), scan_all);
    // Subsequent queries skip quarantined files during planning.
    db->FlushBuffers();
    const Timing second = TimeQuery(db.get(), scan_all);

    std::printf("%-28s %10s %10s %10s %12s\n", "state", "cold query", "retries",
                "failed", "quarantined");
    std::printf("%-28s %9.4fs %10llu %10llu %12llu\n", "healthy",
                healthy.total(),
                static_cast<unsigned long long>(
                    healthy.stats.mount.read_retries),
                static_cast<unsigned long long>(
                    healthy.stats.mount.files_failed),
                0ull);
    std::printf("%-28s %9.4fs %10llu %10llu %12llu\n",
                "first query after failure", first.total(),
                static_cast<unsigned long long>(first.stats.mount.read_retries),
                static_cast<unsigned long long>(first.stats.mount.files_failed),
                static_cast<unsigned long long>(
                    first.stats.two_stage.files_quarantined +
                    first.stats.mount.files_failed));
    std::printf("%-28s %9.4fs %10llu %10llu %12llu\n",
                "steady state (quarantined)", second.total(),
                static_cast<unsigned long long>(
                    second.stats.mount.read_retries),
                static_cast<unsigned long long>(
                    second.stats.mount.files_failed),
                static_cast<unsigned long long>(
                    second.stats.two_stage.files_quarantined));
  }

  std::printf(
      "\nreading the table: transient faults cost only retries — backoff\n"
      "shows up as simulated I/O, the result stays bit-identical to the\n"
      "fault-free run. Permanent failures cost one burst of retries on the\n"
      "first affected query; quarantine then removes the bad files from\n"
      "files-of-interest planning, so steady-state latency returns to the\n"
      "healthy baseline minus the quarantined files' share of the scan.\n");
  return 0;
}

// The three benchmark workloads: repository scale, database options and the
// seeded operation sequence of one episode. The database sees only the SQL
// and the files generated here.
#ifndef DEXBENCH_WORKLOAD_H_
#define DEXBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "mseed/generator.h"

namespace dexbench {

/// Shape of the synthetic mSEED repository (one file per station, channel
/// and day). `ingest_days` more days are generated up front and copied in
/// one per round by the `ingest` workload.
struct RepoScale {
  int stations = 0;
  int channels = 0;
  int base_days = 0;
  int ingest_days = 0;
  double sample_rate_hz = 1.0;
  int records_per_file = 4;
};

/// One step of an episode.
struct Op {
  enum class Kind { kQuery, kRefresh, kAddDay };
  Kind kind = Kind::kQuery;
  std::string sql;    // kQuery
  std::string label;  // what the step does, e.g. "zoom_in" or "outlier_pruned"
  bool ordered = false;  // the result order is defined by ORDER BY
  int day = -1;          // kAddDay: day index copied in
  int expect_added = 0;  // kRefresh: files Refresh() must report as added
  /// Repository-relative files the query's predicates select (its files of
  /// interest when none is empty of records).
  std::vector<std::string> files;
};

struct Workload {
  std::string name;
  RepoScale scale;
  /// Run once right after Open; its time counts in setup_s, not in the
  /// query latencies.
  std::string warmup_sql;
  std::vector<Op> ops;  // one episode
};

/// Builds workload `name` ("explore", "sweep" or "ingest") for `seed`.
/// The same name and seed always give the same workload.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out,
                  std::string* error);

/// Options of the measured database for workload `name`. Every thread knob
/// is pinned, so simulated time does not depend on the host's core count.
dex::DatabaseOptions MeasuredOptions(const std::string& name);

/// The correctness oracle's options: caching, zone-map pruning, SIMD
/// kernels, sharding and parallel mounts all off.
dex::DatabaseOptions ReferenceOptions();

/// Generator options for the full repository (base plus ingest days).
dex::mseed::GeneratorOptions GeneratorFor(const RepoScale& scale,
                                          uint64_t seed);

/// Repository-relative path of one generated file.
std::string RepoFile(const std::string& station, const std::string& channel,
                     int day);

/// One-line description of the workload's scale, cache and pool sizes.
std::string Describe(const Workload& w, const dex::DatabaseOptions& options);

}  // namespace dexbench

#endif  // DEXBENCH_WORKLOAD_H_

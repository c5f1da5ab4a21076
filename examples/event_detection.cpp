// A real seismology workload on top of the public API: STA/LTA event
// detection (the short-term-average / long-term-average trigger that
// motivates the paper's Query 1 — "the short term averaging task performed
// by seismologists while hunting for interesting seismic events").
//
// The pipeline exercises every layer of the system:
//   1. derived metadata (collected as a side effect of a single survey
//      query) ranks records by peak amplitude — no manual pre-processing;
//   2. only candidate records' files are mounted, via the paper's two-stage
//      execution, to retrieve their waveforms;
//   3. a classic recursive STA/LTA trigger runs over each waveform and
//      reports trigger windows.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time_utils.h"
#include "core/database.h"
#include "io/file_io.h"
#include "mseed/generator.h"

namespace {

constexpr const char* kRepoDir = "/tmp/dex_event_detection_repo";

struct Trigger {
  int64_t onset_ms;
  double peak_ratio;
};

/// Recursive STA/LTA with exponential moving averages; triggers when the
/// ratio crosses `on`, releases below `off`.
std::vector<Trigger> StaLta(const std::vector<int64_t>& times,
                            const std::vector<double>& values, double sta_tau,
                            double lta_tau, double on, double off) {
  std::vector<Trigger> triggers;
  double sta = 1.0, lta = 1.0;
  bool armed = false;
  Trigger current{0, 0};
  for (size_t i = 0; i < values.size(); ++i) {
    const double energy = values[i] * values[i];
    sta += (energy - sta) / sta_tau;
    lta += (energy - lta) / lta_tau;
    const double ratio = lta > 1e-9 ? sta / lta : 0.0;
    if (!armed && ratio > on) {
      armed = true;
      current = {times[i], ratio};
    } else if (armed) {
      current.peak_ratio = std::max(current.peak_ratio, ratio);
      if (ratio < off) {
        triggers.push_back(current);
        armed = false;
      }
    }
  }
  if (armed) triggers.push_back(current);
  return triggers;
}

}  // namespace

int main() {
  dex::mseed::GeneratorOptions gen;
  gen.num_stations = 4;
  gen.channels_per_station = 3;
  gen.num_days = 6;
  gen.sample_rate_hz = 0.5;
  gen.event_probability = 0.2;
  gen.encoding = 2;  // Steim2, like modern archives
  (void)dex::RemoveDirRecursive(kRepoDir);
  if (!dex::mseed::GenerateRepository(kRepoDir, gen).ok()) return 1;

  dex::DatabaseOptions options;
  options.cache.policy = dex::CachePolicy::kLru;
  options.cache.capacity_bytes = 128ull << 20;
  auto db_or = dex::Database::Open(kRepoDir, options);
  if (!db_or.ok()) return 1;
  auto& db = *db_or;

  // Phase 1: survey one station to seed derived metadata (mounts happen once).
  std::printf("surveying station ISK (seeds derived metadata)...\n");
  auto survey = db->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK';");
  if (!survey.ok()) return 1;
  std::printf("  %llu samples decoded across %llu files\n\n",
              static_cast<unsigned long long>(survey->stats.mount.samples_decoded),
              static_cast<unsigned long long>(survey->stats.mount.mounts));

  // Phase 2: candidate records by peak amplitude — metadata only.
  auto candidates = db->Query(
      "SELECT DM.uri, DM.record_id, DM.max_value FROM DM "
      "WHERE DM.max_value > 1500 ORDER BY DM.max_value DESC LIMIT 4;");
  if (!candidates.ok()) {
    std::fprintf(stderr, "%s\n", candidates.status().ToString().c_str());
    return 1;
  }
  std::printf("top candidate records (from derived metadata, 0 mounts):\n%s\n",
              candidates->table->ToString().c_str());

  // Phase 3: retrieve each candidate's waveform (cache-scans — the survey
  // already ingested these files) and run the STA/LTA trigger.
  for (size_t i = 0; i < candidates->table->num_rows(); ++i) {
    const std::string uri = candidates->table->GetValue(i, 0).str();
    const int64_t record = candidates->table->GetValue(i, 1).int64();
    auto waveform = db->Query(
        "SELECT D.sample_time, D.sample_value FROM R "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE R.uri = '" + uri + "' AND R.record_id = " +
        std::to_string(record) + " ORDER BY D.sample_time;");
    if (!waveform.ok()) {
      std::fprintf(stderr, "%s\n", waveform.status().ToString().c_str());
      return 1;
    }
    std::vector<int64_t> times;
    std::vector<double> values;
    for (size_t r = 0; r < waveform->table->num_rows(); ++r) {
      times.push_back(waveform->table->GetValue(r, 0).int64());
      values.push_back(waveform->table->GetValue(r, 1).dbl());
    }
    const auto triggers = StaLta(times, values, 10.0, 200.0, 4.0, 1.5);
    const std::string file =
        uri.substr(uri.rfind('/') + 1);
    std::printf("%s record %lld: %zu rows retrieved (%llu mounts), %zu trigger(s)\n",
                file.c_str(), static_cast<long long>(record), values.size(),
                static_cast<unsigned long long>(waveform->stats.mount.mounts),
                triggers.size());
    for (const Trigger& t : triggers) {
      std::printf("    event onset %s, peak STA/LTA ratio %.1f\n",
                  dex::FormatIso8601(t.onset_ms).c_str(), t.peak_ratio);
    }
  }
  std::printf("\ntotal decode work this session: survey only — detection ran "
              "on cached and metadata-pruned data.\n");
  return 0;
}

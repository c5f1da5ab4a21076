#include "workload.h"

#include <algorithm>
#include <cstdio>

#include "common/time_utils.h"
#include "harness.h"

namespace dexbench {

namespace {

constexpr int64_t kDayMs = 86400000;
constexpr int64_t kHourMs = 3600000;
constexpr int64_t kMinuteMs = 60000;
constexpr const char* kStartDay = "2010-01-01";

// Session length and refresh-poll interval of one episode. Explore and sweep
// poll Refresh() as a long-running explorer would; nothing arrives, so the
// poll measures the delta scan of an unchanged repository.
constexpr int kExploreQueries = 500;
constexpr int kSweepQueries = 200;
constexpr int kExplorePollEvery = 20;
// Explore opens a month of data but works on the latest days, as a
// scientist looking at what arrived this week would.
constexpr size_t kExploreRecentDays = 8;
constexpr int kSweepPollEvery = 8;

int64_t DayStartMs(int day) {
  static const int64_t day0 = *dex::ParseIso8601(kStartDay);
  return day0 + static_cast<int64_t>(day) * kDayMs;
}

std::string Ts(int64_t ms) { return "'" + dex::FormatIso8601(ms) + "'"; }

std::string DayWindow(const char* column, int first_day, int num_days) {
  return std::string(column) + " >= " + Ts(DayStartMs(first_day)) + " AND " +
         column + " < " + Ts(DayStartMs(first_day + num_days));
}

const char* kJoinFRD =
    " FROM F JOIN R ON F.uri = R.uri"
    " JOIN D ON R.uri = D.uri AND R.record_id = D.record_id";

struct Codes {
  std::vector<std::string> stations;
  std::vector<std::string> channels;
};

Codes CodesFor(const RepoScale& scale) {
  return {dex::mseed::GeneratorStationCodes(scale.stations),
          dex::mseed::GeneratorChannelCodes(scale.channels)};
}

// -- Query builders ---------------------------------------------------------

// Paper Query 1: statistics of one channel's waveform in a time window.
Op ChannelWindow(const Codes& c, size_t st, size_t ch, int day, int64_t lo,
                 int64_t len, const std::string& label) {
  Op op;
  op.label = label;
  const int64_t t0 = DayStartMs(day) + lo;
  op.sql = "SELECT COUNT(*), AVG(D.sample_value), MIN(D.sample_value), "
           "MAX(D.sample_value)" +
           std::string(kJoinFRD) + " WHERE F.station = '" + c.stations[st] +
           "' AND F.channel = '" + c.channels[ch] + "' AND " +
           DayWindow("R.start_time", day, 1) + " AND D.sample_time >= " +
           Ts(t0) + " AND D.sample_time < " + Ts(t0 + len) + ";";
  op.files = {RepoFile(c.stations[st], c.channels[ch], day)};
  return op;
}

// Paper Query 2: the waveform of every channel of one station.
Op StationWaveform(const Codes& c, size_t st, int day, int64_t lo, int64_t len,
                   const std::string& label) {
  Op op;
  op.label = label;
  const int64_t t0 = DayStartMs(day) + lo;
  op.sql = "SELECT F.channel, D.sample_time, D.sample_value" +
           std::string(kJoinFRD) + " WHERE F.station = '" + c.stations[st] +
           "' AND " + DayWindow("R.start_time", day, 1) +
           " AND D.sample_time >= " + Ts(t0) + " AND D.sample_time < " +
           Ts(t0 + len) + ";";
  for (const std::string& ch : c.channels) {
    op.files.push_back(RepoFile(c.stations[st], ch, day));
  }
  return op;
}

// Metadata only: answered by stage 1 without mounting anything.
Op StationInventory(const Codes& c, size_t st, int day,
                    const std::string& label) {
  Op op;
  op.label = label;
  op.ordered = true;
  op.sql = "SELECT F.channel, COUNT(*), SUM(R.n_samples)"
           " FROM F JOIN R ON F.uri = R.uri WHERE F.station = '" +
           c.stations[st] + "' AND " + DayWindow("R.start_time", day, 1) +
           " GROUP BY F.channel ORDER BY F.channel;";
  return op;
}

// Sweep: per-station aggregate over every day and channel (unprunable).
Op StationAggregate(const Codes& c, size_t st, int days) {
  Op op;
  op.label = "station_aggregate";
  op.ordered = true;
  op.sql = "SELECT F.channel, COUNT(*), AVG(D.sample_value), "
           "MIN(D.sample_value), MAX(D.sample_value)"
           " FROM F JOIN D ON F.uri = D.uri WHERE F.station = '" +
           c.stations[st] + "' GROUP BY F.channel ORDER BY F.channel;";
  for (int d = 0; d < days; ++d) {
    for (const std::string& ch : c.channels) {
      op.files.push_back(RepoFile(c.stations[st], ch, d));
    }
  }
  return op;
}

// Sweep: per-day aggregate over every station (unprunable).
Op DayAggregate(const Codes& c, int day) {
  Op op;
  op.label = "day_aggregate";
  op.ordered = true;
  op.sql = "SELECT F.station, COUNT(*), AVG(D.sample_value), "
           "MIN(D.sample_value), MAX(D.sample_value)" +
           std::string(kJoinFRD) + " WHERE " +
           DayWindow("R.start_time", day, 1) +
           " GROUP BY F.station ORDER BY F.station;";
  for (const std::string& st : c.stations) {
    for (const std::string& ch : c.channels) {
      op.files.push_back(RepoFile(st, ch, day));
    }
  }
  return op;
}

// Sweep: samples above a threshold over a range of days. A threshold above
// the background noise lets zone maps skip quiet records and frames; one
// inside the noise band cannot skip anything.
Op OutlierHunt(const Codes& c, int first_day, int num_days, int threshold,
               bool prunable) {
  Op op;
  op.label = prunable ? "outlier_pruned" : "outlier_unpruned";
  op.ordered = true;
  op.sql = "SELECT F.station, COUNT(*), MAX(D.sample_value)" +
           std::string(kJoinFRD) + " WHERE " +
           DayWindow("R.start_time", first_day, num_days) +
           " AND D.sample_value > " + std::to_string(threshold) +
           " GROUP BY F.station ORDER BY F.station;";
  for (int d = first_day; d < first_day + num_days; ++d) {
    for (const std::string& st : c.stations) {
      for (const std::string& ch : c.channels) {
        op.files.push_back(RepoFile(st, ch, d));
      }
    }
  }
  return op;
}

Op Refresh(int expect_added) {
  Op op;
  op.kind = Op::Kind::kRefresh;
  op.label = expect_added > 0 ? "refresh_new_day" : "refresh_poll";
  op.expect_added = expect_added;
  return op;
}

// -- Workloads ----------------------------------------------------------------

// A scientist's session: pick a station, channel and day with a skewed
// preference, then repeat, zoom in, zoom out to all channels, ask the
// metadata, or move on. About two thirds of the steps are served by the
// cache or by stage 1 alone, so the median query measures per-query
// overhead and the tail measures cold mounts.
void BuildExplore(const RepoScale& scale, Rng* rng, std::vector<Op>* ops) {
  const Codes c = CodesFor(scale);
  size_t st = 0, ch = 0;
  int day = 0;
  int64_t lo = 0, len = kHourMs;
  bool station_wide = false;
  auto move_on = [&] {
    st = rng->Skewed(c.stations.size(), 0.5);
    ch = rng->Skewed(c.channels.size(), 0.3);
    day = scale.base_days - 1 -
          static_cast<int>(rng->Skewed(kExploreRecentDays, 0.5));
    len = kHourMs;
    lo = static_cast<int64_t>(rng->Below(23)) * kHourMs +
         static_cast<int64_t>(rng->Below(60)) * kMinuteMs;
    station_wide = false;
  };
  auto data_query = [&](const std::string& label) {
    return station_wide ? StationWaveform(c, st, day, lo, len, label)
                        : ChannelWindow(c, st, ch, day, lo, len, label);
  };
  move_on();
  Op last = data_query("move_on");
  ops->push_back(last);
  // Steps come in blocks of twenty with a fixed mix in a seeded order, so
  // every seed explores with the same share of each kind of step.
  enum Step { kRepeat, kZoomIn, kZoomOut, kMetadata, kMoveOn };
  const std::vector<std::pair<Step, int>> mix = {
      {kRepeat, 4}, {kZoomIn, 6}, {kZoomOut, 3}, {kMetadata, 3}, {kMoveOn, 4}};
  std::vector<Step> block;
  for (const auto& [step, n] : mix) block.insert(block.end(), n, step);
  for (int i = 1; i < kExploreQueries; ++i) {
    if (i % kExplorePollEvery == 0) ops->push_back(Refresh(0));
    const size_t at = static_cast<size_t>(i - 1) % block.size();
    if (at == 0) {
      for (size_t k = block.size() - 1; k > 0; --k) {
        std::swap(block[k], block[rng->Below(k + 1)]);
      }
    }
    switch (block[at]) {
      case kRepeat: {
        Op again = last;
        again.label = "repeat";
        ops->push_back(again);
        break;
      }
      case kZoomIn: {
        const int64_t narrower = std::max<int64_t>(len / 4, kMinuteMs);
        lo += static_cast<int64_t>(rng->Below(
                  static_cast<size_t>((len - narrower) / kMinuteMs) + 1)) *
              kMinuteMs;
        len = narrower;
        station_wide = false;
        last = data_query("zoom_in");
        ops->push_back(last);
        break;
      }
      case kZoomOut:
        len = std::min<int64_t>(len * 2, kHourMs);
        lo = std::min<int64_t>(lo, kDayMs - len);
        station_wide = true;
        last = data_query("zoom_out");
        ops->push_back(last);
        break;
      case kMetadata:
        ops->push_back(StationInventory(c, st, day, "metadata"));
        break;
      case kMoveOn:
        move_on();
        last = data_query("move_on");
        ops->push_back(last);
        break;
    }
  }
}

// Analytic scans over large fractions of the repository, about half of
// which zone maps can prune. Each block of eight holds the same scans in a
// seeded order, so the mix is the same at every seed and only stations,
// days and thresholds vary. The shares keep every percentile inside one
// kind of scan: five of eight are prunable (the median is a pruned scan),
// the slowest eighth is the unprunable two-day hunt (the tail), and five of
// eight read one day's worth of files (the median of reported time).
void BuildSweep(const RepoScale& scale, Rng* rng, std::vector<Op>* ops) {
  const Codes c = CodesFor(scale);
  const size_t days = static_cast<size_t>(scale.base_days);
  auto outlier = [&](int span, bool prunable) {
    const int first = static_cast<int>(rng->Below(days - static_cast<size_t>(span) + 1));
    const int threshold = prunable ? 1500 + static_cast<int>(rng->Below(3500))
                                   : -20 + static_cast<int>(rng->Below(41));
    return OutlierHunt(c, first, span, threshold, prunable);
  };
  int emitted = 0;
  while (emitted < kSweepQueries) {
    std::vector<Op> block = {
        StationAggregate(c, rng->Below(c.stations.size()), scale.base_days),
        DayAggregate(c, static_cast<int>(rng->Below(days))),
        outlier(2, false),
        outlier(1, true),
        outlier(1, true),
        outlier(1, true),
        outlier(2, true),
        outlier(2, true)};
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng->Below(i + 1)]);
    }
    for (Op& op : block) {
      if (emitted > 0 && emitted % kSweepPollEvery == 0) ops->push_back(Refresh(0));
      ops->push_back(std::move(op));
      ++emitted;
    }
  }
}

// New data arrives one day per round: copy it in, Refresh(), then run the
// first explorer queries against the new day (cold mounts).
void BuildIngest(const RepoScale& scale, Rng* rng, std::vector<Op>* ops) {
  const Codes c = CodesFor(scale);
  for (int r = 0; r < scale.ingest_days; ++r) {
    const int day = scale.base_days + r;
    Op add;
    add.kind = Op::Kind::kAddDay;
    add.label = "add_day";
    add.day = day;
    ops->push_back(add);
    ops->push_back(Refresh(scale.stations * scale.channels));
    const size_t st = rng->Skewed(c.stations.size(), 1.1);
    const size_t ch = rng->Skewed(c.channels.size(), 0.7);
    const int64_t lo = static_cast<int64_t>(rng->Below(23)) * kHourMs;
    ops->push_back(StationInventory(c, st, day, "metadata"));
    ops->push_back(ChannelWindow(c, st, ch, day, lo, kHourMs, "new_day"));
    ops->push_back(
        StationWaveform(c, st, day, lo + 15 * kMinuteMs, 30 * kMinuteMs,
                        "zoom_out"));
    ops->push_back(ChannelWindow(c, st, ch, day, lo + 20 * kMinuteMs,
                                 10 * kMinuteMs, "zoom_in"));
    // Two looks at other stations (new files, unless both pick the same
    // one), then the second one's station as a whole.
    size_t other = st;
    for (int look = 0; look < 2; ++look) {
      other = (st + 1 + rng->Below(c.stations.size() - 1)) % c.stations.size();
      ops->push_back(ChannelWindow(c, other, rng->Below(c.channels.size()), day,
                                   lo, kHourMs, "other_station"));
    }
    ops->push_back(StationWaveform(c, other, day, lo, 30 * kMinuteMs,
                                   "other_zoom_out"));
    ops->push_back(StationInventory(c, other, day, "other_metadata"));
  }
}

RepoScale ScaleFor(const std::string& name) {
  RepoScale s;
  if (name == "explore") {
    s = {6, 3, 32, 0, 1.0, 4};
  } else if (name == "sweep") {
    s = {6, 3, 6, 0, 0.125, 4};
  } else {
    s = {6, 3, 16, 25, 1.0, 4};
  }
  return s;
}

// `lanes` is the simulated parallelism of mounts and stage-1 scans. The
// worker pool gets one real thread: with more, concurrent mount tasks fill
// the file cache's and the buffer pool's LRU lists in thread order, and the
// simulated time charged after an eviction then differs between runs.
dex::DatabaseOptions PinnedBase(size_t lanes) {
  dex::DatabaseOptions o;
  o.mode = dex::IngestionMode::kLazy;
  o.two_stage.num_threads = lanes;
  o.stage1_threads = lanes;
  o.pool_threads = 1;
  return o;
}

std::string Bytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%g MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%g KiB", static_cast<double>(bytes) / 1024.0);
  }
  return buf;
}

}  // namespace

std::string RepoFile(const std::string& station, const std::string& channel,
                     int day) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/OR.%s.%s.%03d.mseed", station.c_str(),
                station.c_str(), channel.c_str(), day);
  return buf;
}

dex::mseed::GeneratorOptions GeneratorFor(const RepoScale& scale,
                                          uint64_t seed) {
  dex::mseed::GeneratorOptions g;
  g.seed = seed;
  g.network = "OR";
  g.num_stations = scale.stations;
  g.channels_per_station = scale.channels;
  g.num_days = scale.base_days + scale.ingest_days;
  g.start_day = kStartDay;
  g.records_per_file = scale.records_per_file;
  g.sample_rate_hz = scale.sample_rate_hz;
  g.gap_probability = 0.01;
  return g;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out,
                  std::string* error) {
  if (name != "explore" && name != "sweep" && name != "ingest") {
    *error = "unknown workload '" + name + "' (explore, sweep, ingest)";
    return false;
  }
  Workload w;
  w.name = name;
  w.scale = ScaleFor(name);
  // The operation stream has its own seed, derived from the run's seed, so
  // it is independent of the repository generator's draws.
  Rng rng(seed ^ 0xD1B54A32D192ED03ull);
  if (name == "explore") {
    w.warmup_sql = "SELECT COUNT(*) FROM F;";
    BuildExplore(w.scale, &rng, &w.ops);
  } else if (name == "sweep") {
    // The zone-harvest pass: one scan of every file, so zone maps exist
    // before the first timed query. Work moved into it shows in setup_s.
    w.warmup_sql =
        "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value)"
        " FROM F JOIN D ON F.uri = D.uri;";
    BuildSweep(w.scale, &rng, &w.ops);
  } else {
    w.warmup_sql = "SELECT COUNT(*) FROM F;";
    BuildIngest(w.scale, &rng, &w.ops);
  }
  *out = std::move(w);
  return true;
}

dex::DatabaseOptions MeasuredOptions(const std::string& name) {
  if (name == "sweep") {
    dex::DatabaseOptions o = PinnedBase(/*lanes=*/4);
    o.cache.policy = dex::CachePolicy::kNone;
    o.shard.num_shards = 4;
    o.disk.page_bytes = 64 * 1024;
    o.disk.buffer_pool_bytes = 1ull << 20;
    return o;
  }
  dex::DatabaseOptions o = PinnedBase(/*lanes=*/2);
  o.cache.policy = dex::CachePolicy::kLru;
  o.cache.granularity = dex::CacheGranularity::kFile;
  o.cache.capacity_bytes = 24ull << 20;
  // Small pages, so a file's simulated transfer time follows its size.
  o.disk.page_bytes = 4 * 1024;
  o.disk.buffer_pool_bytes = 16ull << 20;
  return o;
}

dex::DatabaseOptions ReferenceOptions() {
  dex::DatabaseOptions o = PinnedBase(/*lanes=*/1);
  o.cache.policy = dex::CachePolicy::kNone;
  o.collect_zone_maps = false;
  o.two_stage.pruning.file_level = false;
  o.two_stage.pruning.record_level = false;
  o.two_stage.pruning.frame_level = false;
  o.two_stage.pruning.use_simd_kernels = false;
  o.shard.num_shards = 1;
  return o;
}

std::string Describe(const Workload& w, const dex::DatabaseOptions& o) {
  const RepoScale& s = w.scale;
  const char* policy = o.cache.policy == dex::CachePolicy::kNone  ? "none"
                       : o.cache.policy == dex::CachePolicy::kLru ? "lru"
                                                                  : "all";
  std::string out = "repository: " + std::to_string(s.stations) +
                    " stations x " + std::to_string(s.channels) +
                    " channels x " + std::to_string(s.base_days) + " days";
  if (s.ingest_days > 0) {
    out += " (+" + std::to_string(s.ingest_days) + " ingested)";
  }
  char rate[32];
  std::snprintf(rate, sizeof(rate), " at %g Hz", s.sample_rate_hz);
  out += rate;
  out += "; cache: " + std::string(policy);
  if (o.cache.policy == dex::CachePolicy::kLru) {
    out += " file-granular " + Bytes(o.cache.capacity_bytes);
  }
  out += "; buffer pool: " + Bytes(o.disk.buffer_pool_bytes) + " in " +
         Bytes(o.disk.page_bytes) + " pages";
  out += "; shards: " + std::to_string(o.shard.num_shards);
  out += "; lanes: " + std::to_string(o.two_stage.num_threads) +
         ", stage1 threads: " + std::to_string(o.stage1_threads) +
         ", pool threads: " + std::to_string(o.pool_threads);
  out += "; ops per episode: " + std::to_string(w.ops.size());
  return out;
}

}  // namespace dexbench

// The dex benchmark program. Runs one workload against the public
// dex::Database API in a closed loop with a single client thread, checks
// every result against a reference database, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
//   dexbench gen  --workload W --seed N --work DIR
//   dexbench ref  --workload W --seed N --work DIR
//   dexbench run  --workload W --seed N --work DIR --seconds S
//                 --trace 0|1 [--spans FILE]
//   dexbench selftest
//
// `gen` writes the seeded repository, `ref` replays one episode on the
// reference database and records each result's hash, and `run` measures.
// They are separate processes so that peak_rss_mb covers only the workload.
// dexbench/run.py chains them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/database.h"
#include "engine/optimizer.h"
#include "harness.h"
#include "io/file_io.h"
#include "mseed/reader.h"
#include "sql/binder.h"
#include "workload.h"

namespace fs = std::filesystem;

namespace dexbench {

int RunSelfTest();  // selftest.cc

namespace {

// The tail percentile reported. It needs at least ten queries beyond it,
// i.e. 200 queries per episode; p99 would need 1000, which the sweep's
// scans cannot deliver within one run.
constexpr int kTailPct = 95;
// Each operation's latency is its fastest over at least this many episodes.
constexpr size_t kMinEpisodes = 3;
// Upper bound on one run's measuring loop, whatever --seconds says, so a
// run ends well inside the harness's per-run limit on a slow host.
constexpr double kMaxMeasureSeconds = 120;
// Files per query whose decode is replayed in the traced run.
constexpr size_t kDecodeReplayFiles = 2;

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  if (argc < 2) {
    *error = "usage: dexbench gen|ref|run|selftest [options]";
    return false;
  }
  a->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work") {
      a->work = val;
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      *error = "unknown option " + key;
      return false;
    }
  }
  return true;
}

// -- Result hashing ----------------------------------------------------------

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Hash of a result table. Doubles are compared to nine significant digits:
// the SIMD kernels may sum in another order than the scalar reference.
// Unordered results hash as a multiset of rows.
uint64_t ResultHash(const dex::Table& t, bool ordered) {
  uint64_t acc = Mix(t.num_columns() * 0x100000001B3ull + t.num_rows());
  std::string row;
  char buf[40];
  for (size_t r = 0; r < t.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const dex::Value v = t.GetValue(r, c);
      if (v.is_null()) {
        row += "\x01N";
      } else if (v.type() == dex::DataType::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.9g", v.dbl());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += '\x1f';
    }
    const uint64_t h = Mix(dex::Fnv1aString(row));
    acc = ordered ? Mix(acc ^ h) : acc + h;
  }
  return acc;
}

// -- Repository ----------------------------------------------------------------

std::string FullRepo(const Args& a) { return a.work + "/full"; }

bool Generate(const Args& a, const Workload& w, std::string* error) {
  const std::string root = FullRepo(a);
  (void)dex::RemoveDirRecursive(root);
  auto repo = dex::mseed::GenerateRepository(root, GeneratorFor(w.scale, a.seed));
  if (!repo.ok()) {
    *error = "generation failed: " + repo.status().ToString();
    return false;
  }
  // Per-file sample counts, for scan_msamples_per_s (samples in the files of
  // interest, counted before any pruning).
  std::string manifest;
  for (const std::string& path : repo->files) {
    auto headers = dex::mseed::Reader::ScanHeaders(path);
    if (!headers.ok()) {
      *error = "header scan failed: " + headers.status().ToString();
      return false;
    }
    uint64_t samples = 0;
    for (const auto& info : *headers) samples += info.header.num_samples;
    manifest += fs::relative(path, root).string() + " " +
                std::to_string(samples) + "\n";
  }
  return dex::WriteStringToFile(a.work + "/manifest.txt", manifest).ok();
}

std::map<std::string, uint64_t> LoadManifest(const Args& a) {
  std::map<std::string, uint64_t> out;
  std::ifstream in(a.work + "/manifest.txt");
  std::string file;
  uint64_t samples = 0;
  while (in >> file >> samples) out[file] = samples;
  return out;
}

// Links `rel` from the generated repository into `dir`. Hard links write no
// data, so an episode's repository costs the host no writeback that could
// slow the measurement; the files are never modified.
void LinkFile(const Args& a, const std::string& dir, const std::string& rel) {
  std::error_code ec;
  fs::create_hard_link(FullRepo(a) + "/" + rel, dir + "/" + rel, ec);
  if (ec) fs::copy_file(FullRepo(a) + "/" + rel, dir + "/" + rel);
}

// The ingest workload adds files to its repository, so each episode starts
// from a private copy holding only the base days.
std::string PrepareEpisodeRepo(const Args& a, const Workload& w,
                               const std::string& tag) {
  if (w.scale.ingest_days == 0) return FullRepo(a);
  const std::string dir = a.work + "/" + tag;
  (void)dex::RemoveDirRecursive(dir);
  for (const std::string& st : dex::mseed::GeneratorStationCodes(w.scale.stations)) {
    fs::create_directories(dir + "/" + st);
    for (const std::string& ch :
         dex::mseed::GeneratorChannelCodes(w.scale.channels)) {
      for (int d = 0; d < w.scale.base_days; ++d) {
        LinkFile(a, dir, RepoFile(st, ch, d));
      }
    }
  }
  return dir;
}

// One new day arrives in the episode's repository.
void AddDay(const Args& a, const Workload& w, const std::string& dir, int day) {
  for (const std::string& st : dex::mseed::GeneratorStationCodes(w.scale.stations)) {
    for (const std::string& ch :
         dex::mseed::GeneratorChannelCodes(w.scale.channels)) {
      LinkFile(a, dir, RepoFile(st, ch, day));
    }
  }
}

// -- One episode -----------------------------------------------------------

struct OpRecord {
  bool ok = true;
  std::string error;
  uint64_t hash = 0;
  double wall_ms = 0;
  double cpu_ms = 0;         // CPU time of every thread of the process
  uint64_t sim_io_ns = 0;    // everything charged to the simulated clock
  uint64_t sim_disk_ns = 0;  // the disk's share of it
  uint64_t sim_net_ns = 0;   // interconnect time charged on all links
  uint64_t samples = 0;      // samples in the files of interest
  dex::QueryStats qs;
  dex::RefreshStats rs;
};

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
};

Usage Rusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

// Per-query layer times of a traced episode, from spans and replays.
struct Layers {
  std::vector<double> plan_replay_us, optimize_replay_us;
  std::vector<double> stage1_us, rewrite_us, stage2_ms, other_us;
  uint64_t decode_samples = 0;
  int64_t decode_ns = 0;
  size_t span_sum_mismatches = 0;
};

struct Episode {
  bool opened = false;
  std::string open_error;
  double setup_s = 0;
  std::vector<OpRecord> ops;
  uint64_t sim_disk_ns = 0;
  uint64_t sim_net_ns = 0;
  dex::OpenStats open;
  dex::IoStats io;            // delta over the timed section
  dex::CacheStats cache;      // delta over the timed section
  uint64_t cache_bytes_used = 0;
  uint64_t epochs_published = 0;
  Usage usage;                // delta over the timed section
  Layers layers;
};

// Disk share of a query's simulated time. A sharded wave charges the
// slowest shard's disk plus interconnect time; the interconnect part of
// that critical path is not disk time.
uint64_t QueryDiskNs(const dex::QueryStats& qs) {
  const dex::TwoStageStats& ts = qs.two_stage;
  if (ts.shard_rows.empty()) return qs.sim_io_nanos;
  uint64_t disk_critical = 0;
  for (const auto& row : ts.shard_rows) {
    disk_critical = std::max(disk_critical, row.disk_sim_nanos);
  }
  const uint64_t wave = std::min(ts.parallel_sim_nanos, qs.sim_io_nanos);
  return qs.sim_io_nanos - wave + std::min(disk_critical, wave);
}

uint64_t SamplesOf(const Op& op, const std::map<std::string, uint64_t>& manifest) {
  uint64_t n = 0;
  for (const std::string& f : op.files) {
    auto it = manifest.find(f);
    if (it != manifest.end()) n += it->second;
  }
  return n;
}

Episode RunEpisode(const Args& a, const Workload& w,
                   const dex::DatabaseOptions& options,
                   const std::map<std::string, uint64_t>& manifest,
                   const std::string& tag, SpanLog* spans,
                   bool memoize = false) {
  Episode ep;
  // With `memoize`, a query repeated while the data is unchanged is answered
  // from its first run: the reference needs each distinct result once.
  std::map<std::string, uint64_t> memo;
  int days_added = 0;
  const std::string dir = PrepareEpisodeRepo(a, w, tag);
  // The private copy of an ingest episode goes away with the episode.
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      if (!dir.empty()) (void)dex::RemoveDirRecursive(dir);
    }
  } cleanup{dir != FullRepo(a) ? dir : std::string()};
  const int64_t ep_start = NowNs();
  const uint64_t ep_span = spans ? spans->Add("episode", 0, ep_start, ep_start) : 0;

  const int64_t t_open = NowNs();
  auto opened = dex::Database::Open(dir, options);
  const int64_t t_opened = NowNs();
  if (!opened.ok()) {
    ep.open_error = opened.status().ToString();
    return ep;
  }
  std::unique_ptr<dex::Database> db = std::move(*opened);
  auto warm = db->Query(w.warmup_sql);
  const int64_t t_ready = NowNs();
  if (!warm.ok()) {
    ep.open_error = "warm-up failed: " + warm.status().ToString();
    return ep;
  }
  ep.opened = true;
  ep.setup_s = static_cast<double>(t_ready - t_open) / 1e9;
  ep.open = db->open_stats();
  if (spans) {
    spans->Add("db.open", ep_span, t_open, t_opened);
    spans->Add("db.warmup", ep_span, t_opened, t_ready);
  }

  const dex::IoStats io0 = db->disk()->stats();
  const dex::CacheStats cache0 = db->cache()->stats();
  const uint64_t epoch0 = db->current_epoch();
  const Usage u0 = Rusage();

  for (const Op& op : w.ops) {
    OpRecord rec;
    if (op.kind == Op::Kind::kAddDay) {
      AddDay(a, w, dir, op.day);
      ++days_added;
      ep.ops.push_back(std::move(rec));
      continue;
    }
    if (op.kind == Op::Kind::kRefresh) {
      const int64_t c0 = CpuNs();
      const int64_t t0 = NowNs();
      auto r = db->Refresh();
      const int64_t t1 = NowNs();
      rec.cpu_ms = static_cast<double>(CpuNs() - c0) / 1e6;
      rec.wall_ms = static_cast<double>(t1 - t0) / 1e6;
      if (spans) spans->Add("db.refresh", ep_span, t0, t1);
      if (!r.ok()) {
        rec.ok = false;
        rec.error = r.status().ToString();
      } else {
        rec.rs = *r;
        rec.sim_io_ns = r->sim_io_nanos;
        rec.sim_net_ns = r->net_sim_nanos;
        rec.sim_disk_ns = r->sim_io_nanos - std::min(r->sim_io_nanos, r->net_sim_nanos);
        rec.hash = r->files_added;
        if (static_cast<int>(r->files_added) != op.expect_added ||
            r->files_removed != 0 || r->is_partial) {
          rec.ok = false;
          rec.error = "refresh added " + std::to_string(r->files_added) +
                      " files, expected " + std::to_string(op.expect_added);
        }
      }
      ep.sim_disk_ns += rec.sim_disk_ns;
      ep.sim_net_ns += rec.sim_net_ns;
      ep.ops.push_back(std::move(rec));
      continue;
    }

    const std::string memo_key = std::to_string(days_added) + "|" + op.sql;
    if (memoize && memo.count(memo_key) > 0) {
      rec.hash = memo[memo_key];
      ep.ops.push_back(std::move(rec));
      continue;
    }
    const int64_t c0 = CpuNs();
    const int64_t t0 = NowNs();
    auto r = db->Query(op.sql);
    const int64_t t1 = NowNs();
    rec.cpu_ms = static_cast<double>(CpuNs() - c0) / 1e6;
    rec.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    rec.samples = SamplesOf(op, manifest);
    if (!r.ok()) {
      rec.ok = false;
      rec.error = r.status().ToString();
      ep.ops.push_back(std::move(rec));
      continue;
    }
    rec.qs = r->stats;
    rec.sim_io_ns = r->stats.sim_io_nanos;
    rec.sim_disk_ns = QueryDiskNs(r->stats);
    rec.sim_net_ns = r->stats.two_stage.net_sim_nanos;
    rec.hash = ResultHash(*r->table, op.ordered);
    if (memoize) memo[memo_key] = rec.hash;
    if (r->stats.two_stage.is_partial) {
      rec.ok = false;
      rec.error = "partial result";
    }
    ep.sim_disk_ns += rec.sim_disk_ns;
    ep.sim_net_ns += rec.sim_net_ns;

    if (spans) {
      // The query's layers, laid end to end from the stats it returned;
      // whatever they do not cover is the query span's own (`other`) time.
      const dex::QueryStats& qs = r->stats;
      const uint64_t q = spans->Add("db.query", ep_span, t0, t1);
      const size_t first_child = spans->spans().size();
      int64_t at = t0;
      const std::pair<const char*, uint64_t> parts[] = {
          {"plan", qs.plan_nanos},
          {"stage1", qs.two_stage.stage1_nanos},
          {"rewrite", qs.two_stage.rewrite_nanos},
          {"stage2", qs.two_stage.stage2_nanos}};
      for (const auto& [name, ns] : parts) {
        const int64_t end = std::min<int64_t>(at + static_cast<int64_t>(ns), t1);
        spans->Add(name, q, at, end);
        at = end;
      }
      // Self times of this query's spans: children plus `other` must add up
      // to the query span exactly.
      std::vector<Span> local(spans->spans().begin() + first_child - 1,
                              spans->spans().end());
      const std::vector<int64_t> self = SelfTimes(local);
      int64_t sum = 0;
      for (int64_t s : self) sum += s;
      if (sum != t1 - t0) ++ep.layers.span_sum_mismatches;
      ep.layers.other_us.push_back(static_cast<double>(self[0]) / 1e3);
      ep.layers.stage1_us.push_back(static_cast<double>(self[2]) / 1e3);
      ep.layers.rewrite_us.push_back(static_cast<double>(self[3]) / 1e3);
      ep.layers.stage2_ms.push_back(static_cast<double>(self[4]) / 1e6);

      // Replays of single layers on this query's inputs, outside its span.
      dex::Catalog* catalog = db->catalog();
      const int64_t p0 = NowNs();
      auto plan = dex::sql::PlanQuery(op.sql, *catalog);
      const int64_t p1 = NowNs();
      spans->Add("replay.sql_plan", ep_span, p0, p1);
      if (plan.ok()) {
        auto pushed = dex::PushDownPredicates(*plan, *catalog);
        if (pushed.ok()) (void)dex::FuseTopK(*pushed, *catalog);
      }
      const int64_t p2 = NowNs();
      spans->Add("replay.optimize", ep_span, p1, p2);
      ep.layers.plan_replay_us.push_back(static_cast<double>(p1 - p0) / 1e3);
      ep.layers.optimize_replay_us.push_back(static_cast<double>(p2 - p1) / 1e3);
      for (size_t i = 0; i < op.files.size() && i < kDecodeReplayFiles; ++i) {
        dex::mseed::SalvageReport report;
        const int64_t d0 = NowNs();
        auto recs = dex::mseed::Reader::ReadAllRecordsSalvage(
            dir + "/" + op.files[i], &report);
        const int64_t d1 = NowNs();
        spans->Add("replay.mseed_decode", ep_span, d0, d1);
        if (!recs.ok()) continue;
        for (const auto& dr : *recs) ep.layers.decode_samples += dr.samples.size();
        ep.layers.decode_ns += d1 - d0;
      }
    }
    ep.ops.push_back(std::move(rec));
  }

  const Usage u1 = Rusage();
  ep.usage.user_s = u1.user_s - u0.user_s;
  ep.usage.sys_s = u1.sys_s - u0.sys_s;
  ep.usage.minor_faults = u1.minor_faults - u0.minor_faults;
  ep.io = db->disk()->stats().Since(io0);
  const dex::CacheStats cache1 = db->cache()->stats();
  ep.cache.hits = cache1.hits - cache0.hits;
  ep.cache.misses = cache1.misses - cache0.misses;
  ep.cache.evictions = cache1.evictions - cache0.evictions;
  ep.cache.budget_rejections = cache1.budget_rejections - cache0.budget_rejections;
  ep.cache_bytes_used = db->cache()->bytes_used();
  ep.epochs_published = db->current_epoch() - epoch0;
  db.reset();
  if (spans) spans->Close(ep_span, NowNs());
  return ep;
}

// -- Reference --------------------------------------------------------------

std::string RefPath(const Args& a) { return a.work + "/reference.txt"; }

int RunReference(const Args& a, const Workload& w) {
  const auto manifest = LoadManifest(a);
  const Episode ep =
      RunEpisode(a, w, ReferenceOptions(), manifest, "ref-episode", nullptr,
                 /*memoize=*/true);
  if (!ep.opened) {
    std::fprintf(stderr, "reference open failed: %s\n", ep.open_error.c_str());
    return 1;
  }
  std::string out;
  for (size_t i = 0; i < ep.ops.size(); ++i) {
    const OpRecord& r = ep.ops[i];
    if (!r.ok) {
      std::fprintf(stderr, "reference op %zu (%s) failed: %s\n", i,
                   w.ops[i].label.c_str(), r.error.c_str());
      return 1;
    }
    out += std::to_string(i) + " " + std::to_string(r.hash) + "\n";
  }
  return dex::WriteStringToFile(RefPath(a), out).ok() ? 0 : 1;
}

// -- Measurement ------------------------------------------------------------

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
    if (i + 1 < metrics.size()) out += ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Per-layer metrics of one traced episode (`ep`, for counts, which repeat
// exactly) and of all traced episodes (for times).
std::vector<Metric> LayerMetrics(const std::vector<Episode>& traced,
                                 double overhead_ms) {
  const Episode& ep = traced.back();
  Layers all;
  std::vector<double> scan_ms;
  Usage usage;
  for (const Episode& e : traced) {
    const Layers& l = e.layers;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.plan_replay_us, l.plan_replay_us);
    append(&all.optimize_replay_us, l.optimize_replay_us);
    append(&all.stage1_us, l.stage1_us);
    append(&all.rewrite_us, l.rewrite_us);
    append(&all.stage2_ms, l.stage2_ms);
    append(&all.other_us, l.other_us);
    all.decode_samples += l.decode_samples;
    all.decode_ns += l.decode_ns;
    double ms = static_cast<double>(e.open.metadata_scan_nanos) / 1e6;
    for (const OpRecord& r : e.ops) ms += static_cast<double>(r.rs.scan_nanos) / 1e6;
    scan_ms.push_back(ms);
    usage.user_s += e.usage.user_s;
    usage.sys_s += e.usage.sys_s;
    usage.minor_faults += e.usage.minor_faults;
  }
  const double n_eps = static_cast<double>(traced.size());

  // Counter sums over the episode's queries and refreshes.
  double foi = 0, planned_mount = 0, planned_cache = 0, pruned = 0;
  double samples = 0, records = 0, bytes = 0;
  double zm_records = 0, zm_frames = 0, zm_fallbacks = 0;
  double rows_scanned = 0, mounted_rows = 0, kf = 0, sf = 0;
  double net_ns = 0, net_msgs = 0, mount_tasks = 0, serial = 0, parallel = 0;
  double skew_sum = 0, skew_n = 0;
  double files_scanned = static_cast<double>(ep.open.num_files);
  double files_reused = static_cast<double>(ep.open.snapshot_files_reused);
  double stage1_sim_ns = static_cast<double>(ep.open.sim_io_nanos);
  for (const OpRecord& r : ep.ops) {
    const dex::TwoStageStats& ts = r.qs.two_stage;
    const auto& mc = r.qs.mount;
    foi += static_cast<double>(ts.files_of_interest);
    planned_mount += static_cast<double>(ts.files_planned_mount);
    planned_cache += static_cast<double>(ts.files_planned_cache);
    pruned += static_cast<double>(ts.files_pruned);
    samples += static_cast<double>(mc.samples_decoded);
    records += static_cast<double>(mc.records_decoded);
    bytes += static_cast<double>(mc.bytes_read);
    zm_records += static_cast<double>(mc.records_skipped_zonemap);
    zm_frames += static_cast<double>(mc.frames_skipped_zonemap);
    zm_fallbacks += static_cast<double>(mc.zonemap_fallbacks);
    rows_scanned += static_cast<double>(ts.exec.rows_scanned);
    mounted_rows += static_cast<double>(ts.exec.mounted_rows);
    kf += static_cast<double>(ts.exec.kernel_filter_batches);
    sf += static_cast<double>(ts.exec.scalar_filter_batches);
    net_ns += static_cast<double>(r.sim_net_ns);
    mount_tasks += static_cast<double>(ts.mount_tasks);
    serial += static_cast<double>(ts.serial_sim_nanos);
    parallel += static_cast<double>(ts.parallel_sim_nanos);
    if (!ts.shard_rows.empty()) {
      double max_t = 0, sum_t = 0;
      for (const auto& row : ts.shard_rows) {
        const double t = static_cast<double>(row.disk_sim_nanos + row.net_sim_nanos);
        max_t = std::max(max_t, t);
        sum_t += t;
        net_msgs += static_cast<double>(row.net_messages);
      }
      // Mean over every shard of the query's configured count, idle ones too.
      const double mean = sum_t / static_cast<double>(ts.num_shards);
      if (mean > 0) {
        skew_sum += max_t / mean;
        skew_n += 1;
      }
    }
    files_scanned += static_cast<double>(r.rs.files_scanned);
    files_reused += static_cast<double>(r.rs.files_reused);
    stage1_sim_ns += static_cast<double>(r.rs.sim_io_nanos);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double probes = static_cast<double>(ep.cache.hits + ep.cache.misses);
  const double hit_b = static_cast<double>(ep.io.cached_bytes_read);
  const double miss_b = static_cast<double>(ep.io.disk_bytes_read);

  std::vector<Metric> m = {
      {"sql.plan_query_us", Median(all.plan_replay_us), "us"},
      {"engine.optimize_us", Median(all.optimize_replay_us), "us"},
      {"core.two_stage.stage1_us", Median(all.stage1_us), "us"},
      {"core.two_stage.rewrite_us", Median(all.rewrite_us), "us"},
      {"core.two_stage.stage2_ms", Median(all.stage2_ms), "ms"},
      {"core.two_stage.files_of_interest", foi, "count"},
      {"core.two_stage.files_planned_mount", planned_mount, "count"},
      {"core.two_stage.files_planned_cache", planned_cache, "count"},
      {"core.two_stage.files_pruned", pruned, "count"},
      {"core.mounter.samples_decoded", samples, "count"},
      {"core.mounter.records_decoded", records, "count"},
      {"core.mounter.bytes_read", bytes, "bytes"},
      {"mseed.decode_msamples_per_s",
       ratio(static_cast<double>(all.decode_samples) / 1e6,
             static_cast<double>(all.decode_ns) / 1e9),
       "Msamples/s"},
      {"core.zone_map.records_skipped", zm_records, "count"},
      {"core.zone_map.frames_skipped", zm_frames, "count"},
      {"core.zone_map.fallbacks", zm_fallbacks, "count"},
      {"core.zone_map.record_skip_ratio", ratio(zm_records, records + zm_records),
       "ratio"},
      {"engine.rows_scanned", rows_scanned, "count"},
      {"engine.mounted_rows", mounted_rows, "count"},
      {"engine.kernel_filter_share", ratio(kf, kf + sf), "ratio"},
      {"core.cache_manager.hit_ratio",
       ratio(static_cast<double>(ep.cache.hits), probes), "ratio"},
      {"core.cache_manager.evictions", static_cast<double>(ep.cache.evictions),
       "count"},
      {"core.cache_manager.bytes_used", static_cast<double>(ep.cache_bytes_used),
       "bytes"},
      {"core.cache_manager.budget_rejections",
       static_cast<double>(ep.cache.budget_rejections), "count"},
      {"io.sim_disk.miss_bytes", miss_b, "bytes"},
      {"io.sim_disk.hit_bytes", hit_b, "bytes"},
      {"io.sim_disk.seeks", static_cast<double>(ep.io.seeks), "count"},
      {"io.sim_disk.sim_ms", static_cast<double>(ep.io.sim_nanos) / 1e6, "ms"},
      {"io.sim_disk.pool_hit_ratio", ratio(hit_b, hit_b + miss_b), "ratio"},
      {"net.sim_ms", net_ns / 1e6, "ms"},
      {"net.messages", net_msgs, "count"},
      {"shard.skew", ratio(skew_sum, skew_n), "ratio"},
      {"exec.mount_tasks", mount_tasks, "count"},
      {"exec.lane_speedup", parallel > 0 ? serial / parallel : 1.0, "ratio"},
      {"core.stage1_scan.files_scanned", files_scanned, "count"},
      {"core.stage1_scan.files_reused", files_reused, "count"},
      {"core.stage1_scan.scan_ms", Median(scan_ms), "ms"},
      {"core.stage1_scan.sim_ms", stage1_sim_ns / 1e6, "ms"},
      {"core.catalog_epoch.published", static_cast<double>(ep.epochs_published),
       "count"},
      {"proc.user_cpu_s", usage.user_s / n_eps, "s"},
      {"proc.sys_cpu_s", usage.sys_s / n_eps, "s"},
      {"proc.minor_faults", static_cast<double>(usage.minor_faults) / n_eps,
       "count"},
      {"query.other_us", Median(all.other_us), "us"},
      {"trace.overhead_ms", overhead_ms, "ms"},
  };
  return m;
}

int RunMeasure(const Args& a, const Workload& w) {
  const dex::DatabaseOptions options = MeasuredOptions(w.name);
  const auto manifest = LoadManifest(a);
  std::vector<uint64_t> ref;
  {
    std::ifstream in(RefPath(a));
    size_t idx = 0;
    uint64_t h = 0;
    while (in >> idx >> h) ref.push_back(h);
  }
  if (ref.size() != w.ops.size()) {
    std::fprintf(stderr, "reference has %zu ops, workload %zu\n", ref.size(),
                 w.ops.size());
    return 1;
  }
  std::printf("workload %s, seed %" PRIu64 ": %s\n", w.name.c_str(), a.seed,
              Describe(w, options).c_str());

  SpanLog spans;
  std::vector<Episode> untraced, traced;
  const int64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  size_t queries = 0;
  for (const Op& op : w.ops) queries += op.kind == Op::Kind::kQuery ? 1 : 0;
  if (!TailSupported(queries, kTailPct)) {
    std::fprintf(stderr, "%zu queries per episode cannot support p%d\n",
                 queries, kTailPct);
    return 1;
  }
  for (int k = 0;; ++k) {
    // With --trace 1 the first episode is untraced: the baseline for the
    // tracing overhead. End-to-end metrics come from untraced runs only.
    const bool traced_ep = a.trace && k > 0;
    Episode ep = RunEpisode(a, w, options, manifest,
                            "episode-" + std::to_string(k),
                            traced_ep ? &spans : nullptr);
    if (!ep.opened) {
      std::fprintf(stderr, "open failed: %s\n", ep.open_error.c_str());
      return 1;
    }
    (traced_ep ? traced : untraced).push_back(std::move(ep));
    const double t = elapsed();
    if (t >= kMaxMeasureSeconds) break;
    if (t >= a.seconds && (a.trace ? traced : untraced).size() >= kMinEpisodes) {
      break;
    }
  }

  // Correctness: every op against the reference, every episode against the
  // first (bit-identical simulated time and identical results).
  const std::vector<Episode>& measured = a.trace ? traced : untraced;
  uint64_t attempted = 0, failed = 0;
  bool drift = false;
  std::vector<const Episode*> all_eps;
  for (const Episode& e : untraced) all_eps.push_back(&e);
  for (const Episode& e : traced) all_eps.push_back(&e);
  const Episode& first = *all_eps.front();
  for (size_t k = 0; k < all_eps.size(); ++k) {
    const Episode* e = all_eps[k];
    if (e->sim_disk_ns != first.sim_disk_ns || e->sim_net_ns != first.sim_net_ns) {
      drift = true;
      std::fprintf(stderr,
                   "episode %zu charged %" PRIu64 " ns disk, %" PRIu64
                   " ns net; episode 0 charged %" PRIu64 " and %" PRIu64 "\n",
                   k, e->sim_disk_ns, e->sim_net_ns, first.sim_disk_ns,
                   first.sim_net_ns);
    }
    for (size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].kind == Op::Kind::kAddDay) continue;
      ++attempted;
      const OpRecord& r = e->ops[i];
      bool bad = !r.ok;
      if (r.ok && r.hash != ref[i]) {
        bad = true;
        std::fprintf(stderr, "op %zu (%s): result differs from the reference\n",
                     i, w.ops[i].label.c_str());
      }
      if (r.ok && r.hash != first.ops[i].hash) {
        drift = true;
        std::fprintf(stderr, "episode %zu op %zu (%s): result differs from "
                     "episode 0\n", k, i, w.ops[i].label.c_str());
      }
      if (!r.ok) {
        std::fprintf(stderr, "op %zu (%s) failed: %s\n", i,
                     w.ops[i].label.c_str(), r.error.c_str());
      }
      if (bad) ++failed;
    }
  }
  if (drift) std::fprintf(stderr, "determinism check failed: episodes differ\n");
  size_t span_mismatches = 0;
  for (const Episode& e : traced) span_mismatches += e.layers.span_sum_mismatches;
  if (span_mismatches > 0) {
    std::fprintf(stderr, "%zu queries whose span self times do not sum up\n",
                 span_mismatches);
  }
  const bool correct = failed == 0 && !drift && span_mismatches == 0;

  for (size_t k = 0; k < measured.size(); ++k) {
    std::vector<double> lat;
    for (size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].kind == Op::Kind::kQuery) lat.push_back(measured[k].ops[i].wall_ms);
    }
    std::printf("episode %zu: setup %.3f ms, query p50 %.3f ms, p95 %.3f ms\n", k,
                measured[k].setup_s * 1e3, Median(lat), Percentile(lat, kTailPct));
  }

  // Every episode runs the same operations, so each operation's wall time
  // is taken as its fastest over the episodes: interference from the rest
  // of the host only ever adds time, and it comes in bursts of seconds that
  // miss some episodes. The percentiles are then taken over the operations
  // of one episode.
  std::vector<double> latency, reported, refresh, setup;
  double timed_ms = 0, scanned = 0;
  for (const Episode& e : measured) setup.push_back(e.setup_s);
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].kind == Op::Kind::kAddDay) continue;
    double wall = measured.front().ops[i].wall_ms;
    for (const Episode& e : measured) wall = std::min(wall, e.ops[i].wall_ms);
    timed_ms += wall;
    if (w.ops[i].kind == Op::Kind::kRefresh) {
      refresh.push_back(wall);
      continue;
    }
    latency.push_back(wall);
    reported.push_back(wall + static_cast<double>(first.ops[i].sim_io_ns) / 1e6);
    scanned += static_cast<double>(first.ops[i].samples);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double failed_ratio =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0;

  std::printf("episodes: %zu measured (%zu untraced, %zu traced); per episode "
              "%zu queries (%zu beyond p%d) and %zu refreshes\n",
              measured.size(), untraced.size(), traced.size(), latency.size(),
              SamplesBeyond(latency.size(), kTailPct), kTailPct, refresh.size());

  // Latency by step kind, so a moved percentile can be traced to a kind.
  std::map<std::string, std::vector<double>> by_label, cpu_label;
  std::map<std::string, double> sim_label;  // one episode's simulated disk ms
  for (size_t i = 0; i < w.ops.size(); ++i) {
    sim_label[w.ops[i].label] += static_cast<double>(first.ops[i].sim_disk_ns) / 1e6;
  }
  for (const Episode& e : measured) {
    for (size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].kind != Op::Kind::kAddDay) {
        by_label[w.ops[i].label].push_back(e.ops[i].wall_ms);
        cpu_label[w.ops[i].label].push_back(e.ops[i].cpu_ms);
      }
    }
  }
  // Wall time minus process CPU time is time spent waiting (hand-offs to
  // the worker pool, scheduling).
  std::printf("latency by step kind (ms):\n");
  for (const auto& [label, v] : by_label) {
    std::printf("  %-20s n=%-6zu wall p50 %9.3f  p95 %9.3f  cpu p50 %9.3f"
                "  sim disk per episode %10.3f\n",
                label.c_str(), v.size(), Median(v), Percentile(v, 95),
                Median(cpu_label[label]), sim_label[label]);
  }

  if (!a.trace) {
    const std::vector<Metric> e2e = {
        {"setup_s", Median(setup), "s"},
        {"query_p50_ms", Median(latency), "ms"},
        {"query_p95_ms", Percentile(latency, kTailPct), "ms"},
        {"reported_p50_ms", Median(reported), "ms"},
        {"scan_msamples_per_s", scanned / 1e6 / (timed_ms / 1e3), "Msamples/s"},
        {"refresh_p50_ms", Median(refresh), "ms"},
        {"sim_io_s", static_cast<double>(first.sim_disk_ns) / 1e9, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    PrintTable("end-to-end (untraced):", e2e);
    PrintTable("also reported, not bounded:",
               {{"sim_net_s", static_cast<double>(first.sim_net_ns) / 1e9, "s"},
                {"failed_ratio", failed_ratio, "ratio"}});
    PrintResult(correct, attempted, failed, e2e);
    return 0;
  }

  std::vector<double> base_lat;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].kind == Op::Kind::kQuery) {
      base_lat.push_back(untraced.front().ops[i].wall_ms);
    }
  }
  const double overhead_ms = Median(latency) - Median(base_lat);

  // Self time per span name, summed over the traced episodes.
  const std::vector<int64_t> self = SelfTimes(spans.spans());
  std::map<std::string, std::pair<int64_t, uint64_t>> by_name;
  for (size_t i = 0; i < self.size(); ++i) {
    auto& slot = by_name[spans.spans()[i].name];
    slot.first += self[i];
    slot.second += 1;
  }
  std::printf("span self time (traced episodes, %zu spans):\n",
              spans.spans().size());
  for (const auto& [name, agg] : by_name) {
    std::printf("  %-24s %12.3f ms  over %" PRIu64 " spans\n",
                name == "db.query" ? "db.query (other)" : name.c_str(),
                static_cast<double>(agg.first) / 1e6, agg.second);
  }
  if (!a.spans.empty()) {
    if (dex::WriteStringToFile(a.spans, spans.ToChromeJson()).ok()) {
      std::printf("spans written to %s\n", a.spans.c_str());
    }
  }
  const std::vector<Metric> layers = LayerMetrics(traced, overhead_ms);
  PrintTable("per-layer (traced):", layers);
  PrintResult(correct, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace dexbench

int main(int argc, char** argv) {
  using namespace dexbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (args.mode == "selftest") return RunSelfTest();
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (args.work.empty()) {
    std::fprintf(stderr, "--work is required\n");
    return 2;
  }
  if (args.mode == "gen") {
    if (!Generate(args, w, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (args.mode == "ref") return RunReference(args, w);
  if (args.mode == "run") return RunMeasure(args, w);
  std::fprintf(stderr, "unknown mode '%s'\n", args.mode.c_str());
  return 2;
}

// dex_shell — an interactive SQL shell over a scientific file repository.
//
//   dex_shell <repo-dir> [--eager] [--cache=none|lru|all] [--tuple-cache]
//             [--cache-dir=<path>] [--derived] [--snapshot=<path>]
//             [--batch=<n>] [--threads=<n>]
//             [--refresh-threads=<n>] [--timeout=<ms>] [--memlimit=<mb>]
//             [--shards=<n>] [--shard-policy=hash|station]
//             [--max-inflight=<n>] [--queue-depth=<n>]
//             [--priority=background|normal|interactive]
//             [--trace=<file>] [--events-dump=<file>]
//             [--log-level=debug|info|warning|error]
//
// --derived turns on file-level pruning: a file whose complete zone maps
// prove no sample lies in a query's sample_value range is not mounted
// (unlike record/frame pruning, this changes the charged I/O). The DM table
// of per-record statistics is queryable either way, unless --no-zonemap.
//
// SQL statements execute through the two-stage kernel; dot-commands inspect
// the system:
//   .tables            list tables with row counts and kinds
//   .schema <table>    show a table's columns
//   .explain <sql>     compile-time plans + the Q_f/Q_s decomposition
//   .explain analyze <sql>  execute and annotate every operator with
//                      measured rows / batches / wall time
//   .stats             statistics of the last query: the text EXPLAIN
//                      ANALYZE ends with (its first line follows every
//                      query)
//   .metrics           dump the process-wide metrics registry
//   .open              open/ingestion statistics (and files its scan
//                      quarantined)
//   .cache             cache contents summary (+ durable-tier persist/
//                      recovery counters when --cache-dir is set)
//   .coverage          derive GAPS/OVERLAPS from record metadata
//   .refresh           rescan the repository for new/changed/removed files;
//                      only changed/new headers are parsed (parallel on
//                      --refresh-threads workers), the rest reuse their rows
//   .cold              flush the buffer pool (next query runs cold)
//   .timeout <ms|off>  simulated-time deadline per query; at the deadline
//                      ingestion stops admitting files and the query returns
//                      a deterministic partial result (marked PARTIAL)
//   .memlimit <mb|off> memory budget over mounted data + cache; on pressure
//                      unpinned cache entries are evicted, then files are
//                      skipped (partial result)
//   .sessions          admission-gate state: the open sessions, in-flight /
//                      queued counts, and the cumulative admitted / waited /
//                      shed tallies
//   .shards            one row per virtual shard (with --shards=N): files
//                      owned, health, and the charged interconnect traffic
//   .events            the flight recorder's ring of structured events
//                      (admission grants/sheds, epoch publishes, quarantines,
//                      cutoffs, shard kills), sim-clock ordered
//   .help / .quit
//
// Every statement runs through the serving layer: the shell is one session
// (priority from --priority) on a SessionManager gating the database at
// --max-inflight concurrent queries with a --queue-depth wait queue. A
// single interactive shell never queues against itself; the knobs exist so
// embedders wiring more sessions onto the same manager (see
// src/serve/session_manager.h) get the same admission behavior the shell
// exercises, and `.sessions` shows the gate state either way.
//
// With --trace=FILE every query records lifecycle spans (stage 1, rewrite,
// per-file mounts, stage 2) and the shell writes a Chrome trace-event JSON
// on exit — load it in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. With --events-dump=FILE (or DEX_FLIGHT_OUT) the flight
// recorder auto-dumps its event ring as JSON whenever a query fails, an
// admission is shed, or a file is quarantined. `DEX_LOG_LEVEL` sets the log
// threshold from the environment; --log-level= overrides it.
//
// Reads from stdin, so it scripts cleanly:
//   echo "SELECT COUNT(*) FROM F;" | dex_shell /repo

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/string_utils.h"
#include "core/database.h"
#include "core/export.h"
#include "core/seismic_schema.h"
#include "io/file_io.h"
#include "serve/session_manager.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dex_shell <repo-dir> [--eager] [--cache=none|lru|all] "
               "[--tuple-cache] [--cache-dir=<path>] [--derived] "
               "[--no-zonemap] [--no-simd-kernels] "
               "[--snapshot=<path>] [--batch=<n>] "
               "[--threads=<n>] [--refresh-threads=<n>] [--timeout=<ms>] "
               "[--memlimit=<mb>] [--shards=<n>] [--shard-policy=hash|station] "
               "[--max-inflight=<n>] [--queue-depth=<n>] "
               "[--priority=background|normal|interactive] [--trace=<file>] "
               "[--events-dump=<file>] "
               "[--log-level=debug|info|warning|error]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  dex::Logger::InitFromEnv();  // DEX_LOG_LEVEL; --log-level= overrides below
  dex::DatabaseOptions options;
  dex::serve::ServeOptions serve_options;
  int shell_priority = dex::ThreadPool::kPriorityInteractive;
  std::string repo;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--eager") {
      options.mode = dex::IngestionMode::kEager;
    } else if (arg == "--cache=none") {
      options.cache.policy = dex::CachePolicy::kNone;
    } else if (arg == "--cache=lru") {
      options.cache.policy = dex::CachePolicy::kLru;
    } else if (arg == "--cache=all") {
      options.cache.policy = dex::CachePolicy::kAll;
    } else if (arg == "--tuple-cache") {
      options.cache.granularity = dex::CacheGranularity::kTuple;
    } else if (dex::StartsWith(arg, "--cache-dir=")) {
      options.cache_dir = arg.substr(12);
      // The durable tier needs a retaining policy to have anything to
      // persist; lift the paper-default discard-always unless the user chose
      // a policy explicitly.
      if (options.cache.policy == dex::CachePolicy::kNone) {
        options.cache.policy = dex::CachePolicy::kLru;
      }
    } else if (arg == "--derived") {
      // File-level pruning from the zone maps (which also back DM).
      options.two_stage.pruning.file_level = true;
    } else if (arg == "--no-zonemap") {
      options.two_stage.pruning.record_level = false;
      options.two_stage.pruning.frame_level = false;
      options.collect_zone_maps = false;
    } else if (arg == "--no-simd-kernels") {
      options.two_stage.pruning.use_simd_kernels = false;
    } else if (dex::StartsWith(arg, "--snapshot=")) {
      options.metadata_snapshot_path = arg.substr(11);
    } else if (dex::StartsWith(arg, "--batch=")) {
      options.two_stage.mount_batch_size =
          static_cast<size_t>(std::atoi(arg.c_str() + 8));
    } else if (dex::StartsWith(arg, "--threads=")) {
      options.two_stage.num_threads =
          static_cast<size_t>(std::atoi(arg.c_str() + 10));
    } else if (dex::StartsWith(arg, "--refresh-threads=")) {
      options.stage1_threads =
          static_cast<size_t>(std::atoi(arg.c_str() + 18));
    } else if (dex::StartsWith(arg, "--timeout=")) {
      options.two_stage.sim_deadline_nanos =
          static_cast<uint64_t>(std::atoll(arg.c_str() + 10)) * 1000000ull;
    } else if (dex::StartsWith(arg, "--memlimit=")) {
      options.two_stage.memory_budget_bytes =
          static_cast<uint64_t>(std::atoll(arg.c_str() + 11)) << 20;
    } else if (dex::StartsWith(arg, "--shards=")) {
      options.shard.num_shards = std::atoi(arg.c_str() + 9);
    } else if (dex::StartsWith(arg, "--shard-policy=")) {
      const std::string p = dex::ToLower(arg.substr(15));
      if (p == "hash") {
        options.shard.policy = dex::ShardedRepository::Policy::kHash;
      } else if (p == "station") {
        options.shard.policy = dex::ShardedRepository::Policy::kStationRange;
      } else {
        std::fprintf(stderr, "unknown shard policy %s\n", p.c_str());
        return Usage();
      }
    } else if (dex::StartsWith(arg, "--max-inflight=")) {
      serve_options.max_inflight =
          static_cast<size_t>(std::atoi(arg.c_str() + 15));
    } else if (dex::StartsWith(arg, "--queue-depth=")) {
      serve_options.queue_depth =
          static_cast<size_t>(std::atoi(arg.c_str() + 14));
    } else if (dex::StartsWith(arg, "--priority=")) {
      const std::string p = dex::ToLower(arg.substr(11));
      if (p == "background") {
        shell_priority = dex::ThreadPool::kPriorityBackground;
      } else if (p == "normal") {
        shell_priority = dex::ThreadPool::kPriorityNormal;
      } else if (p == "interactive") {
        shell_priority = dex::ThreadPool::kPriorityInteractive;
      } else {
        std::fprintf(stderr, "unknown priority %s\n", p.c_str());
        return Usage();
      }
    } else if (dex::StartsWith(arg, "--trace=")) {
      trace_path = arg.substr(8);
      if (trace_path.empty()) return Usage();
    } else if (dex::StartsWith(arg, "--events-dump=")) {
      const std::string path = arg.substr(14);
      if (path.empty()) return Usage();
      dex::obs::FlightRecorder::Global().set_dump_path(path);
    } else if (dex::StartsWith(arg, "--log-level=")) {
      dex::LogLevel level;
      if (!dex::ParseLogLevel(arg.substr(12), &level)) {
        std::fprintf(stderr, "unknown log level %s\n", arg.c_str() + 12);
        return Usage();
      }
      dex::Logger::set_threshold(level);
    } else if (arg[0] == '-') {
      return Usage();
    } else {
      repo = arg;
    }
  }
  if (repo.empty()) return Usage();
  if (!trace_path.empty()) {
    dex::obs::Tracer::Global().set_enabled(true);
  }

  auto db_or = dex::Database::Open(repo, options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto& db = *db_or;
  dex::serve::SessionManager sessions(db.get(), serve_options);
  dex::serve::SessionOptions shell_session;
  shell_session.name = "shell";
  shell_session.priority = shell_priority;
  auto session_or = sessions.OpenSession(shell_session);
  if (!session_or.ok()) {
    std::fprintf(stderr, "session open failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  const dex::serve::SessionManager::SessionId session_id = *session_or;
  const dex::OpenStats& open = db->open_stats();
  std::printf("dex shell — %zu files, %zu records, %s of metadata "
              "(%s mode, format %s)\n",
              open.num_files, open.num_records,
              dex::FormatBytes(open.metadata_bytes).c_str(),
              options.mode == dex::IngestionMode::kLazy ? "lazy" : "eager",
              db->format()->name().c_str());
  std::printf("type SQL (terminate with ';') or .help\n");

  dex::QueryStats last_stats;
  std::string pending;
  std::string line;
  while (true) {
    std::printf(pending.empty() ? "dex> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed = dex::Trim(line);
    if (trimmed.empty()) continue;

    if (pending.empty() && trimmed[0] == '.') {
      const auto parts = dex::Split(trimmed, ' ');
      const std::string& cmd = parts[0];
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(
            ".tables .schema <t> .explain [analyze] <sql> .stats .metrics "
            ".open .cache .coverage .refresh .cold .timeout <ms|off> "
            ".memlimit <mb|off> .sessions .shards .events "
            ".export <path> <sql> .quit\n");
      } else if (cmd == ".tables") {
        for (const std::string& name : db->catalog()->TableNames()) {
          auto table = db->catalog()->GetTable(name);
          auto kind = db->catalog()->GetKind(name);
          if (!table.ok() || !kind.ok()) continue;
          // DM's rows are built per query from the zone maps.
          const size_t rows = name == dex::kDerivedTableName
                                  ? db->zone_maps()->GetStats().records
                                  : (*table)->num_rows();
          std::printf("%-10s %10zu rows   %s\n", name.c_str(), rows,
                      *kind == dex::TableKind::kMetadata ? "metadata"
                                                         : "actual data");
        }
      } else if (cmd == ".schema" && parts.size() > 1) {
        auto table = db->catalog()->GetTable(parts[1]);
        if (table.ok()) {
          std::printf("%s %s\n", parts[1].c_str(),
                      (*table)->schema()->ToString().c_str());
        } else {
          std::printf("%s\n", table.status().ToString().c_str());
        }
      } else if (cmd == ".explain") {
        const std::string sql = trimmed.substr(8);
        if (parts.size() > 1 && dex::ToLower(parts[1]) == "analyze") {
          // Database::Query understands the EXPLAIN ANALYZE prefix; the
          // result is a one-column QUERY PLAN table.
          auto result = sessions.Submit(session_id, "EXPLAIN" + sql);
          if (!result.ok()) {
            std::printf("error: %s\n", result.status().ToString().c_str());
          } else {
            const auto& col = *result->table->column(0);
            for (size_t r = 0; r < result->table->num_rows(); ++r) {
              std::printf("%s\n", col.GetString(r).c_str());
            }
          }
        } else {
          auto text = db->Explain(sql);
          std::printf("%s\n", text.ok() ? text->c_str()
                                        : text.status().ToString().c_str());
        }
      } else if (cmd == ".stats") {
        std::printf("%s", last_stats.ToString().c_str());
      } else if (cmd == ".metrics") {
        std::printf("%s", dex::obs::MetricsRegistry::Global().ToText().c_str());
      } else if (cmd == ".open") {
        std::printf("files=%zu records=%zu metadata=%s repo=%s open=%.3fs "
                    "(snapshot reused %zu",
                    open.num_files, open.num_records,
                    dex::FormatBytes(open.metadata_bytes).c_str(),
                    dex::FormatBytes(open.repo_bytes).c_str(),
                    open.TotalSeconds(), open.files_reused);
        if (open.files_quarantined > 0) {
          std::printf(", %zu quarantined", open.files_quarantined);
        }
        std::printf(")\n%s", open.RenderWarnings("   ").c_str());
      } else if (cmd == ".cache") {
        const auto& cs = db->cache()->stats();
        std::printf("entries=%zu bytes=%s hits=%llu misses=%llu "
                    "evictions=%llu invalidations=%llu\n",
                    db->cache()->num_entries(),
                    dex::FormatBytes(db->cache()->bytes_used()).c_str(),
                    static_cast<unsigned long long>(cs.hits),
                    static_cast<unsigned long long>(cs.misses),
                    static_cast<unsigned long long>(cs.evictions),
                    static_cast<unsigned long long>(cs.invalidations));
        if (db->persistent_cache() != nullptr) {
          const auto ps = db->persistent_cache()->stats();
          std::printf("disk tier: dir=%s entries=%zu persisted=%llu (%s) "
                      "spills=%llu reloads=%llu recovered=%llu "
                      "quarantined=%llu stale=%llu\n",
                      db->persistent_cache()->options().dir.c_str(),
                      db->persistent_cache()->num_entries(),
                      static_cast<unsigned long long>(ps.persisted),
                      dex::FormatBytes(ps.persisted_bytes).c_str(),
                      static_cast<unsigned long long>(cs.spills),
                      static_cast<unsigned long long>(cs.reloads),
                      static_cast<unsigned long long>(ps.recovered),
                      static_cast<unsigned long long>(ps.quarantined),
                      static_cast<unsigned long long>(ps.stale_dropped));
        }
      } else if (cmd == ".coverage") {
        auto stats = db->AnalyzeCoverage();
        if (stats.ok()) {
          std::printf("%zu streams: %zu gaps (%.1fs), %zu overlaps (%.1fs) — "
                      "query tables GAPS / OVERLAPS\n",
                      stats->streams, stats->gaps, stats->total_gap_ms / 1e3,
                      stats->overlaps, stats->total_overlap_ms / 1e3);
        } else {
          std::printf("%s\n", stats.status().ToString().c_str());
        }
      } else if (cmd == ".refresh") {
        auto r = db->Refresh();
        if (r.ok()) {
          std::printf("+%zu new, ~%zu changed, -%zu removed "
                      "(%zu scanned, %zu reused",
                      r->files_added, r->files_changed, r->files_removed,
                      r->files_scanned, r->files_reused);
          if (r->files_quarantined > 0) {
            std::printf(", %zu quarantined", r->files_quarantined);
          }
          std::printf(") in %.4fs", (r->scan_nanos + r->sim_io_nanos) / 1e9);
          if (r->sim_io_nanos > 0) {
            std::printf(" [sim-I/O %.4fs]", r->sim_io_nanos / 1e9);
          }
          if (r->workers > 1 && r->files_scanned > 0) {
            std::printf(" [%zu scan tasks on %zu workers, sim speedup %.2fx]",
                        r->files_scanned, r->workers,
                        r->parallel_sim_nanos > 0
                            ? static_cast<double>(r->serial_sim_nanos) /
                                  static_cast<double>(r->parallel_sim_nanos)
                            : 1.0);
          }
          if (r->is_partial) {
            std::printf(" [PARTIAL: %zu skipped by deadline, %zu on dead "
                        "shards]",
                        r->files_skipped_deadline, r->files_skipped_shard);
          }
          std::printf("\n%s", r->RenderWarnings("   ").c_str());
        } else {
          std::printf("%s\n", r.status().ToString().c_str());
        }
      } else if (cmd == ".export" && parts.size() > 2) {
        const std::string path = parts[1];
        const std::string sql = trimmed.substr(trimmed.find(parts[2],
                                                            8 + path.size()));
        auto result = sessions.Submit(session_id, sql);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          const dex::Status st = dex::ExportTableCsv(*result->table, path);
          std::printf("%s: %llu row(s) %s\n", path.c_str(),
                      static_cast<unsigned long long>(result->table->num_rows()),
                      st.ok() ? "written" : st.ToString().c_str());
        }
      } else if (cmd == ".cold") {
        db->FlushBuffers();
        std::printf("buffers flushed; the next query runs cold\n");
      } else if (cmd == ".timeout" && parts.size() > 1) {
        if (dex::ToLower(parts[1]) == "off") {
          db->set_sim_deadline_nanos(0);
          std::printf("query deadline off\n");
        } else {
          const long long ms = std::atoll(parts[1].c_str());
          db->set_sim_deadline_nanos(static_cast<uint64_t>(ms) * 1000000ull);
          std::printf("query deadline: %lldms simulated time "
                      "(partial results past it)\n", ms);
        }
      } else if (cmd == ".memlimit" && parts.size() > 1) {
        if (dex::ToLower(parts[1]) == "off") {
          db->set_memory_budget_bytes(0);
          std::printf("memory budget off\n");
        } else {
          const long long mb = std::atoll(parts[1].c_str());
          db->set_memory_budget_bytes(static_cast<uint64_t>(mb) << 20);
          std::printf("memory budget: %lldMB over mounted data + cache "
                      "(currently %s reserved)\n", mb,
                      dex::FormatBytes(db->memory_budget()->used()).c_str());
        }
      } else if (cmd == ".shards") {
        const auto rows = db->shards()->StatusRows();
        if (rows.size() < 2) {
          std::printf("sharding off (run with --shards=<n>)\n");
        } else {
          std::printf("%zu shards (%s partitioning)\n", rows.size(),
                      db->shards()->options().policy ==
                              dex::ShardedRepository::Policy::kHash
                          ? "hash"
                          : "station-range");
          for (const auto& row : rows) {
            std::printf("  shard %-3d %-5s %6zu files   net: %llu msgs, %s, "
                        "%.4fs sim, %llu resends\n",
                        row.shard, row.alive ? "alive" : "DEAD", row.files,
                        static_cast<unsigned long long>(row.net_messages),
                        dex::FormatBytes(row.net_bytes).c_str(),
                        row.net_sim_nanos / 1e9,
                        static_cast<unsigned long long>(row.net_resends));
          }
        }
      } else if (cmd == ".events") {
        auto& recorder = dex::obs::FlightRecorder::Global();
        const auto events = recorder.Snapshot();
        if (events.empty()) {
          std::printf("no flight events recorded\n");
        } else {
          std::printf("%zu flight event(s)%s\n", events.size(),
                      recorder.dropped() > 0
                          ? (" (" + std::to_string(recorder.dropped()) +
                             " older dropped)")
                                .c_str()
                          : "");
          for (const auto& e : events) {
            std::printf("  [%10.4fs] %-16s", e.sim_nanos / 1e9, e.kind.c_str());
            if (!e.session.empty()) std::printf(" session=%s", e.session.c_str());
            if (e.priority >= 0) std::printf(" prio=%d", e.priority);
            if (e.shard >= 0) std::printf(" shard=%d", e.shard);
            if (!e.detail.empty()) std::printf(" %s", e.detail.c_str());
            std::printf("\n");
          }
        }
      } else if (cmd == ".sessions") {
        const auto stats = sessions.stats();
        std::printf("gate: %zu/%zu in flight, %zu/%zu queued — "
                    "admitted %llu (waited %llu), shed %llu; epoch %llu "
                    "(%llu retired)\n",
                    stats.inflight, sessions.options().max_inflight,
                    stats.queued, sessions.options().queue_depth,
                    static_cast<unsigned long long>(stats.admitted),
                    static_cast<unsigned long long>(stats.waited),
                    static_cast<unsigned long long>(stats.shed),
                    static_cast<unsigned long long>(db->current_epoch()),
                    static_cast<unsigned long long>(db->epochs_retired()));
        static const char* kPriorityNames[] = {"background", "normal",
                                               "interactive"};
        for (const auto& info : sessions.ListSessions()) {
          std::printf("  #%llu %-12s %-11s cap=%zu inflight=%zu "
                      "submitted=%llu shed=%llu%s\n",
                      static_cast<unsigned long long>(info.id),
                      info.name.c_str(), kPriorityNames[info.priority],
                      info.max_inflight, info.inflight,
                      static_cast<unsigned long long>(info.submitted),
                      static_cast<unsigned long long>(info.shed),
                      info.closed ? " (closed)" : "");
        }
      } else {
        std::printf("unknown command %s (try .help)\n", cmd.c_str());
      }
      continue;
    }

    // Accumulate SQL until a ';'.
    pending += (pending.empty() ? "" : " ") + trimmed;
    if (pending.find(';') == std::string::npos) continue;
    const std::string sql = pending;
    pending.clear();

    auto result = sessions.Submit(session_id, sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      if (result.status().IsOverloaded()) {
        const uint64_t hint = dex::serve::BackoffHintNanos(result.status());
        if (hint > 0) {
          std::printf("   (retry in ~%.1fms)\n", hint / 1e6);
        }
      }
      continue;
    }
    std::printf("%s", result->table->ToString(40).c_str());
    last_stats = result->stats;
    const std::string stats_text = last_stats.ToString();
    std::printf("%s", stats_text.substr(0, stats_text.find('\n') + 1).c_str());
  }
  std::printf("\n");
  if (!trace_path.empty()) {
    const auto spans = dex::obs::Tracer::Global().Drain();
    const dex::Status st = dex::obs::WriteChromeTrace(trace_path, spans);
    if (st.ok()) {
      std::fprintf(stderr, "trace: %zu span(s) written to %s\n", spans.size(),
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}

#include "core/stage1_scan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "exec/sim_schedule.h"
#include "exec/task_group.h"
#include "io/file_io.h"
#include "obs/trace.h"

namespace dex {

namespace {

/// The coordinator's per-file decision, made in enumeration order.
struct FilePlan {
  const std::string* uri = nullptr;
  uint64_t size_bytes = 0;
  int64_t mtime_ms = 0;
  bool stat_ok = false;
  bool known = false;      // registry had the uri before this scan
  bool changed = false;    // known, and size/mtime differ from the registry
  bool reuse = false;      // metadata served from the baseline
  size_t task = SIZE_MAX;  // slot index when a scan task was dispatched
};

/// One scan task's output, merged on the coordinator in enumeration order.
struct TaskSlot {
  mseed::ScanResult result;
  bool parse_failed = false;
  bool read_failed = false;  // header read still failing after retries
  std::string error;
  uint64_t retries = 0;
  uint64_t sim_nanos = 0;
};

/// Charges the file's header pages ((num_records + 1) * 64 bytes, capped at
/// the file size) to the simulated medium, absorbing transient faults with
/// exponential backoff exactly like the stage-2 mount read path. All charges
/// (reads and backoff) land in the calling task's TaskTimeScope bucket.
Status ChargeHeaderReadWithRetry(FileRegistry* registry, const std::string& uri,
                                 const MountRetryPolicy& retry,
                                 const QueryContext* qctx, TaskSlot* slot) {
  DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry->Get(uri));
  const uint32_t num_records =
      slot->result.files.empty() ? 0 : slot->result.files[0].num_records;
  const uint64_t length = std::min<uint64_t>(
      entry.size_bytes, (static_cast<uint64_t>(num_records) + 1) * 64);
  SimDisk* disk = registry->disk();
  Status io = disk->Read(entry.object, 0, length);
  double backoff_ms = retry.backoff_base_millis;
  for (int attempt = 0;
       !io.ok() && io.IsIOError() && attempt < retry.max_retries; ++attempt) {
    if (qctx != nullptr) DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
    registry->RecordTransientError(uri, io.message());
    obs::Tracer::Instant("scan_retry", "fault",
                         {{"uri", uri},
                          {"attempt", std::to_string(attempt + 1)},
                          {"backoff_ms", std::to_string(backoff_ms)}});
    disk->ChargeDelay(static_cast<uint64_t>(backoff_ms * 1e6));
    backoff_ms *= retry.backoff_multiplier;
    ++slot->retries;
    io = disk->Read(entry.object, 0, length);
  }
  return io;
}

/// The per-file unit of work, run as one task of an admission window.
/// Degradation is *recorded*, not applied:
/// quarantines happen at merge time on the coordinator so the health
/// sequence is deterministic.
Status ScanOne(FormatAdapter* format, FileRegistry* registry,
               const FilePlan& plan, const Stage1Options& options,
               TaskSlot* slot) {
  Result<mseed::ScanResult> parsed = format->ScanFile(*plan.uri);
  if (!parsed.ok()) {
    if (options.on_error == OnMountError::kFail) return parsed.status();
    slot->parse_failed = true;
    slot->error = parsed.status().message();
    return Status::OK();
  }
  slot->result = std::move(*parsed);
  if (!plan.known && !plan.stat_ok) {
    // The file appeared between the coordinator's stat and this parse, so it
    // was never registered with the simulated disk. Sit this round out; the
    // next scan picks it up cleanly.
    slot->parse_failed = true;
    slot->error = "file appeared mid-scan";
    return Status::OK();
  }
  Status io =
      ChargeHeaderReadWithRetry(registry, *plan.uri, options.retry,
                                options.qctx, slot);
  if (!io.ok()) {
    if (!io.IsIOError()) return io;  // cancellation or bookkeeping errors
    if (options.on_error == OnMountError::kFail) return io;
    slot->read_failed = true;
    slot->error = io.message();
  }
  return Status::OK();
}

}  // namespace

ThreadPool* Stage1Scanner::Pool(size_t workers) {
  // The shared database-wide pool wins: `workers` then only drives how many
  // lanes the deterministic schedule aggregates over, not real thread count.
  if (shared_pool_ != nullptr) return shared_pool_;
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
  }
  return pool_.get();
}

Result<mseed::ScanResult> Stage1Scanner::Scan(const std::string& root,
                                              const mseed::ScanResult* baseline,
                                              const Stage1Options& options,
                                              Stage1Stats* stats) {
  DEX_CHECK(stats != nullptr);
  obs::TraceSpan span("stage1_scan", "stage1.scan");
  span.AddArg("root", root);

  DEX_ASSIGN_OR_RETURN(std::vector<std::string> uris,
                       format_->EnumerateFiles(root));

  // (Re)partition the enumerated catalog across the shards *before* any
  // assignment is read: Open, every Refresh, and the queries running against
  // the epoch this scan publishes all agree on the file→shard map.
  ShardedRepository* shards = options.shards;
  const bool sharded = shards != nullptr && shards->enabled();
  if (shards != nullptr) shards->AssignCatalog(uris);
  stats->num_shards =
      sharded ? static_cast<size_t>(shards->num_shards()) : 1;

  // Index the baseline by URI (metadata snapshot at Open, catalog at
  // Refresh).
  std::unordered_map<std::string, const mseed::FileMeta*> base_files;
  std::unordered_map<std::string, std::vector<const mseed::RecordMeta*>>
      base_records;
  if (baseline != nullptr) {
    base_files.reserve(baseline->files.size());
    for (const mseed::FileMeta& f : baseline->files) base_files[f.uri] = &f;
    for (const mseed::RecordMeta& r : baseline->records) {
      base_records[r.uri].push_back(&r);
    }
  }

  // Coordinator pre-pass, in enumeration order: stat each file and decide
  // reuse-vs-scan. Reused files are registered here when new (the instant-on
  // snapshot path), so later mounts charge them correctly.
  std::vector<FilePlan> plans(uris.size());
  std::vector<size_t> work;
  for (size_t i = 0; i < uris.size(); ++i) {
    FilePlan& plan = plans[i];
    plan.uri = &uris[i];
    Result<uint64_t> size = FileSize(uris[i]);
    Result<int64_t> mtime = FileMtimeMillis(uris[i]);
    if (size.ok() && mtime.ok()) {
      plan.stat_ok = true;
      plan.size_bytes = *size;
      plan.mtime_ms = *mtime;
    }
    plan.known = registry_->Contains(uris[i]);
    if (plan.known && plan.stat_ok) {
      DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry_->Get(uris[i]));
      plan.changed = entry.size_bytes != plan.size_bytes ||
                     entry.mtime_ms != plan.mtime_ms;
    }
    auto it = plan.stat_ok ? base_files.find(uris[i]) : base_files.end();
    if (it != base_files.end() && it->second->size_bytes == plan.size_bytes &&
        it->second->mtime_ms == plan.mtime_ms && !plan.changed) {
      plan.reuse = true;
      if (!plan.known) {
        DEX_RETURN_NOT_OK(
            registry_->Add(uris[i], plan.size_bytes, plan.mtime_ms));
      }
      continue;
    }
    // A file needing a parse but owned by a dead shard cannot be reached:
    // fall back to its stale baseline row when one exists (like a deadline
    // skip) and let the next refresh re-detect it. The registry is left
    // untouched for the same reason.
    if (sharded && !shards->IsShardAlive(shards->ShardOf(uris[i]))) {
      ++stats->files_skipped_shard;
      stats->is_partial = true;
      plan.reuse = base_files.count(uris[i]) > 0;
      continue;
    }
    work.push_back(i);
  }
  span.AddArg("files", static_cast<uint64_t>(uris.size()));
  span.AddArg("scan_tasks", static_cast<uint64_t>(work.size()));

  // Baseline files no longer on disk drop out of the merged metadata.
  if (baseline != nullptr) {
    std::unordered_set<std::string> enumerated;
    enumerated.reserve(uris.size());
    for (const FilePlan& plan : plans) {
      if (plan.stat_ok) enumerated.insert(*plan.uri);
    }
    for (const auto& [uri, meta] : base_files) {
      (void)meta;
      if (enumerated.count(uri) == 0) ++stats->files_removed;
    }
  }

  // One admission loop serves every scan. An ungoverned scan is one window
  // of all its candidates; a governed one (deadline armed) admits one file
  // per window, so each admission is decided on the scan's own timeline
  // and the cutoff is bit-identical at any num_threads.
  const bool governed =
      options.qctx != nullptr && options.qctx->has_deadline();
  SimDisk* disk = registry_->disk();
  std::vector<TaskSlot> slots(work.size());
  size_t workers = options.num_threads == 0 ? ThreadPool::DefaultConcurrency()
                                            : options.num_threads;
  workers = governed ? 1 : std::max<size_t>(1, std::min(workers, work.size()));
  stats->workers = workers;
  const size_t window = governed ? 1 : work.size();
  for (size_t begin = 0; begin < work.size(); begin += window) {
    const size_t end = std::min(work.size(), begin + window);
    if (options.qctx != nullptr) {
      DEX_RETURN_NOT_OK(options.qctx->CheckInterrupt());
    }
    if (governed && options.qctx->DeadlineExpired(
                        options.qctx->sim_now(disk->stats().sim_nanos))) {
      stats->is_partial = true;
      for (size_t rest = begin; rest < work.size(); ++rest) {
        ++stats->files_skipped_deadline;
        // Files not yet admitted keep their stale baseline rows when they
        // have one; new files stay out of this round's catalog. Neither was
        // registered, so the next refresh re-detects them.
        plans[work[rest]].reuse = base_files.count(*plans[work[rest]].uri) > 0;
      }
      break;
    }
    // Register the window's new files with the simulated disk before any of
    // its tasks runs: object ids — and with them the per-object PRNG fault
    // streams — are a pure function of the enumeration order, not of worker
    // interleaving.
    for (size_t w = begin; w < end; ++w) {
      FilePlan& plan = plans[work[w]];
      plan.task = w;
      if (plan.stat_ok && !plan.known) {
        DEX_RETURN_NOT_OK(
            registry_->Add(*plan.uri, plan.size_bytes, plan.mtime_ms));
      }
    }
    TaskGroup group(workers > 1 ? Pool(workers) : nullptr, options.priority);
    for (size_t w = begin; w < end; ++w) {
      const FilePlan* plan = &plans[work[w]];
      TaskSlot* slot = &slots[w];
      // Trace context (order key + parent span) is captured at spawn time by
      // TaskGroup::Spawn, so the drained span stream reproduces spawn order
      // at any worker count without per-call-site plumbing.
      group.Spawn([this, plan, slot, &options]() -> Status {
        if (options.qctx != nullptr) {
          DEX_RETURN_NOT_OK(options.qctx->CheckInterrupt());
        }
        obs::TraceSpan task_span("scan_task", "stage1.scan");
        task_span.AddArg("uri", *plan->uri);
        task_span.AddArg("lane",
                         static_cast<uint64_t>(obs::CurrentThreadLane()));
        // Route this task's simulated stall time into its own bucket so the
        // window can be aggregated deterministically afterwards.
        SimDisk::TaskTimeScope scope(&slot->sim_nanos);
        return ScanOne(format_, registry_, *plan, options, slot);
      });
    }
    DEX_RETURN_NOT_OK(group.Wait());

    // Charge the window. Unsharded, the critical path is the makespan over
    // `workers` lanes. Sharded, every parsed header ships its bytes back
    // over its shard's link, and the critical path is the slowest shard
    // (its summed parse time + its link time): each shard is one serial
    // storage node. A response lost past the resend budget degrades like a
    // permanently failing header read (quarantine, metadata kept).
    uint64_t serial = 0;
    uint64_t critical_path = 0;
    if (sharded) {
      std::vector<ShardedRepository::GatherItem> items;
      for (size_t w = begin; w < end; ++w) {
        const uint32_t num_records = slots[w].result.files.empty()
                                         ? 0
                                         : slots[w].result.files[0].num_records;
        items.push_back(
            {shards->ShardOf(*plans[work[w]].uri), slots[w].sim_nanos,
             !slots[w].parse_failed,
             std::min<uint64_t>(plans[work[w]].size_bytes,
                                (static_cast<uint64_t>(num_records) + 1) * 64)});
      }
      const ShardedRepository::GatherCost cost = shards->ScatterGather(items);
      for (size_t w = begin; w < end; ++w) {
        const Status& resp = cost.failures[w - begin];
        if (!resp.ok() && !slots[w].read_failed) {
          slots[w].read_failed = true;
          slots[w].error = resp.message();
        }
      }
      serial = cost.serial_nanos;
      critical_path = cost.critical_path_nanos;
      stats->net_sim_nanos += cost.net_nanos;
    } else {
      std::vector<uint64_t> task_nanos;
      for (size_t w = begin; w < end; ++w) {
        task_nanos.push_back(slots[w].sim_nanos);
      }
      const SimSchedule sched = ListScheduleSimTimes(task_nanos, workers);
      serial = sched.serial_sum;
      critical_path = sched.makespan;
    }
    // Charge the *serial sum*: the scan's charged simulated cost stays
    // invariant in the worker count, while the critical path is reported as
    // what a medium with that much overlap would have stalled — the speedup
    // bench_refresh measures. Contrast with stage-2 mounts, which charge the
    // critical path (a query's reported latency *should* drop with lanes);
    // Open/Refresh cost feeds experiments that compare ingestion strategies
    // and must not drift with the machine's core count.
    disk->ChargeDelay(serial);
    stats->serial_sim_nanos += serial;
    stats->parallel_sim_nanos += critical_path;
  }

  // Merge in enumeration order: catalog row order, stat counters, warning
  // order, and quarantine decisions are independent of completion order.
  mseed::ScanResult out;
  out.files.reserve(uris.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    FilePlan& plan = plans[i];
    if (plan.reuse) {
      auto it = base_files.find(*plan.uri);
      DEX_CHECK(it != base_files.end());
      out.files.push_back(*it->second);
      auto rit = base_records.find(*plan.uri);
      if (rit != base_records.end()) {
        for (const mseed::RecordMeta* r : rit->second) out.records.push_back(*r);
      }
      out.total_bytes += it->second->size_bytes;
      ++stats->files_reused;
      continue;
    }
    if (plan.task == SIZE_MAX) continue;  // deadline-skipped, no baseline row
    TaskSlot& slot = slots[plan.task];
    stats->read_retries += slot.retries;
    if (slot.parse_failed) {
      // Corrupt header: quarantine and keep the file out of the catalog. The
      // registry keeps its pre-change identity, so a repaired copy is
      // re-detected as changed and rescanned (which lifts the quarantine).
      registry_->Quarantine(*plan.uri, slot.error);
      obs::Tracer::Instant("scan_quarantine", "fault", {{"uri", *plan.uri}});
      stats->AddWarning("stage-1 scan of '" + *plan.uri +
                        "' failed: " + slot.error + " (file quarantined)");
      ++stats->files_quarantined;
      continue;
    }
    ++stats->files_scanned;
    if (plan.known) {
      if (plan.changed) {
        // Adopt the file's new identity. Update also lifts any quarantine —
        // the operator may have replaced a broken file with a repaired one.
        DEX_RETURN_NOT_OK(
            registry_->Update(*plan.uri, plan.size_bytes, plan.mtime_ms));
        ++stats->files_changed;
      }
    } else if (plan.stat_ok) {
      ++stats->files_added;
    }
    if (slot.read_failed) {
      // The parse succeeded off the real filesystem but the simulated medium
      // kept failing the header pages: keep the metadata (queryable) but
      // quarantine the file so it cannot become a file of interest until
      // repaired.
      registry_->Quarantine(*plan.uri, slot.error);
      obs::Tracer::Instant("scan_quarantine", "fault", {{"uri", *plan.uri}});
      stats->AddWarning("header read of '" + *plan.uri + "' failed after " +
                        std::to_string(options.retry.max_retries) +
                        " retries: " + slot.error +
                        " (file quarantined; metadata kept)");
      ++stats->files_quarantined;
    }
    out.files.insert(out.files.end(), slot.result.files.begin(),
                     slot.result.files.end());
    out.records.insert(out.records.end(), slot.result.records.begin(),
                       slot.result.records.end());
    out.total_bytes += slot.result.total_bytes;
  }
  span.AddArg("files_scanned", static_cast<uint64_t>(stats->files_scanned));
  span.AddArg("files_reused", static_cast<uint64_t>(stats->files_reused));
  return out;
}

}  // namespace dex

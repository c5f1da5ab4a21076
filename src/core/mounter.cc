#include "core/mounter.h"

#include <cmath>
#include <limits>

#include "core/informativeness.h"
#include "core/seismic_schema.h"
#include "engine/batch.h"
#include "engine/kernel.h"
#include "io/file_io.h"
#include "mseed/reader.h"
#include "obs/trace.h"

namespace dex {

namespace {

// Warnings surface in QueryStats; keep each outcome's buffer bounded so a
// pathological repository cannot grow it without limit.
constexpr size_t kMaxMountWarnings = 256;

}  // namespace

void Mounter::MountOutcome::MergeFrom(const MountOutcome& o) {
  counters += o.counters;
  warnings_dropped += o.warnings_dropped;
  for (const std::string& w : o.warnings) {
    if (warnings.size() < kMaxMountWarnings) {
      warnings.push_back(w);
    } else {
      ++warnings_dropped;
    }
  }
}

void Mounter::AddWarning(MountOutcome* outcome, std::string msg) {
  if (outcome == nullptr) return;
  if (outcome->warnings.size() < kMaxMountWarnings) {
    outcome->warnings.push_back(std::move(msg));
  } else {
    ++outcome->warnings_dropped;
  }
}

Status Mounter::ChargeReadWithRetry(const std::string& uri,
                                    MountOutcome* outcome,
                                    const QueryContext* qctx) {
  Status io = registry_->ChargeFileRead(uri);
  double backoff_ms = retry_.backoff_base_millis;
  for (int attempt = 0; !io.ok() && io.IsIOError() && attempt < retry_.max_retries;
       ++attempt) {
    // A cancelled query must not ride out the remaining backoff schedule.
    // The cancel reason is not an IOError, so Mount propagates it as a
    // query failure instead of quarantining the file.
    if (qctx != nullptr) DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
    registry_->RecordTransientError(uri, io.message());
    obs::Tracer::Instant("read_retry", "fault",
                         {{"uri", uri},
                          {"attempt", std::to_string(attempt + 1)},
                          {"backoff_ms", std::to_string(backoff_ms)}});
    // Backoff is simulated wall time the query spends waiting on the medium.
    registry_->disk()->ChargeDelay(static_cast<uint64_t>(backoff_ms * 1e6));
    backoff_ms *= retry_.backoff_multiplier;
    if (outcome != nullptr) ++outcome->counters.read_retries;
    io = registry_->ChargeFileRead(uri);
  }
  return io;
}

Result<TablePtr> Mounter::Mount(const std::string& table_name,
                                const std::string& uri,
                                const ExprPtr& fused_predicate,
                                MountOutcome* outcome,
                                const QueryContext* qctx,
                                const PruningOptions* pruning) {
  if (table_name != kDataTableName) {
    return Status::NotImplemented("no extraction mapping for actual table '" +
                                  table_name + "'");
  }
  // The per-file ingestion span: present whether this mount runs inline
  // inside stage-2 plan execution or as a parallel premount task.
  obs::TraceSpan span("mount", "mount");
  span.AddArg("uri", uri);
  span.AddArg("lane", static_cast<uint64_t>(obs::CurrentThreadLane()));
  DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry_->Get(uri));

  // Charge the simulated medium for pulling the file's bytes, absorbing
  // transient faults with exponential backoff.
  Status io = ChargeReadWithRetry(uri, outcome, qctx);
  if (!io.ok()) {
    if (!io.IsIOError() || on_error_ == OnMountError::kFail) {
      return io.WithContext("mounting '" + uri + "'");
    }
    // Permanent read failure: quarantine the file so it never re-enters a
    // files-of-interest set, and degrade to an empty partial table so the
    // query still returns every healthy file's rows.
    if (outcome != nullptr) ++outcome->counters.files_failed;
    obs::Tracer::Instant("quarantine", "fault",
                         {{"uri", uri}, {"reason", io.message()}});
    registry_->Quarantine(uri, io.message());
    AddWarning(outcome, "mount of '" + uri + "' failed after " +
                            std::to_string(retry_.max_retries) +
                            " retries: " + io.message() + " (file quarantined)");
    return std::make_shared<Table>(table_name, MakeDataSchema());
  }

  // Extract: parse headers and decode every record (real work), through
  // the repository's format adapter.
  std::vector<mseed::DecodedRecord> decoded;
  mseed::SalvageReport salvage;
  mseed::PruneStats prune_stats;
  if (on_error_ == OnMountError::kSalvage) {
    // Zone-map pruning rides the salvage path only: the strict and
    // skip-file policies promise whole-file semantics (all-or-nothing), and
    // sparse decode is a record-granular degradation by construction.
    std::unique_ptr<mseed::RecordPruner> pruner;
    if (zone_maps_ != nullptr) {
      double lo = -std::numeric_limits<double>::infinity();
      double hi = std::numeric_limits<double>::infinity();
      const bool bounded =
          ExtractBounds(fused_predicate, "sample_value", &lo, &hi);
      const bool record_level =
          bounded && pruning != nullptr && pruning->record_level;
      const bool frame_level =
          bounded && pruning != nullptr && pruning->frame_level;
      // Even without usable bounds the pruner harvests frame stats during
      // the full decode (same pass, free) so the next query can prune.
      pruner = zone_maps_->MakePruner(uri, lo, hi, record_level, frame_level,
                                      /*harvest=*/true);
    }
    auto records =
        pruner != nullptr
            ? format_->ReadAllRecordsPruned(uri, &salvage, pruner.get(),
                                            &prune_stats)
            : format_->ReadAllRecordsSalvage(uri, &salvage);
    if (!records.ok()) {
      // Even the salvaging reader could not deliver the file's bytes.
      if (outcome != nullptr) ++outcome->counters.files_failed;
      obs::Tracer::Instant("quarantine", "fault",
                           {{"uri", uri}, {"reason", records.status().message()}});
      registry_->Quarantine(uri, records.status().message());
      AddWarning(outcome, "salvage of '" + uri +
                              "' failed: " + records.status().ToString() +
                              " (file quarantined)");
      return std::make_shared<Table>(table_name, MakeDataSchema());
    }
    decoded = std::move(*records);
    if (outcome != nullptr) {
      outcome->counters.records_salvaged += salvage.records_salvaged;
      outcome->counters.records_skipped += salvage.records_skipped;
      outcome->counters.records_skipped_zonemap += prune_stats.records_skipped;
      outcome->counters.frames_skipped_zonemap += prune_stats.frames_skipped;
      outcome->counters.frames_decoded_zonemap += prune_stats.frames_decoded;
      outcome->counters.zonemap_fallbacks += prune_stats.fallbacks;
    }
    if (prune_stats.records_skipped > 0 || prune_stats.frames_skipped > 0) {
      obs::Tracer::Instant(
          "zonemap_prune", "prune",
          {{"uri", uri},
           {"records_skipped", std::to_string(prune_stats.records_skipped)},
           {"frames_skipped", std::to_string(prune_stats.frames_skipped)},
           {"fallbacks", std::to_string(prune_stats.fallbacks)}});
    }
    if (salvage.records_salvaged > 0 || salvage.records_skipped > 0) {
      obs::Tracer::Instant(
          "salvage", "fault",
          {{"uri", uri},
           {"salvaged", std::to_string(salvage.records_salvaged)},
           {"skipped", std::to_string(salvage.records_skipped)}});
    }
    for (const std::string& w : salvage.warnings) AddWarning(outcome, w);
  } else {
    auto records = format_->ReadAllRecords(uri);
    if (!records.ok()) {
      if (on_error_ == OnMountError::kFail) {
        return records.status().WithContext("mounting '" + uri + "'");
      }
      // kSkipFile: drop the corrupt file whole. Not quarantined — the bytes
      // are still deliverable, the kSalvage policy could recover from them.
      if (outcome != nullptr) ++outcome->counters.files_skipped;
      obs::Tracer::Instant("skip_file", "fault", {{"uri", uri}});
      AddWarning(outcome, "skipping corrupt file '" + uri +
                              "': " + records.status().ToString());
      return std::make_shared<Table>(table_name, MakeDataSchema());
    }
    decoded = std::move(*records);
  }

  // Transform: comply with the D schema.
  auto table = std::make_shared<Table>(table_name, MakeDataSchema());
  // Intern the uri up front: a fully zone-skipped mount appends no rows, but
  // its table must weigh exactly what an unpruned mount's filtered table
  // weighs (the shared uri dictionary included) — ByteSize feeds the memory
  // budget and the sharded gather's network charge, both under the
  // pruning-cannot-move-the-ledger contract.
  table->mutable_column(0)->dict()->Intern(uri);
  DEX_RETURN_NOT_OK(AppendFileToDataTable(uri, decoded, table.get()));
  for (size_t i = 0; i < decoded.size(); ++i) {
    const mseed::DecodedRecord& rec = decoded[i];
    if (outcome != nullptr) {
      if (!rec.sparse || !rec.samples.empty()) {
        outcome->counters.records_decoded += 1;  // zone-skipped don't count
      }
      outcome->counters.samples_decoded += rec.samples.size();
    }
    if (!collectors_.empty()) {
      // One pass computes the record's value stats for every collector. A
      // sparsely decoded record's samples are partial, so its stats come
      // from its zone map instead — that zone was written by a *full*
      // decode, so DM content is invariant under pruning. No zone (cannot
      // happen for a skip, possible after a fallback) → skip delivery; the
      // next unpruned mount will deliver authoritative stats.
      RecordValueStats values;
      bool have_values = false;
      if (!rec.sparse) {
        const kernel::NumericAgg agg =
            kernel::AggI32(rec.samples.data(), rec.samples.size());
        values.min = agg.min;
        values.max = agg.max;
        values.sum = agg.sum;
        values.count = agg.count;
        have_values = true;
      } else if (zone_maps_ != nullptr) {
        have_values = zone_maps_->GetRecordStats(uri, static_cast<int64_t>(i),
                                                 &values);
      }
      if (have_values) {
        DEX_RETURN_NOT_OK(collectors_.RecordMounted(
            uri, static_cast<int64_t>(i), rec.header, values,
            rec.frame_stats.empty() ? nullptr : &rec.frame_stats,
            static_cast<uint32_t>(decoded.size())));
      }
    }
  }
  if (outcome != nullptr) {
    outcome->counters.mounts += 1;
    outcome->counters.bytes_read += entry.size_bytes;
  }
  span.AddArg("records", static_cast<uint64_t>(decoded.size()));
  span.AddArg("bytes", entry.size_bytes);

  // Combined select-mount: apply the fused selection before handing the
  // partial table to the plan, through the same predicate → selection path
  // as FilterOp (kernels unless the query turned them off).
  TablePtr out = table;
  if (fused_predicate != nullptr) {
    DEX_ASSIGN_OR_RETURN(ExprPtr bound, fused_predicate->Bind(*table->schema()));
    const kernel::PredicateSelector selector(
        std::move(bound), *table->schema(),
        pruning == nullptr || pruning->use_simd_kernels);
    Batch all;
    all.schema = table->schema();
    for (size_t c = 0; c < table->num_columns(); ++c) {
      all.columns.push_back(table->column(c));
    }
    std::vector<uint32_t> selected;
    DEX_RETURN_NOT_OK(selector.Select(&all, &selected));
    // Always a gathered copy, even when every row passes: the copy shares
    // `table`'s uri dictionary and Table::ByteSize splits a shared
    // dictionary between its holders, so handing out `table` itself would
    // change what the cache and the memory budget charge.
    auto filtered = std::make_shared<Table>(table_name, table->schema());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      filtered->mutable_column(c)->AppendGather(*table->column(c), selected);
    }
    DEX_RETURN_NOT_OK(filtered->CommitAppendedRows(selected.size()));
    out = filtered;
  }

  // Offer the mounted data to the cache. File-granular caches want the whole
  // file; tuple-granular caches store exactly what the selection kept. A
  // salvaged file with losses is never cached: its mounted content is not
  // the file's full content, and the file may yet be repaired. Likewise a
  // zone-pruned mount: its table deliberately misses non-matching tuples, so
  // caching it (even predicate-tagged) would let window subsumption serve a
  // subset where the full set was promised. Conservative — pruned mounts
  // simply don't feed the cache.
  if (cache_ != nullptr && salvage.records_skipped == 0 &&
      prune_stats.records_skipped == 0 && prune_stats.frames_skipped == 0) {
    const int64_t mtime = FileMtimeMillis(uri).ValueOr(entry.mtime_ms);
    if (cache_->options().granularity == CacheGranularity::kFile) {
      cache_->Insert(uri, "", mtime, table);
    } else {
      const CachedWindow window = SummarizeTimeWindow(fused_predicate);
      const std::string predicate_repr =
          fused_predicate != nullptr ? fused_predicate->ToString() : "";
      cache_->Insert(uri, predicate_repr, mtime, out, &window);
    }
  }
  return out;
}

Result<TablePtr> Mounter::CacheLookup(const std::string& table_name,
                                      const std::string& uri) {
  if (table_name != kDataTableName) {
    return Status::NotImplemented("no cache mapping for actual table '" +
                                  table_name + "'");
  }
  if (cache_ == nullptr) {
    return Status::Internal("cache-scan without a cache manager");
  }
  auto cached = cache_->Lookup(uri);
  if (cached.ok()) return cached;
  // The entry vanished between planning and execution: spilled to the
  // durable tier under concurrent budget pressure and then refused reload
  // (quarantined as corrupt, or no budget headroom). The selection above
  // this union branch re-applies the query's predicate, so mounting the
  // whole file is a correct — just slower — substitute. The query degrades;
  // it never fails and never sees unvalidated bytes.
  return Mount(table_name, uri, nullptr);
}

}  // namespace dex

// Dimensional telemetry + flight recorder: labeled metric series, histogram
// percentiles, cardinality bounds, and the determinism contract for flight
// dumps — byte-identical across worker counts at a fixed shard count, and
// (sim-stripped) across shard counts.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace dex {
namespace {

using obs::FlightEvent;
using obs::FlightRecorder;
using obs::MetricLabels;
using obs::MetricsRegistry;

TEST(MetricLabels, RenderIsCanonicalAndOrderFixed) {
  MetricLabels labels;
  EXPECT_TRUE(labels.empty());
  EXPECT_EQ(labels.Render(), "");

  labels.shard = 3;
  labels.session = "shell";
  labels.priority = 2;
  labels.query = "probe";
  EXPECT_FALSE(labels.empty());
  // Fixed field order regardless of assignment order.
  EXPECT_EQ(labels.Render(), "{priority=2,query=probe,session=shell,shard=3}");

  MetricLabels partial;
  partial.session = "bench";
  EXPECT_EQ(partial.Render(), "{session=bench}");
}

TEST(MetricLabels, ValuesAreSanitized) {
  MetricLabels labels;
  labels.session = "we{ird,na=me}\n";
  obs::ScopedMetricsReset reset;
  MetricsRegistry::Global().AddCounter("t.sanitize", labels, 1);
  const std::string text = MetricsRegistry::Global().ToText();
  EXPECT_NE(text.find("t.sanitize{session=we_ird_na_me__}"), std::string::npos)
      << text;
}

TEST(MetricsRegistry, LabeledCountersUpdateBaseAndLabeledSeries) {
  obs::ScopedMetricsReset reset;
  auto& m = MetricsRegistry::Global();
  MetricLabels a;
  a.session = "a";
  MetricLabels b;
  b.session = "b";
  m.AddCounter("t.count", a, 3);
  m.AddCounter("t.count", b, 4);
  m.AddCounter("t.count", 1);  // unlabeled update, lands only in the base
  EXPECT_EQ(m.counter("t.count", a), 3u);
  EXPECT_EQ(m.counter("t.count", b), 4u);
  EXPECT_EQ(m.counter("t.count"), 8u);  // base carries the total
}

TEST(MetricsRegistry, LabeledGaugesAreLabeledOnly) {
  obs::ScopedMetricsReset reset;
  auto& m = MetricsRegistry::Global();
  MetricLabels s0;
  s0.shard = 0;
  m.SetGauge("t.gauge", s0, 7.0);
  EXPECT_EQ(m.gauge("t.gauge", s0), 7.0);
  EXPECT_EQ(m.gauge("t.gauge"), 0.0);  // gauges are not summable
}

TEST(MetricsRegistry, LabeledHistogramsUpdateBaseAndLabeled) {
  obs::ScopedMetricsReset reset;
  auto& m = MetricsRegistry::Global();
  MetricLabels p;
  p.priority = 1;
  m.Observe("t.wait", p, 100.0);
  m.Observe("t.wait", p, 200.0);
  EXPECT_EQ(m.histogram("t.wait", p).count, 2u);
  EXPECT_EQ(m.histogram("t.wait").count, 2u);
  EXPECT_EQ(m.histogram("t.wait").sum, 300.0);
}

TEST(MetricsRegistry, HistogramPercentilesFromBuckets) {
  obs::ScopedMetricsReset reset;
  auto& m = MetricsRegistry::Global();
  // A constant distribution: every percentile is clamped to min == max.
  for (int i = 0; i < 100; ++i) m.Observe("t.const", 42.0);
  obs::HistogramSnapshot h = m.histogram("t.const");
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.p50(), 42.0);
  EXPECT_EQ(h.p95(), 42.0);
  EXPECT_EQ(h.p99(), 42.0);

  // A spread distribution: percentiles are monotone, inside [min, max], and
  // the log2 buckets put p99 well above p50.
  for (int i = 1; i <= 1000; ++i) m.Observe("t.spread", static_cast<double>(i));
  h = m.histogram("t.spread");
  EXPECT_EQ(h.count, 1000u);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_GE(h.p50(), h.min);
  EXPECT_LE(h.p99(), h.max);
  // Factor-of-two resolution around the true medians.
  EXPECT_GT(h.p50(), 250.0);
  EXPECT_LT(h.p50(), 1000.0);
  EXPECT_GT(h.p99(), 500.0);

  // Empty histogram: all zeros, no division by zero.
  EXPECT_EQ(m.histogram("t.absent").p99(), 0.0);

  // The text dump renders the percentile columns.
  const std::string text = m.ToText();
  EXPECT_NE(text.find("p50="), std::string::npos) << text;
  EXPECT_NE(text.find("p99="), std::string::npos) << text;
}

TEST(MetricsRegistry, LabelCardinalityBoundFoldsToBase) {
  obs::ScopedMetricsReset reset;
  auto& m = MetricsRegistry::Global();
  const size_t attempts = MetricsRegistry::kMaxLabelSetsPerName + 8;
  for (size_t i = 0; i < attempts; ++i) {
    MetricLabels l;
    l.session = "s" + std::to_string(i);
    m.AddCounter("t.burst", l, 1);
  }
  // Base total is exact regardless of folding.
  EXPECT_EQ(m.counter("t.burst"), attempts);
  // The first kMaxLabelSetsPerName sets exist; the rest folded.
  MetricLabels first;
  first.session = "s0";
  EXPECT_EQ(m.counter("t.burst", first), 1u);
  MetricLabels overflow;
  overflow.session = "s" + std::to_string(attempts - 1);
  EXPECT_EQ(m.counter("t.burst", overflow), 0u);
  EXPECT_EQ(m.counter("obs.labels_dropped"), 8u);
}

TEST(MetricsRegistry, ScopedResetClearsOnEntryAndExit) {
  auto& m = MetricsRegistry::Global();
  m.AddCounter("t.leak", 5);
  {
    obs::ScopedMetricsReset reset;
    EXPECT_EQ(m.counter("t.leak"), 0u);  // cleared on entry
    m.AddCounter("t.leak", 3);
  }
  EXPECT_EQ(m.counter("t.leak"), 0u);  // cleared on exit
}

TEST(FlightRecorder, RecordsSortsAndBoundsTheRing) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Clear();
  FlightEvent e;
  e.kind = "epoch_publish";
  e.detail = "epoch 2";
  rec.Record(std::move(e));
  FlightEvent e2;
  e2.kind = "quarantine";
  e2.shard = 1;
  rec.Record(std::move(e2));
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, "epoch_publish");
  EXPECT_EQ(events[1].kind, "quarantine");
  EXPECT_EQ(events[1].shard, 1);

  // The ring overwrites its oldest entries past the capacity.
  rec.Clear();
  const size_t extra = 76;
  for (size_t i = 0; i < FlightRecorder::kDefaultCapacity + extra; ++i) {
    FlightEvent ev;
    ev.kind = "tick";
    rec.Record(std::move(ev));
  }
  EXPECT_EQ(rec.Snapshot().size(), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(rec.dropped(), extra);
  rec.Clear();
}

TEST(FlightRecorder, DisabledRecorderDropsEvents) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Clear();
  rec.set_enabled(false);
  FlightEvent e;
  e.kind = "tick";
  rec.Record(std::move(e));
  EXPECT_TRUE(rec.Snapshot().empty());
  rec.set_enabled(true);
}

TEST(FlightRecorder, AutoDumpWritesJsonOnlyWithAPath) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Clear();
  rec.set_dump_path("");
  FlightEvent e;
  e.kind = "shed";
  e.session = "s1";
  e.priority = 2;
  rec.Record(std::move(e));
  EXPECT_FALSE(rec.AutoDump("no path set"));

  const std::string path =
      "/tmp/dex_flight_dump_" + std::to_string(::getpid()) + ".json";
  rec.set_dump_path(path);
  EXPECT_TRUE(rec.AutoDump("unit trigger"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  EXPECT_NE(body.find("\"trigger\": \"unit trigger\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\": \"shed\""), std::string::npos);
  EXPECT_NE(body.find("\"session\": \"s1\""), std::string::npos);
  std::remove(path.c_str());
  rec.set_dump_path("");
  rec.Clear();
}

TEST(FlightRecorder, ConcurrentPublicationIsSafeAndTotalsAdd) {
  obs::ScopedMetricsReset reset;
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Clear();
  auto& m = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &rec, t] {
      MetricLabels l;
      l.session = "w" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        m.AddCounter("t.concurrent", l, 1);
        m.Observe("t.conc_wait", l, static_cast<double>(i));
        FlightEvent e;
        e.kind = "tick";
        e.session = l.session;
        rec.Record(std::move(e));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.counter("t.concurrent"),
            static_cast<uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    MetricLabels l;
    l.session = "w" + std::to_string(t);
    EXPECT_EQ(m.counter("t.concurrent", l), static_cast<uint64_t>(kPerThread));
  }
  EXPECT_EQ(m.histogram("t.conc_wait").count,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.Snapshot().size(), FlightRecorder::kDefaultCapacity);
  rec.Clear();
}

// ---------------------------------------------------------------------------
// The determinism contract (DESIGN.md §8.12): the flight dump and the
// deterministic labeled-metric totals are byte-identical at any worker
// count for a fixed shard count; stripped of simulated timestamps, the
// event stream is also identical across shard counts.

struct TelemetryCapture {
  std::string flight_json;
  std::string metrics_digest;
};

/// The simulated-time-deterministic slice of the registry: counts, charged
/// sim time, and labeled series — no wall-clock-valued metrics.
std::string DeterministicMetricsDigest(const MetricLabels& query_labels,
                                       int num_shards) {
  auto& m = MetricsRegistry::Global();
  std::ostringstream out;
  for (const char* name :
       {"query.count", "query.result_rows", "query.sim_io_nanos",
        "stage.files_of_interest", "stage.files_planned_mount",
        "stage.files_quarantined", "stage.mount_tasks",
        "stage.parallel_sim_nanos", "stage.serial_sim_nanos",
        "shard.sharded_queries", "shard.net_sim_nanos",
        "shard.files_skipped_shard", "governance.partial_queries",
        "mount.mounts", "mount.records_decoded", "mount.bytes_read",
        "fault.files_failed", "exec.rows_scanned"}) {
    out << name << "=" << m.counter(name) << "\n";
  }
  out << "query.count" << query_labels.Render() << "="
      << m.counter("query.count", query_labels) << "\n";
  out << "io.sim_nanos=" << m.gauge("io.sim_nanos") << "\n";
  for (int s = 0; s < num_shards; ++s) {
    MetricLabels l;
    l.shard = s;
    out << "shard.net_messages" << l.Render() << "="
        << m.gauge("shard.net_messages", l) << "\n";
    out << "shard.net_bytes" << l.Render() << "="
        << m.gauge("shard.net_bytes", l) << "\n";
  }
  return out.str();
}

/// One deterministic mixed workload: queries, a refresh (epoch publish), a
/// shard kill/heal cycle, and a failing statement. Telemetry state is fully
/// reset before the run, so repeated invocations start from byte-equal
/// initial conditions.
TelemetryCapture RunTelemetryWorkload(const std::string& root, size_t workers,
                                      int num_shards, bool include_sim) {
  obs::Tracer::ResetIdsForTesting();
  // Reset this thread's task-scope sequence so coordinator events re-number
  // from zero each run.
  obs::TaskTraceScope seq_reset(0, 0);
  obs::ScopedMetricsReset metrics_reset;
  FlightRecorder::Global().Clear();

  DatabaseOptions options;
  options.shard.num_shards = num_shards;
  options.two_stage.num_threads = workers;
  auto db_or = Database::Open(root, options);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);

  QueryOptions qopts;
  qopts.session = "determinism";
  qopts.query_label = "probe";

  MetricLabels query_labels;
  query_labels.session = qopts.session;
  query_labels.query = qopts.query_label;
  query_labels.priority = qopts.priority;

  auto r1 = db->Query(
      "SELECT F.station, COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "GROUP BY F.station ORDER BY F.station",
      qopts);
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();

  auto refresh = db->Refresh();
  EXPECT_TRUE(refresh.ok()) << refresh.status().ToString();

  EXPECT_TRUE(db->shards()->KillShard(0).ok());
  auto r2 = db->Query("SELECT COUNT(*) FROM D", qopts);
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(db->shards()->HealShard(0).ok());

  auto bad = db->Query("SELECT nope FROM nothing", qopts);
  EXPECT_FALSE(bad.ok());

  TelemetryCapture capture;
  capture.flight_json = FlightRecorder::Global().ToJson(include_sim);
  capture.metrics_digest = DeterministicMetricsDigest(query_labels, num_shards);
  return capture;
}

TEST(TelemetryDeterminism, DumpAndTotalsIdenticalAcrossWorkerCounts) {
  testing::ScopedRepo repo("obs_workers");
  const int kShards = 4;
  const TelemetryCapture base =
      RunTelemetryWorkload(repo.root(), 1, kShards, /*include_sim=*/true);
  EXPECT_NE(base.flight_json.find("epoch_publish"), std::string::npos)
      << base.flight_json;
  EXPECT_NE(base.flight_json.find("shard_kill"), std::string::npos);
  EXPECT_NE(base.flight_json.find("query_failure"), std::string::npos);
  for (size_t workers : {4u, 8u}) {
    const TelemetryCapture other =
        RunTelemetryWorkload(repo.root(), workers, kShards, true);
    EXPECT_EQ(base.flight_json, other.flight_json)
        << "flight dump diverged at workers=" << workers;
    EXPECT_EQ(base.metrics_digest, other.metrics_digest)
        << "metric totals diverged at workers=" << workers;
  }
}

TEST(TelemetryDeterminism, SimStrippedDumpIdenticalAcrossShardCounts) {
  testing::ScopedRepo repo("obs_shards");
  // Charged sim time legitimately varies with the shard count (network
  // charges scale with the topology), so the cross-shard-count invariant is
  // the *semantic* stream: same events, same order, sim timestamps stripped.
  const TelemetryCapture base =
      RunTelemetryWorkload(repo.root(), 4, 1, /*include_sim=*/false);
  for (int shards : {2, 4}) {
    const TelemetryCapture other =
        RunTelemetryWorkload(repo.root(), 4, shards, false);
    EXPECT_EQ(base.flight_json, other.flight_json)
        << "semantic flight dump diverged at shards=" << shards;
  }
}

}  // namespace
}  // namespace dex

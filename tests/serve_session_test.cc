// The serving layer: admission control, overload shedding, fair scheduling,
// and the deterministic scripted-workload contract.

#include "serve/session_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "mseed/writer.h"
#include "obs/metrics.h"
#include "serve/script.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::serve::BackoffHintNanos;
using ::dex::serve::RunScriptDeterministic;
using ::dex::serve::RunScriptThreaded;
using ::dex::serve::ScriptOp;
using ::dex::serve::ScriptResult;
using ::dex::serve::ServeOptions;
using ::dex::serve::ServeScript;
using ::dex::serve::SessionManager;
using ::dex::serve::SessionOptions;
using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

constexpr const char* kMetaSql = "SELECT COUNT(*) FROM F";
constexpr const char* kJoinSql =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

void SpinUntil(const std::function<bool()>& pred) {
  while (!pred()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(BackoffHint, ParsesTheTokenFromAShedStatus) {
  EXPECT_EQ(BackoffHintNanos(Status::Overloaded(
                "admission queue full (8 waiting); retry later; "
                "backoff_hint_nanos=9000000")),
            9000000u);
  EXPECT_EQ(BackoffHintNanos(Status::Overloaded("no hint here")), 0u);
  EXPECT_EQ(BackoffHintNanos(Status::OK()), 0u);
}

TEST(SessionManager, SubmitRunsQueriesWithSessionDefaults) {
  ScopedRepo repo("serve_basic", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  SessionManager mgr(db->get(), ServeOptions{});

  SessionOptions session;
  session.name = "alice";
  session.priority = ThreadPool::kPriorityInteractive;
  auto id = mgr.OpenSession(session);
  ASSERT_TRUE(id.ok());

  auto r = mgr.Submit(*id, kMetaSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r).stats.result_rows, 1u);
  EXPECT_EQ((*r).stats.epoch, (*db)->current_epoch());

  const SessionManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.sessions_active, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 0u);

  const auto sessions = mgr.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].name, "alice");
  EXPECT_EQ(sessions[0].submitted, 1u);
  EXPECT_FALSE(sessions[0].closed);
}

TEST(SessionManager, UnknownAndClosedSessionsAreRefused) {
  ScopedRepo repo("serve_closed", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  SessionManager mgr(db->get(), ServeOptions{});

  EXPECT_TRUE(mgr.Submit(999, kMetaSql).status().IsNotFound());
  EXPECT_TRUE(mgr.CloseSession(999).IsNotFound());

  auto id = mgr.OpenSession({});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.CloseSession(*id).ok());
  EXPECT_FALSE(mgr.Submit(*id, kMetaSql).ok());
  const auto sessions = mgr.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_TRUE(sessions[0].closed);
  EXPECT_EQ(mgr.stats().sessions_active, 0u);
}

// One query parked at its stage boundary holds the single in-flight slot;
// the next arrival waits; the one after that finds the queue full and is
// shed immediately with a kOverloaded status carrying the backoff hint.
TEST(SessionManager, QueueFullShedsWithBackoffHint) {
  // This test asserts on registry contents, so it must not read counters a
  // prior test in this process published.
  obs::ScopedMetricsReset metrics_reset;
  ScopedRepo repo("serve_shed", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  ServeOptions serve;
  serve.max_inflight = 1;
  serve.queue_depth = 1;
  serve.shed_backoff_base_nanos = 1'000'000;
  SessionManager mgr(db->get(), serve);

  std::promise<void> reached_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  SessionOptions hog;
  hog.name = "hog";
  hog.priority = ThreadPool::kPriorityBackground;
  hog.defaults.breakpoint = [&, released = false](
                                const BreakpointInfo&) mutable {
    if (!released) {
      released = true;
      reached_promise.set_value();
      release.wait();
    }
    return BreakpointDecision::kContinue;
  };
  auto hog_id = mgr.OpenSession(hog);
  ASSERT_TRUE(hog_id.ok());
  SessionOptions inter;
  inter.name = "interactive";
  inter.priority = ThreadPool::kPriorityInteractive;
  inter.max_inflight = 4;
  auto inter_id = mgr.OpenSession(inter);
  ASSERT_TRUE(inter_id.ok());

  std::thread hog_thread([&] {
    auto r = mgr.Submit(*hog_id, kJoinSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  reached_promise.get_future().wait();  // the hog now owns the only slot

  std::thread waiter_thread([&] {
    auto r = mgr.Submit(*inter_id, kMetaSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  SpinUntil([&] { return mgr.stats().queued == 1; });

  // Queue full: shed synchronously, without blocking this thread.
  auto shed = mgr.Submit(*inter_id, kMetaSql);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status().ToString();
  // Hint scales with the queue occupancy seen at shed time (1 waiter).
  EXPECT_EQ(BackoffHintNanos(shed.status()), 2'000'000u);

  release_promise.set_value();
  hog_thread.join();
  waiter_thread.join();

  const SessionManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.waited, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queued, 0u);

  // Shed decisions surface in the metrics registry.
  const std::string metrics = obs::MetricsRegistry::Global().ToText();
  EXPECT_NE(metrics.find("serve.queries_shed"), std::string::npos);
  EXPECT_NE(metrics.find("serve.queue_wait_nanos"), std::string::npos);
}

// Waiters are granted in (priority desc, ticket asc) order: an interactive
// query that arrived *after* a background one still runs first.
TEST(SessionManager, InteractiveWaitersAreGrantedBeforeBackground) {
  ScopedRepo repo("serve_fair", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  ServeOptions serve;
  serve.max_inflight = 1;
  serve.queue_depth = 4;
  SessionManager mgr(db->get(), serve);

  std::promise<void> reached_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  std::mutex order_mu;
  std::vector<std::string> order;

  SessionOptions hog;
  hog.name = "hog";
  hog.priority = ThreadPool::kPriorityBackground;
  hog.defaults.breakpoint = [&, released = false](
                                const BreakpointInfo&) mutable {
    if (!released) {
      released = true;
      reached_promise.set_value();
      release.wait();
    }
    return BreakpointDecision::kContinue;
  };
  auto hog_id = mgr.OpenSession(hog);
  ASSERT_TRUE(hog_id.ok());

  auto tagged = [&](const std::string& name, int priority) {
    SessionOptions s;
    s.name = name;
    s.priority = priority;
    s.defaults.breakpoint = [&, name](const BreakpointInfo&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
      return BreakpointDecision::kContinue;
    };
    auto id = mgr.OpenSession(s);
    EXPECT_TRUE(id.ok());
    return *id;
  };
  const SessionManager::SessionId bg_id =
      tagged("bg", ThreadPool::kPriorityBackground);
  const SessionManager::SessionId it_id =
      tagged("it", ThreadPool::kPriorityInteractive);

  std::thread hog_thread([&] {
    auto r = mgr.Submit(*hog_id, kJoinSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  reached_promise.get_future().wait();

  // Background waiter enqueues first, interactive second.
  std::thread bg_thread([&] {
    auto r = mgr.Submit(bg_id, kJoinSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  SpinUntil([&] { return mgr.stats().queued == 1; });
  std::thread it_thread([&] {
    auto r = mgr.Submit(it_id, kJoinSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  SpinUntil([&] { return mgr.stats().queued == 2; });

  release_promise.set_value();
  hog_thread.join();
  bg_thread.join();
  it_thread.join();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "it");
  EXPECT_EQ(order[1], "bg");
  EXPECT_EQ(mgr.stats().waited, 2u);
}

// Reentrancy regression (run under TSan in CI): concurrent queries that all
// trip over the same dead files race their quarantine writes (FileRegistry
// health marks) and the copy-on-write QUARANTINE-table publishes (epoch
// churn) against each other and against pinned readers. Every query must
// still degrade gracefully, and the registry must converge on exactly the
// set of victims.
TEST(SessionManager, ConcurrentQuarantineWritesConverge) {
  ScopedRepo repo("serve_quarantine", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());

  // Two files go permanently bad before anyone mounts them.
  std::vector<std::string> uris = (*db)->registry()->AllUris();
  ASSERT_GE(uris.size(), 2u);
  std::vector<std::string> victims(uris.begin(), uris.begin() + 2);
  for (const std::string& uri : victims) {
    auto entry = (*db)->registry()->Get(uri);
    ASSERT_TRUE(entry.ok());
    (*db)->disk()->fault_injector()->FailObject(entry->object);
  }
  (*db)->FlushBuffers();

  ServeOptions serve;
  serve.max_inflight = 4;
  serve.queue_depth = 64;  // nothing sheds; every thread's queries run
  SessionManager mgr(db->get(), serve);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SessionOptions session;
      session.name = "racer" + std::to_string(t);
      session.max_inflight = 2;
      auto id = mgr.OpenSession(session);
      if (!id.ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto r = mgr.Submit(*id, kJoinSql);
        if (!r.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The registry converged: exactly the victims are quarantined, and the
  // published QUARANTINE table agrees with it.
  for (const std::string& uri : victims) {
    EXPECT_TRUE((*db)->registry()->IsQuarantined(uri)) << uri;
  }
  auto qcount = (*db)->Query("SELECT COUNT(*) FROM QUARANTINE");
  ASSERT_TRUE(qcount.ok()) << qcount.status().ToString();
  EXPECT_EQ(qcount->table->GetValue(0, 0).int64(),
            static_cast<int64_t>(victims.size()));
  // Post-race queries are clean: the quarantined files are never reselected.
  auto rerun = (*db)->Query(kJoinSql);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->stats.mount.files_failed, 0u);
}

// ---------------------------------------------------------------------------
// Scripted workloads.

/// 3 sessions — a background ingest hog, an interactive explorer, a normal
/// one — against a 2-slot gate with a 2-deep queue. Ops 4 and 5 arrive with
/// both the window and the queue full: deterministically shed.
ServeScript ContendedScript() {
  ServeScript script;
  script.serve.max_inflight = 2;
  script.serve.queue_depth = 2;

  SessionOptions ingest;
  ingest.name = "ingest";
  ingest.priority = ThreadPool::kPriorityBackground;
  ingest.max_inflight = 1;
  SessionOptions alice;
  alice.name = "alice";
  alice.priority = ThreadPool::kPriorityInteractive;
  alice.max_inflight = 4;
  SessionOptions bob;
  bob.name = "bob";
  bob.priority = ThreadPool::kPriorityNormal;
  bob.max_inflight = 4;
  script.sessions = {ingest, alice, bob};

  script.ops = {
      {ScriptOp::Kind::kQuery, 0, kJoinSql},   // 0: running (the hog)
      {ScriptOp::Kind::kQuery, 1, kMetaSql},   // 1: running
      {ScriptOp::Kind::kQuery, 2, kMetaSql},   // 2: queued
      {ScriptOp::Kind::kQuery, 1, kJoinSql},   // 3: queued
      {ScriptOp::Kind::kQuery, 2, kMetaSql},   // 4: shed
      {ScriptOp::Kind::kQuery, 1, kMetaSql},   // 5: shed
      {ScriptOp::Kind::kDrain, 0, ""},
      {ScriptOp::Kind::kRefresh, 0, ""},
      {ScriptOp::Kind::kQuery, 1, kMetaSql},   // 8: post-refresh epoch
      {ScriptOp::Kind::kQuery, 0, kJoinSql},   // 9: post-refresh epoch
  };
  return script;
}

TEST(ServeScript, DeterministicRunIsReproducible) {
  ScopedRepo repo("serve_script_repro", TinyRepoOptions());
  const ServeScript script = ContendedScript();

  ScriptResult results[2];
  for (int run = 0; run < 2; ++run) {
    auto db = Database::Open(repo.root(), {});
    ASSERT_TRUE(db.ok());
    auto r = RunScriptDeterministic(db->get(), script);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results[run] = *r;
  }

  EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
  EXPECT_EQ(results[0].admitted, 6u);
  EXPECT_EQ(results[0].queued, 2u);
  EXPECT_EQ(results[0].shed, 2u);
  EXPECT_EQ(results[0].refreshes, 1u);
  EXPECT_EQ(results[0].final_epoch, 2u);
  EXPECT_LE(results[0].p50_interactive_nanos, results[0].p99_interactive_nanos);

  // Spot-check the shed ops: kOverloaded, hint scaled by queue occupancy.
  const auto& outcomes = results[0].outcomes;
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_TRUE(outcomes[4].shed);
  EXPECT_EQ(outcomes[4].status, StatusCode::kOverloaded);
  EXPECT_EQ(outcomes[4].backoff_hint_nanos,
            script.serve.shed_backoff_base_nanos * 3);
  EXPECT_TRUE(outcomes[5].shed);
  EXPECT_TRUE(outcomes[2].queued);
  EXPECT_TRUE(outcomes[3].queued);
  // Pre-refresh admissions ran on epoch 1, post-refresh ones on epoch 2.
  EXPECT_EQ(outcomes[0].epoch, 1u);
  EXPECT_EQ(outcomes[6].epoch, 2u);
  EXPECT_EQ(outcomes[7].epoch, 2u);
}

TEST(ServeScript, DeterministicRunIsWorkerCountInvariant) {
  ScopedRepo repo("serve_script_workers", TinyRepoOptions());
  const ServeScript script = ContendedScript();

  // Only the *physical* pool size varies. The logical time model — the lane
  // count sim charges are list-scheduled onto (`two_stage.num_threads`) — is
  // part of the workload and stays pinned: charged latency may depend on how
  // much overlap you model, never on how many OS threads you have.
  ScriptResult results[2];
  const size_t worker_counts[2] = {1, 8};
  for (int run = 0; run < 2; ++run) {
    DatabaseOptions opts;
    opts.pool_threads = worker_counts[run];
    opts.two_stage.num_threads = 2;  // logical lanes: fixed
    opts.stage1_threads = worker_counts[run];
    auto db = Database::Open(repo.root(), opts);
    ASSERT_TRUE(db.ok());
    // Drop the buffers Open()'s header scan left resident so every mount
    // charges real sim time — otherwise invariance would hold trivially.
    (*db)->FlushBuffers();
    auto r = RunScriptDeterministic(db->get(), script);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results[run] = *r;
  }
  // Bit-identical: per-query results, shed decisions, epochs, charged sim
  // I/O, and the virtual latency timeline all survive the 1 -> 8 jump.
  EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
  // Non-trivial: at least one admitted query actually paid for I/O.
  uint64_t max_sim = 0;
  for (const auto& o : results[0].outcomes) {
    max_sim = std::max(max_sim, o.sim_io_nanos);
  }
  EXPECT_GT(max_sim, 0u);
}

TEST(ServeScript, RefreshMidScriptIsSnapshotIsolated) {
  ScopedRepo repo("serve_script_refresh", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto before = (*db)->Query(kMetaSql);
  ASSERT_TRUE(before.ok());
  const int64_t files_before = before->table->GetValue(0, 0).int64();

  // New data lands *after* open; the script's kRefresh publishes it.
  ASSERT_TRUE(mseed::WriteFile(repo.root() + "/NEW/OR.NEW.BHE.000.mseed",
                               [] {
                                 mseed::RecordData rec;
                                 rec.network = "OR";
                                 rec.station = "NEWSTA";
                                 rec.channel = "BHE";
                                 rec.location = "00";
                                 rec.start_time_ms = 1262304000000LL;
                                 rec.sample_rate_hz = 1.0;
                                 for (int i = 0; i < 30; ++i)
                                   rec.samples.push_back(i);
                                 return std::vector<mseed::RecordData>{rec};
                               }())
                  .ok());

  ServeScript script;
  script.serve.max_inflight = 2;
  script.serve.queue_depth = 4;
  SessionOptions s;
  s.name = "explorer";
  s.max_inflight = 4;
  script.sessions = {s};
  script.ops = {
      {ScriptOp::Kind::kQuery, 0, kMetaSql},    // admitted pre-refresh
      {ScriptOp::Kind::kRefresh, 0, ""},        // publishes epoch 2
      {ScriptOp::Kind::kQuery, 0, kMetaSql},    // admitted post-refresh
  };
  auto r = RunScriptDeterministic(db->get(), script);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The first query was admitted before the refresh: although it executes
  // after the publish (at the final drain), it sees the pre-refresh file
  // count. The second sees the post-refresh count.
  ASSERT_EQ(r->outcomes.size(), 2u);
  EXPECT_EQ(r->outcomes[0].epoch, 1u);
  EXPECT_EQ(r->outcomes[1].epoch, 2u);
  EXPECT_NE(r->outcomes[0].result_hash, r->outcomes[1].result_hash);

  auto after = (*db)->Query(kMetaSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->table->GetValue(0, 0).int64(), files_before + 1);
}

// Threaded mode exercises the real gate under contention (the TSan stress
// target). With a queue deep enough that nothing sheds, every query's
// result must match the deterministic run bit for bit.
TEST(ServeScript, ThreadedRunMatchesDeterministicResults) {
  ScopedRepo repo("serve_script_threaded", TinyRepoOptions());
  ServeScript script;
  script.serve.max_inflight = 2;
  script.serve.queue_depth = 64;  // nothing sheds
  SessionOptions ingest;
  ingest.name = "ingest";
  ingest.priority = ThreadPool::kPriorityBackground;
  SessionOptions alice;
  alice.name = "alice";
  alice.priority = ThreadPool::kPriorityInteractive;
  alice.max_inflight = 4;
  script.sessions = {ingest, alice};
  for (int i = 0; i < 4; ++i) {
    script.ops.push_back({ScriptOp::Kind::kQuery, 0, kJoinSql});
    script.ops.push_back({ScriptOp::Kind::kQuery, 1, kMetaSql});
    script.ops.push_back({ScriptOp::Kind::kQuery, 1, kJoinSql});
  }

  auto db_det = Database::Open(repo.root(), {});
  ASSERT_TRUE(db_det.ok());
  auto det = RunScriptDeterministic(db_det->get(), script);
  ASSERT_TRUE(det.ok()) << det.status().ToString();

  auto db_thr = Database::Open(repo.root(), {});
  ASSERT_TRUE(db_thr.ok());
  auto thr = RunScriptThreaded(db_thr->get(), script);
  ASSERT_TRUE(thr.ok()) << thr.status().ToString();

  ASSERT_EQ(det->outcomes.size(), thr->outcomes.size());
  EXPECT_EQ(det->shed, 0u);
  EXPECT_EQ(thr->shed, 0u);
  EXPECT_EQ(thr->admitted, det->admitted);
  for (size_t i = 0; i < det->outcomes.size(); ++i) {
    EXPECT_EQ(det->outcomes[i].status, thr->outcomes[i].status) << i;
    EXPECT_EQ(det->outcomes[i].epoch, thr->outcomes[i].epoch) << i;
    EXPECT_EQ(det->outcomes[i].result_hash, thr->outcomes[i].result_hash) << i;
    EXPECT_EQ(det->outcomes[i].result_rows, thr->outcomes[i].result_rows) << i;
    // Charged sim I/O is *not* compared: which join pays the cold mount and
    // which hits the cache depends on real execution order in threaded mode.
  }
}

}  // namespace
}  // namespace dex

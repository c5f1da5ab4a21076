#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "test_util.h"

namespace dex {
namespace {

using dex::testing::CanonicalRows;
using dex::testing::ScopedRepo;
using dex::testing::TinyRepoOptions;

const std::string kColdScan =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

/// Opens the repo fresh, runs the cold scan, and returns the
/// order-insensitive result rows plus the simulated I/O charged.
std::pair<std::vector<std::string>, uint64_t> RunColdScan(
    const std::string& root, size_t workers) {
  DatabaseOptions options;
  options.two_stage.num_threads = workers;
  auto db = Database::Open(root, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  (*db)->FlushBuffers();  // metadata scan left the files resident
  auto result = (*db)->Query(kColdScan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {CanonicalRows(*result->table), result->stats.sim_io_nanos};
}

/// Drained span stream reduced to what must be deterministic: non-instant
/// spans of the query/mount categories, as "name" or "name:uri" lines.
std::vector<std::string> LifecycleSignature(const std::vector<obs::Span>& spans) {
  std::vector<std::string> out;
  for (const obs::Span& s : spans) {
    if (s.instant) continue;
    if (s.category != std::string("query") && s.category != std::string("mount")) {
      continue;
    }
    std::string line = s.name;
    for (const obs::SpanArg& arg : s.args) {
      if (arg.key == "uri") line += ":" + arg.value;
    }
    out.push_back(std::move(line));
  }
  return out;
}

class TraceDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
  }
};

TEST_F(TraceDeterminismTest, ResultsAndSimTimeIdenticalWithTracingOnAndOff) {
  ScopedRepo repo("trace_det_onoff", TinyRepoOptions());
  for (size_t workers : {size_t{1}, size_t{8}}) {
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
    const auto off = RunColdScan(repo.root(), workers);

    obs::Tracer::Global().set_enabled(true);
    const auto on = RunColdScan(repo.root(), workers);
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();

    EXPECT_EQ(off.first, on.first) << "workers=" << workers;
    EXPECT_EQ(off.second, on.second)
        << "sim_io_nanos must be bit-identical with tracing on, workers="
        << workers;
    EXPECT_GT(off.second, 0u);
  }
}

TEST_F(TraceDeterminismTest, SimTimeStaysDeterministicAcrossRunsWhileTraced) {
  // Parallel mounting legitimately *shrinks* sim I/O (the critical path
  // replaces the serial sum); what tracing must not break is that results
  // match across worker counts and that the accounting is reproducible.
  ScopedRepo repo("trace_det_workers", TinyRepoOptions());
  obs::Tracer::Global().set_enabled(true);
  const auto one = RunColdScan(repo.root(), 1);
  const auto eight_a = RunColdScan(repo.root(), 8);
  const auto eight_b = RunColdScan(repo.root(), 8);
  EXPECT_EQ(one.first, eight_a.first);
  EXPECT_EQ(eight_a.first, eight_b.first);
  EXPECT_EQ(eight_a.second, eight_b.second)
      << "deterministic sim accounting must survive tracing";
  EXPECT_LT(eight_a.second, one.second)
      << "8 workers should beat the serial critical path on 8 uniform files";
}

TEST_F(TraceDeterminismTest, GoldenLifecycleRunsEachMountInATaskAtOneLane) {
  ScopedRepo repo("trace_golden", TinyRepoOptions());
  DatabaseOptions options;
  options.two_stage.num_threads = 1;
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);
  (*db)->FlushBuffers();

  obs::Tracer::Global().set_enabled(true);
  obs::Tracer::Global().Clear();  // drop the Open() spans, keep the query's
  auto result = (*db)->Query(kColdScan);
  DEX_ASSERT_OK(result);
  const auto spans = obs::Tracer::Global().Drain();
  obs::Tracer::Global().set_enabled(false);

  std::vector<std::string> names;
  for (const std::string& line : LifecycleSignature(spans)) {
    names.push_back(line.substr(0, line.find(':')));
  }
  // The golden single-lane lifecycle: the query umbrella, the three
  // planning phases, then stage 2, which admits every file (8 files) as a
  // mount task wrapping its mount. Drain order is open order, so the
  // umbrella sorts first.
  std::vector<std::string> expected = {"query",   "parse_bind", "optimize",
                                       "stage1",  "rewrite",    "stage2"};
  for (int file = 0; file < 8; ++file) {
    expected.push_back("mount_task");
    expected.push_back("mount");
  }
  EXPECT_EQ(names, expected);

  // Every mount span names its file, and stage-1/rewrite/stage-2 spans are
  // parented under the query span.
  uint64_t query_id = 0;
  for (const obs::Span& s : spans) {
    if (s.name == "query") query_id = s.id;
  }
  ASSERT_NE(query_id, 0u);
  size_t mounts_with_uri = 0;
  for (const obs::Span& s : spans) {
    if (s.instant) continue;
    if (s.name == "mount") {
      for (const obs::SpanArg& arg : s.args) {
        if (arg.key == "uri" && !arg.value.empty()) ++mounts_with_uri;
      }
    }
    if (s.name == "stage1" || s.name == "rewrite" || s.name == "stage2") {
      EXPECT_EQ(s.parent_id, query_id) << s.name;
    }
  }
  EXPECT_EQ(mounts_with_uri, 8u);
}

TEST_F(TraceDeterminismTest, ParallelTraceIsReproducibleRunToRun) {
  ScopedRepo repo("trace_det_rerun", TinyRepoOptions());
  std::vector<std::string> first;
  std::vector<std::string> second;
  for (int run = 0; run < 2; ++run) {
    DatabaseOptions options;
    options.two_stage.num_threads = 8;
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    (*db)->FlushBuffers();
    obs::Tracer::Global().set_enabled(true);
    obs::Tracer::Global().Clear();
    auto result = (*db)->Query(kColdScan);
    DEX_ASSERT_OK(result);
    auto sig = LifecycleSignature(obs::Tracer::Global().Drain());
    obs::Tracer::Global().set_enabled(false);
    (run == 0 ? first : second) = std::move(sig);
  }
  ASSERT_FALSE(first.empty());
  // Even with 8 OS threads racing, the drained stream is identical run to
  // run: task roots carry spawn-time order keys, not completion order.
  EXPECT_EQ(first, second);

  // Both task wrappers and per-file mounts appear, once per file.
  size_t mount_tasks = 0;
  size_t mounts = 0;
  for (const std::string& line : first) {
    if (line.rfind("mount_task", 0) == 0) ++mount_tasks;
    if (line.rfind("mount:", 0) == 0) ++mounts;
  }
  EXPECT_EQ(mount_tasks, 8u);
  EXPECT_EQ(mounts, 8u);
}

}  // namespace
}  // namespace dex

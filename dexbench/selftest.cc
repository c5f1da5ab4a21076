// Self-tests of the benchmark's own helpers: the percentile rule, the seeded
// generators' determinism and the span self-time arithmetic.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace dexbench {

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(Percentile(v, 50) == 50, "p50 of 1..100 is 50");
  Check(Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Check(Percentile(v, 100) == 100, "p100 is the maximum");
  Check(Percentile({}, 50) == 0, "percentile of nothing is 0");
  Check(Percentile({7}, 99) == 7, "percentile of one sample is that sample");
  Check(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Check(TailSupported(1000, 99), "p99 is supported by 1000 samples");
  Check(!TailSupported(999, 99), "p99 is not supported by 999 samples");
  Check(!TailSupported(100, 99), "p99 is not supported by 100 samples");
  Check(TailSupported(200, 95), "p95 is supported by 200 samples");
  Check(!TailSupported(199, 95), "p95 is not supported by 199 samples");
}

void TestRngDeterminism() {
  Rng a(7), b(7), c(8);
  bool same = true, differs = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = a.Next();
    same = same && x == b.Next();
    differs = differs || x != c.Next();
  }
  Check(same, "one seed gives one stream");
  Check(differs, "another seed gives another stream");
  Rng s(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 20000; ++i) ++counts[s.Skewed(6, 1.1)];
  Check(counts[0] > 2 * counts[5], "skewed picks prefer low indices");
  Check(counts[5] > 0, "skewed picks still reach the last index");
}

std::vector<std::string> Fingerprint(const Workload& w) {
  std::vector<std::string> out;
  for (const Op& op : w.ops) {
    out.push_back(std::to_string(static_cast<int>(op.kind)) + "|" + op.label +
                  "|" + op.sql + "|" + std::to_string(op.day) + "|" +
                  std::to_string(op.files.size()));
  }
  return out;
}

void TestWorkloadDeterminism() {
  for (const char* name : {"explore", "sweep", "ingest"}) {
    Workload a, b, c;
    std::string err;
    Check(MakeWorkload(name, 5, &a, &err) && MakeWorkload(name, 5, &b, &err) &&
              MakeWorkload(name, 6, &c, &err),
          std::string(name) + " builds");
    Check(!a.ops.empty(), std::string(name) + " has operations");
    Check(Fingerprint(a) == Fingerprint(b),
          std::string(name) + ": one seed gives one operation sequence");
    Check(Fingerprint(a) != Fingerprint(c),
          std::string(name) + ": another seed gives another sequence");
  }
  Workload w;
  std::string err;
  Check(!MakeWorkload("nope", 1, &w, &err), "unknown workloads are refused");
}

Span S(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimes() {
  // Children laid end to end: their self times plus the parent's add up to
  // the parent's duration.
  {
    const std::vector<Span> spans = {S(1, 0, 0, 100), S(2, 1, 0, 20),
                                     S(3, 1, 20, 50), S(4, 1, 50, 90)};
    const auto self = SelfTimes(spans);
    Check(self[0] == 10, "parent keeps the uncovered tail");
    Check(self[0] + self[1] + self[2] + self[3] == 100,
          "sequential self times sum to the parent");
  }
  // Overlapping children count once; a child running past the parent is
  // clipped; a grandchild reduces only its own parent.
  {
    const std::vector<Span> spans = {S(1, 0, 0, 100), S(2, 1, 10, 30),
                                     S(3, 1, 20, 50), S(4, 1, 90, 120),
                                     S(5, 2, 15, 20)};
    const auto self = SelfTimes(spans);
    Check(self[0] == 50, "overlap and overhang are counted once and clipped");
    Check(self[1] == 15, "a grandchild reduces its own parent");
    Check(self[2] == 30 && self[3] == 30 && self[4] == 5,
          "leaves keep their whole duration");
  }
  // A span whose parent is unknown is a root.
  {
    const std::vector<Span> spans = {S(1, 99, 0, 10)};
    Check(SelfTimes(spans)[0] == 10, "orphans are roots");
  }
}

}  // namespace

int RunSelfTest() {
  TestPercentileRule();
  TestRngDeterminism();
  TestWorkloadDeterminism();
  TestSelfTimes();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace dexbench

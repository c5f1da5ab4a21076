// Helpers of the benchmark program that do not depend on dex: the seeded
// generator, the percentile rule and the span self-time arithmetic. Kept
// apart so the self-test (selftest.cc) can check them in isolation.
#ifndef DEXBENCH_HARNESS_H_
#define DEXBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dexbench {

/// SplitMix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n); n must be positive.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

  /// Index in [0, n) drawn with weight 1 / (i + 1)^skew, so low indices are
  /// preferred: a scientist returns to a few stations and days far more
  /// often than to the rest.
  size_t Skewed(size_t n, double skew) {
    std::vector<double> cdf(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf[i] = total;
    }
    const double u = Uniform() * total;
    for (size_t i = 0; i < n; ++i) {
      if (u < cdf[i]) return i;
    }
    return n - 1;
  }

 private:
  uint64_t state_;
};

/// Nearest-rank percentile `pct` (1..100) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, int pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;  // ceil(pct*n/100)
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

/// Samples ranked strictly above the nearest-rank percentile `pct`.
inline size_t SamplesBeyond(size_t n, int pct) {
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  return n - rank;
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; otherwise it would be the run's maximum in disguise.
inline bool TailSupported(size_t n, int pct) {
  return SamplesBeyond(n, pct) >= 10;
}

/// One timed interval. Spans of one operation share a parent chain; a span
/// with parent 0 is a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent, and
/// overlapping children count once). Returned in the order of `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  uint64_t Add(const std::string& name, uint64_t parent, int64_t start_ns,
               int64_t end_ns) {
    Span s;
    s.id = ++last_id_;
    s.parent = parent;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
    return last_id_;
  }

  /// Sets the end of span `id`, for a span opened before its end was known.
  void Close(uint64_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  std::string ToChromeJson() const {
    std::string out = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
      out += "\"ts\":" + std::to_string(s.start_ns / 1000) + ",";
      out += "\"dur\":" + std::to_string(s.duration() / 1000) + ",";
      out += "\"args\":{\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) + "}}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
  }

 private:
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace dexbench

#endif  // DEXBENCH_HARNESS_H_

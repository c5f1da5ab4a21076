#ifndef DEX_TESTS_TEST_UTIL_H_
#define DEX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "io/file_io.h"
#include "mseed/generator.h"

namespace dex::testing {

/// Asserts a Status/Result is OK with a useful message.
#define DEX_ASSERT_OK(expr)                                \
  do {                                                     \
    const auto& _r = (expr);                               \
    ASSERT_TRUE(_r.ok()) << _r.status().ToString();        \
  } while (false)

#define DEX_EXPECT_OK(expr)                                \
  do {                                                     \
    const auto& _r = (expr);                               \
    EXPECT_TRUE(_r.ok()) << _r.status().ToString();        \
  } while (false)

#define DEX_ASSERT_STATUS_OK(expr)                         \
  do {                                                     \
    const ::dex::Status _s = (expr);                       \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                 \
  } while (false)

/// A tiny deterministic repository for fast tests: 2 stations x 2 channels
/// x 2 days, low sample rate (fast to generate and mount).
inline mseed::GeneratorOptions TinyRepoOptions() {
  mseed::GeneratorOptions gen;
  gen.seed = 7;
  gen.num_stations = 2;
  gen.channels_per_station = 2;
  gen.num_days = 2;
  gen.records_per_file = 3;
  gen.sample_rate_hz = 0.01;  // 864 samples/day/file
  gen.gap_probability = 0.0;
  gen.start_day = "2010-01-01";
  return gen;
}

/// A somewhat larger repository for equivalence sweeps.
inline mseed::GeneratorOptions SmallRepoOptions() {
  mseed::GeneratorOptions gen = TinyRepoOptions();
  gen.num_stations = 3;
  gen.channels_per_station = 3;
  gen.num_days = 3;
  gen.sample_rate_hz = 0.02;
  gen.gap_probability = 0.05;
  return gen;
}

/// Scoped temp repository: generates at construction, removes at destruction.
/// The root is suffixed with the pid so suites sharing a fixture name do not
/// collide when ctest runs their per-test processes in parallel.
class ScopedRepo {
 public:
  explicit ScopedRepo(const std::string& name,
                      const mseed::GeneratorOptions& gen = TinyRepoOptions())
      : root_("/tmp/dex_test_" + name + "_" + std::to_string(::getpid())) {
    (void)RemoveDirRecursive(root_);
    auto repo = mseed::GenerateRepository(root_, gen);
    EXPECT_TRUE(repo.ok()) << repo.status().ToString();
    if (repo.ok()) info_ = *repo;
  }
  ~ScopedRepo() { (void)RemoveDirRecursive(root_); }

  const std::string& root() const { return root_; }
  const mseed::GeneratedRepo& info() const { return info_; }

 private:
  std::string root_;
  mseed::GeneratedRepo info_;
};

/// Opens the repo twice — lazily (ALi) and eagerly (Ei) — for equivalence
/// testing.
struct DualDatabase {
  std::unique_ptr<Database> ali;
  std::unique_ptr<Database> ei;
};

inline DualDatabase OpenDual(const std::string& root,
                             DatabaseOptions lazy_opts = {},
                             DatabaseOptions eager_opts = {}) {
  DualDatabase dual;
  lazy_opts.mode = IngestionMode::kLazy;
  eager_opts.mode = IngestionMode::kEager;
  auto ali = Database::Open(root, lazy_opts);
  auto ei = Database::Open(root, eager_opts);
  EXPECT_TRUE(ali.ok()) << ali.status().ToString();
  EXPECT_TRUE(ei.ok()) << ei.status().ToString();
  if (ali.ok()) dual.ali = std::move(*ali);
  if (ei.ok()) dual.ei = std::move(*ei);
  return dual;
}

/// Renders a table as rows of cell strings, in table order. Doubles are
/// rounded to 9 significant digits to absorb summation-order differences.
inline std::vector<std::string> RowStrings(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value v = table.GetValue(r, c);
      if (v.type() == DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v.dbl());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// RowStrings, sorted, so results can be compared independent of row order.
inline std::vector<std::string> CanonicalRows(const Table& table) {
  std::vector<std::string> rows = RowStrings(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Asserts the two databases produce identical (order-insensitive) results.
inline void ExpectSameResults(Database* ali, Database* ei,
                              const std::string& sql) {
  auto a = ali->Query(sql);
  auto e = ei->Query(sql);
  ASSERT_TRUE(a.ok()) << "ALi failed: " << a.status().ToString() << "\n" << sql;
  ASSERT_TRUE(e.ok()) << "Ei failed: " << e.status().ToString() << "\n" << sql;
  EXPECT_EQ(a->table->num_rows(), e->table->num_rows()) << sql;
  EXPECT_EQ(CanonicalRows(*a->table), CanonicalRows(*e->table)) << sql;
}

}  // namespace dex::testing

#endif  // DEX_TESTS_TEST_UTIL_H_

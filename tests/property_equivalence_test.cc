// Randomized property tests: for *generated* queries, automated lazy
// ingestion must return exactly what eager ingestion returns, under every
// run-time-optimization configuration. This is the system's load-bearing
// invariant (the paper: "the queries are the same as in the case where the
// database is eagerly loaded with all data up-front").

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::CanonicalRows;
using ::dex::testing::ScopedRepo;
using ::dex::testing::SmallRepoOptions;

/// Generates a random exploration query over the F/R/D schema. `extended`
/// adds the aggregate shapes a run-folding aggregate takes or refuses:
/// MIN/MAX of the int-backed D.sample_time, SUM(D.sample_value), a
/// build-side F.channel group and a probe-side D.record_id group.
std::string GenerateQuery(Random* rng, bool extended) {
  const char* stations[] = {"ISK", "ANK", "IZM", "NOPE"};
  const char* channels[] = {"BHE", "BHN", "BHZ"};
  const char* days[] = {"2010-01-01", "2010-01-02", "2010-01-03"};

  std::vector<std::string> where;
  if (rng->NextBool(0.7)) {
    std::string in = "F.station IN (";
    const int k = 1 + static_cast<int>(rng->Uniform(2));
    for (int i = 0; i < k; ++i) {
      if (i) in += ", ";
      in += "'" + std::string(stations[rng->Uniform(4)]) + "'";
    }
    where.push_back(in + ")");
  }
  if (rng->NextBool(0.5)) {
    where.push_back("F.channel = '" + std::string(channels[rng->Uniform(3)]) +
                    "'");
  }
  const bool with_r = rng->NextBool(0.6);
  if (with_r && rng->NextBool(0.6)) {
    const std::string day = days[rng->Uniform(3)];
    where.push_back("R.start_time BETWEEN '" + day + "T00:00:00.000' AND '" +
                    day + "T23:59:59.999'");
  }
  if (rng->NextBool(0.4)) {
    where.push_back("D.sample_time > '2010-01-0" +
                    std::to_string(1 + rng->Uniform(3)) + "T0" +
                    std::to_string(rng->Uniform(9)) + ":00:00.000'");
  }
  if (rng->NextBool(0.4)) {
    where.push_back("D.sample_value > " + std::to_string(
                        rng->UniformRange(-50, 2000)));
  }

  std::string from = "FROM F ";
  if (with_r) {
    from +=
        "JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id ";
  } else {
    from += "JOIN D ON F.uri = D.uri ";
  }

  std::string select;
  std::string group;
  switch (rng->Uniform(extended ? 7 : 4)) {
    case 0:
      select = "SELECT COUNT(*) ";
      break;
    case 1:
      select = "SELECT AVG(D.sample_value), COUNT(*) ";
      break;
    case 2:
      select =
          "SELECT F.station, MIN(D.sample_value) AS lo, "
          "MAX(D.sample_value) AS hi ";
      group = "F.station";
      break;
    case 3:
      select = "SELECT F.station, COUNT(*) AS n ";
      group = "F.station";
      break;
    case 4:
      select =
          "SELECT MIN(D.sample_time), MAX(D.sample_time), "
          "SUM(D.sample_value), COUNT(*) ";
      break;
    case 5:
      select =
          "SELECT F.channel, MIN(D.sample_time) AS t0, "
          "MAX(D.sample_time) AS t1, SUM(D.sample_value) AS s ";
      group = "F.channel";
      break;
    default:
      select = "SELECT D.record_id, COUNT(*) AS n, SUM(D.sample_value) AS s ";
      group = "D.record_id";
      break;
  }
  std::string tail;
  if (!group.empty()) tail = "GROUP BY " + group + " ORDER BY " + group + " ";

  std::string sql = select + from;
  for (size_t i = 0; i < where.size(); ++i) {
    sql += (i == 0 ? "WHERE " : "AND ") + where[i] + " ";
  }
  return sql + tail + ";";
}

class RandomizedEquivalence : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    repo_ = new ScopedRepo("property_equiv", SmallRepoOptions());
    auto ei = Database::Open(repo_->root(), [] {
      DatabaseOptions o;
      o.mode = IngestionMode::kEager;
      return o;
    }());
    ASSERT_TRUE(ei.ok());
    ei_ = new std::unique_ptr<Database>(std::move(*ei));

    // A spread of lazy configurations that must all agree.
    static const char* kLabels[] = {"default",   "no-pushdown", "strategy-b",
                                    "cache-all", "tuple-cache", "batched",
                                    "kernels-off"};
    labels_ = kLabels;
    std::vector<DatabaseOptions> configs(7);
    configs[1].two_stage.push_selection_into_union = false;
    configs[2].two_stage.distribute_join_over_union = true;
    configs[3].cache.policy = CachePolicy::kAll;
    configs[4].cache.policy = CachePolicy::kAll;
    configs[4].cache.granularity = CacheGranularity::kTuple;
    configs[5].two_stage.mount_batch_size = 2;
    // The row-at-a-time twin the benchmark's reference database runs.
    configs[6].two_stage.pruning.use_simd_kernels = false;
    alis_ = new std::vector<std::unique_ptr<Database>>();
    for (DatabaseOptions& o : configs) {
      o.mode = IngestionMode::kLazy;
      auto db = Database::Open(repo_->root(), o);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      alis_->push_back(std::move(*db));
    }
  }
  static void TearDownTestSuite() {
    delete alis_;
    alis_ = nullptr;
    delete ei_;
    ei_ = nullptr;
    delete repo_;
    repo_ = nullptr;
  }

  static ScopedRepo* repo_;
  static std::unique_ptr<Database>* ei_;
  static std::vector<std::unique_ptr<Database>>* alis_;
  static const char* const* labels_;
};

ScopedRepo* RandomizedEquivalence::repo_ = nullptr;
std::unique_ptr<Database>* RandomizedEquivalence::ei_ = nullptr;
std::vector<std::unique_ptr<Database>>* RandomizedEquivalence::alis_ = nullptr;
const char* const* RandomizedEquivalence::labels_ = nullptr;

TEST_P(RandomizedEquivalence, AllConfigurationsAgreeWithEager) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  // Seeds from 24 on also generate the extended aggregate shapes.
  const std::string sql = GenerateQuery(&rng, /*extended=*/GetParam() >= 24);
  auto expected = (*ei_)->Query(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n" << sql;
  const auto expected_rows = CanonicalRows(*expected->table);
  for (size_t c = 0; c < alis_->size(); ++c) {
    auto got = (*alis_)[c]->Query(sql);
    ASSERT_TRUE(got.ok()) << labels_[c] << ": " << got.status().ToString()
                          << "\n" << sql;
    EXPECT_EQ(CanonicalRows(*got->table), expected_rows)
        << "config '" << labels_[c] << "' diverged on:\n" << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence, ::testing::Range(0, 40));

}  // namespace
}  // namespace dex

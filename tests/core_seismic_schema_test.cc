#include "core/seismic_schema.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

namespace dex {
namespace {

// Per-row reference for the column-at-a-time builder: one dictionary probe
// and one checked append per cell.
void AppendRecordPerRow(const std::string& uri, int64_t record_id,
                        const mseed::DecodedRecord& record, Table* table) {
  const double rate = record.header.sample_rate_hz;
  const int64_t t0 = record.header.start_time_ms;
  for (size_t i = 0; i < record.samples.size(); ++i) {
    const size_t idx = record.sparse ? record.sample_index[i] : i;
    table->mutable_column(0)->AppendString(uri);
    table->mutable_column(1)->AppendInt64(record_id);
    table->mutable_column(2)->AppendInt64(
        t0 + static_cast<int64_t>(static_cast<double>(idx) * 1000.0 / rate));
    table->mutable_column(3)->AppendDouble(
        static_cast<double>(record.samples[i]));
  }
  ASSERT_TRUE(table->CommitAppendedRows(record.samples.size()).ok());
}

void AppendFilePerRow(const std::string& uri,
                      const std::vector<mseed::DecodedRecord>& records,
                      Table* table) {
  for (size_t r = 0; r < records.size(); ++r) {
    AppendRecordPerRow(uri, static_cast<int64_t>(r), records[r], table);
  }
}

mseed::DecodedRecord DenseRecord(Random* rng, int64_t start_ms, double rate,
                                 size_t n) {
  mseed::DecodedRecord rec;
  rec.header.start_time_ms = start_ms;
  rec.header.sample_rate_hz = rate;
  for (size_t i = 0; i < n; ++i) {
    rec.samples.push_back(static_cast<int32_t>(rng->UniformRange(-5000, 5000)));
  }
  return rec;
}

/// A frame-skipped record: the values that survived, each at its original
/// sample index.
mseed::DecodedRecord SparseRecord(Random* rng, int64_t start_ms, double rate,
                                  const std::vector<uint32_t>& index) {
  mseed::DecodedRecord rec = DenseRecord(rng, start_ms, rate, index.size());
  rec.sparse = true;
  rec.sample_index = index;
  return rec;
}

/// A record the zone maps skipped whole: its slot stays, with no samples.
mseed::DecodedRecord SkippedRecord(int64_t start_ms, double rate) {
  mseed::DecodedRecord rec;
  rec.header.start_time_ms = start_ms;
  rec.header.sample_rate_hz = rate;
  rec.sparse = true;
  return rec;
}

void ExpectIdentical(const Table& built, const Table& reference,
                     const std::string& what) {
  ASSERT_EQ(built.num_rows(), reference.num_rows()) << what;
  for (size_t c = 0; c < reference.num_columns(); ++c) {
    ASSERT_EQ(built.column(c)->size(), reference.num_rows()) << what;
  }
  for (size_t r = 0; r < reference.num_rows(); ++r) {
    EXPECT_EQ(built.column(0)->GetString(r), reference.column(0)->GetString(r))
        << what << " row " << r;
    EXPECT_EQ(built.column(0)->GetStringCode(r),
              reference.column(0)->GetStringCode(r))
        << what << " row " << r;
    EXPECT_EQ(built.column(1)->GetInt64(r), reference.column(1)->GetInt64(r))
        << what << " row " << r;
    EXPECT_EQ(built.column(2)->GetInt64(r), reference.column(2)->GetInt64(r))
        << what << " row " << r;
    EXPECT_EQ(built.column(3)->GetDouble(r), reference.column(3)->GetDouble(r))
        << what << " row " << r;
  }
  EXPECT_EQ(built.column(0)->dict()->size(),
            reference.column(0)->dict()->size())
      << what;
  EXPECT_EQ(built.ByteSize(), reference.ByteSize()) << what;
}

const double kRates[] = {1.0, 0.125, 3.0, 40.0};

TEST(DataTableBuilder, DenseRecordsMatchPerRowReference) {
  for (double rate : kRates) {
    Random rng(3);
    const std::vector<mseed::DecodedRecord> records = {
        DenseRecord(&rng, 1'600'000'000'000, rate, 1000),
        DenseRecord(&rng, 1'600'000'500'000, rate, 1),
        DenseRecord(&rng, 1'600'001'000'000, rate, 777)};
    Table built(kDataTableName, MakeDataSchema());
    Table reference(kDataTableName, MakeDataSchema());
    ASSERT_TRUE(AppendFileToDataTable("/repo/a.mseed", records, &built).ok());
    AppendFilePerRow("/repo/a.mseed", records, &reference);
    ExpectIdentical(built, reference, "rate " + std::to_string(rate));
  }
}

TEST(DataTableBuilder, ZoneSkippedSparseRecordsKeepSampleTimes) {
  for (double rate : kRates) {
    Random rng(5);
    const std::vector<mseed::DecodedRecord> records = {
        SkippedRecord(0, rate),
        SparseRecord(&rng, 10'000'000, rate, {0, 1, 2, 57, 58, 900, 4095}),
        DenseRecord(&rng, 20'000'000, rate, 64),
        SparseRecord(&rng, 30'000'000, rate, {3, 4}),
        SkippedRecord(40'000'000, rate)};
    Table built(kDataTableName, MakeDataSchema());
    Table reference(kDataTableName, MakeDataSchema());
    ASSERT_TRUE(AppendFileToDataTable("/repo/b.mseed", records, &built).ok());
    AppendFilePerRow("/repo/b.mseed", records, &reference);
    ExpectIdentical(built, reference, "rate " + std::to_string(rate));
    // record_id is the record's slot in the file, skipped slots included.
    EXPECT_EQ(built.column(1)->GetInt64(0), 1);
    EXPECT_EQ(built.column(1)->GetInt64(built.num_rows() - 1), 3);
  }
}

TEST(DataTableBuilder, ZeroSampleRecordsAndFilesAppendNothing) {
  Random rng(9);
  const std::vector<mseed::DecodedRecord> records = {
      DenseRecord(&rng, 0, 1.0, 0), DenseRecord(&rng, 5000, 1.0, 4),
      DenseRecord(&rng, 9000, 1.0, 0)};
  Table built(kDataTableName, MakeDataSchema());
  Table reference(kDataTableName, MakeDataSchema());
  ASSERT_TRUE(AppendFileToDataTable("/repo/c.mseed", records, &built).ok());
  AppendFilePerRow("/repo/c.mseed", records, &reference);
  ExpectIdentical(built, reference, "zero-sample records");
  EXPECT_EQ(built.column(1)->GetInt64(0), 1);

  // A file with no samples at all interns nothing either.
  const std::vector<mseed::DecodedRecord> empty = {SkippedRecord(0, 1.0),
                                                   DenseRecord(&rng, 0, 1.0, 0)};
  const uint64_t before = built.ByteSize();
  ASSERT_TRUE(AppendFileToDataTable("/repo/empty.mseed", empty, &built).ok());
  AppendFilePerRow("/repo/empty.mseed", empty, &reference);
  EXPECT_EQ(built.ByteSize(), before);
  ExpectIdentical(built, reference, "empty file");
  ASSERT_TRUE(AppendFileToDataTable("/repo/none.mseed", {}, &built).ok());
  ExpectIdentical(built, reference, "no records");
}

TEST(DataTableBuilder, ManyFilesAppendIntoOneTableAsEiLoadsThem) {
  Random rng(11);
  Table built(kDataTableName, MakeDataSchema());
  Table reference(kDataTableName, MakeDataSchema());
  for (int f = 0; f < 40; ++f) {
    const double rate = kRates[f % 4];
    std::vector<mseed::DecodedRecord> records;
    for (int r = 0; r < 3; ++r) {
      const int64_t start = f * 86'400'000LL + r * 1'000'000LL;
      if ((f + r) % 5 == 0) {
        records.push_back(DenseRecord(&rng, start, rate, 0));
      } else {
        records.push_back(DenseRecord(&rng, start, rate, 50 + 13 * r));
      }
    }
    const std::string uri = "/repo/day" + std::to_string(f % 29) + ".mseed";
    ASSERT_TRUE(AppendFileToDataTable(uri, records, &built).ok());
    AppendFilePerRow(uri, records, &reference);
  }
  ExpectIdentical(built, reference, "40 files");
}

}  // namespace
}  // namespace dex

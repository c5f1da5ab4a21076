// M1 — micro-benchmarks (google-benchmark) for the building blocks whose
// costs drive every experiment: Steim1 codec, mount transform and
// select-mount, hash join, aggregation, expression evaluation, metadata
// scan.

#include <benchmark/benchmark.h>

#include "core/seismic_schema.h"
#include "engine/executor.h"
#include "engine/kernel.h"
#include "io/file_io.h"
#include "mseed/generator.h"
#include "mseed/reader.h"
#include "mseed/steim.h"
#include "mseed/steim2.h"
#include "mseed/writer.h"

namespace dex {
namespace {

std::vector<int32_t> Waveform(size_t n) {
  return mseed::SynthesizeWaveform(7, n, true);
}

void BM_SteimEncode(benchmark::State& state) {
  const auto samples = Waveform(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mseed::Steim1::Encode(samples));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SteimEncode)->Arg(1024)->Arg(86400);

void BM_SteimDecode(benchmark::State& state) {
  const auto samples = Waveform(static_cast<size_t>(state.range(0)));
  const std::string encoded = mseed::Steim1::Encode(samples);
  for (auto _ : state) {
    auto decoded = mseed::Steim1::Decode(encoded, samples.size());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SteimDecode)->Arg(1024)->Arg(86400);

void BM_Steim2Encode(benchmark::State& state) {
  const auto samples = Waveform(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto encoded = mseed::Steim2::Encode(samples);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Steim2Encode)->Arg(86400);

void BM_Steim2Decode(benchmark::State& state) {
  const auto samples = Waveform(static_cast<size_t>(state.range(0)));
  const auto encoded = mseed::Steim2::Encode(samples);
  for (auto _ : state) {
    auto decoded = mseed::Steim2::Decode(*encoded, samples.size());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Steim2Decode)->Arg(86400);

// One day at 1 Hz in four records, as the repository generator lays it out.
std::vector<mseed::DecodedRecord> DecodedDay() {
  std::vector<mseed::DecodedRecord> records(4);
  for (size_t r = 0; r < records.size(); ++r) {
    records[r].samples = mseed::SynthesizeWaveform(7 + r, 21600, true);
    records[r].header.sample_rate_hz = 1.0;
    records[r].header.start_time_ms = static_cast<int64_t>(r) * 21600 * 1000;
  }
  return records;
}

void BM_MountTransform(benchmark::State& state) {
  // Transform one decoded 86 400-sample file into D-schema columns.
  const std::vector<mseed::DecodedRecord> records = DecodedDay();
  for (auto _ : state) {
    Table table("D", MakeDataSchema());
    benchmark::DoNotOptimize(
        AppendFileToDataTable("/repo/f.mseed", records, &table));
    benchmark::DoNotOptimize(table.column(3)->data_f64());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_MountTransform);

void BM_SelectMount(benchmark::State& state) {
  // The combined select-mount after decode: transform the file, select a
  // one-hour window and gather the survivors, as Mounter::Mount does.
  // range(0) = 1 runs the selection kernels, 0 the expression interpreter.
  const std::vector<mseed::DecodedRecord> records = DecodedDay();
  const SchemaPtr schema = MakeDataSchema();
  const ExprPtr window = Expr::And(
      Expr::Compare(CompareOp::kGe, Expr::ColumnRef("sample_time"),
                    Expr::Lit(Value::Timestamp(10 * 3600 * 1000))),
      Expr::Compare(CompareOp::kLt, Expr::ColumnRef("sample_time"),
                    Expr::Lit(Value::Timestamp(11 * 3600 * 1000))));
  const ExprPtr bound = *window->Bind(*schema);
  const kernel::PredicateSelector selector(bound, *schema, state.range(0) != 0);
  for (auto _ : state) {
    Table table("D", schema);
    benchmark::DoNotOptimize(
        AppendFileToDataTable("/repo/f.mseed", records, &table));
    Batch all;
    all.schema = schema;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      all.columns.push_back(table.column(c));
    }
    std::vector<uint32_t> selected;
    benchmark::DoNotOptimize(selector.Select(&all, &selected));
    Table filtered("D", schema);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      filtered.mutable_column(c)->AppendGather(*table.column(c), selected);
    }
    benchmark::DoNotOptimize(filtered.CommitAppendedRows(selected.size()));
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(0) != 0 ? "kernels" : "interpreter");
  state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_SelectMount)->Arg(0)->Arg(1);

TablePtr MakeProbeTable(size_t rows, size_t distinct_keys) {
  auto schema = std::make_shared<Schema>(
      Schema({{"uri", DataType::kString, "D"}, {"v", DataType::kDouble, "D"}}));
  auto t = std::make_shared<Table>("D", schema);
  Column* uri = t->mutable_column(0);
  Column* val = t->mutable_column(1);
  for (size_t i = 0; i < rows; ++i) {
    uri->AppendString("file_" + std::to_string(i % distinct_keys));
    val->AppendDouble(static_cast<double>(i));
  }
  (void)t->CommitAppendedRows(rows);
  return t;
}

TablePtr MakeBuildTable(size_t keys) {
  auto schema = std::make_shared<Schema>(
      Schema({{"uri", DataType::kString, "F"}}));
  auto t = std::make_shared<Table>("F", schema);
  for (size_t i = 0; i < keys; ++i) {
    (void)t->AppendRow({Value::String("file_" + std::to_string(i))});
  }
  return t;
}

void BM_HashJoinProbe(benchmark::State& state) {
  SimDisk disk;
  Catalog catalog(&disk);
  (void)catalog.AddTable(MakeProbeTable(static_cast<size_t>(state.range(0)), 64),
                         TableKind::kActual);
  (void)catalog.AddTable(MakeBuildTable(16), TableKind::kMetadata);
  PlanPtr plan = MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      MakeScan("D"), MakeScan("F"));
  (void)AnalyzePlan(plan, catalog);
  for (auto _ : state) {
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.charge_io = false;
    auto result = ExecutePlan(plan, &ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinProbe)->Arg(100000)->Arg(1000000);

void BM_HashAggregate(benchmark::State& state) {
  SimDisk disk;
  Catalog catalog(&disk);
  (void)catalog.AddTable(MakeProbeTable(static_cast<size_t>(state.range(0)), 64),
                         TableKind::kActual);
  PlanPtr plan = MakeAggregate(
      {Expr::ColumnRef("uri")},
      {{AggFunc::kAvg, Expr::ColumnRef("v"), "a"},
       {AggFunc::kCount, nullptr, "n"}},
      MakeScan("D"));
  (void)AnalyzePlan(plan, catalog);
  for (auto _ : state) {
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.charge_io = false;
    auto result = ExecutePlan(plan, &ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashAggregate)->Arg(100000)->Arg(1000000);

void BM_PredicateEvaluation(benchmark::State& state) {
  const TablePtr t = MakeProbeTable(static_cast<size_t>(state.range(0)), 64);
  Batch batch;
  batch.schema = t->schema();
  for (size_t c = 0; c < t->num_columns(); ++c) batch.columns.push_back(t->column(c));
  const ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("v"),
                    Expr::Lit(Value::Double(100.0))),
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("uri"),
                    Expr::Lit(Value::String("file_3"))));
  auto bound = pred->Bind(*batch.schema);
  for (auto _ : state) {
    auto mask = (*bound)->Evaluate(batch);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateEvaluation)->Arg(1000000);

void BM_TopKVsFullSort(benchmark::State& state) {
  // range(0) = limit, or -1 for a full sort.
  SimDisk disk;
  Catalog catalog(&disk);
  (void)catalog.AddTable(MakeProbeTable(500000, 64), TableKind::kActual);
  PlanPtr plan = MakeSort({{Expr::ColumnRef("v"), true}}, MakeScan("D"));
  plan->limit = state.range(0);
  (void)AnalyzePlan(plan, catalog);
  for (auto _ : state) {
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.charge_io = false;
    auto result = ExecutePlan(plan, &ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 500000);
}
BENCHMARK(BM_TopKVsFullSort)->Arg(-1)->Arg(10)->Arg(1000);

void BM_LikeEvaluation(benchmark::State& state) {
  const TablePtr t = MakeProbeTable(1000000, 64);
  Batch batch;
  batch.schema = t->schema();
  for (size_t c = 0; c < t->num_columns(); ++c) batch.columns.push_back(t->column(c));
  auto bound = Expr::Like(Expr::ColumnRef("uri"), "file_1%")->Bind(*batch.schema);
  for (auto _ : state) {
    auto mask = (*bound)->Evaluate(batch);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_LikeEvaluation);

void BM_HeaderScan(benchmark::State& state) {
  // Metadata extraction cost per file: what ALi pays up-front per file.
  std::vector<mseed::RecordData> records;
  for (int r = 0; r < 4; ++r) {
    mseed::RecordData rec;
    rec.network = "OR";
    rec.station = "ISK";
    rec.channel = "BHE";
    rec.location = "00";
    rec.start_time_ms = r * 1000000;
    rec.sample_rate_hz = 1.0;
    rec.samples = Waveform(21600);
    records.push_back(std::move(rec));
  }
  const std::string image = mseed::SerializeFile(records);
  for (auto _ : state) {
    auto infos = mseed::Reader::ScanHeadersInMemory(image);
    benchmark::DoNotOptimize(infos);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeaderScan);

}  // namespace
}  // namespace dex

BENCHMARK_MAIN();

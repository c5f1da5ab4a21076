#include "core/eager_loader.h"

#include <chrono>

#include "core/seismic_schema.h"
#include "mseed/reader.h"

namespace dex {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Result<EagerLoadStats> EagerLoader::LoadAll(const mseed::ScanResult& scan,
                                            Catalog* catalog,
                                            FileRegistry* registry,
                                            FormatAdapter* format,
                                            bool build_indexes) {
  EagerLoadStats stats;
  stats.repo_bytes = scan.total_bytes;
  SimDisk* disk = catalog->disk();
  const uint64_t sim0 = disk->stats().sim_nanos;

  // Metadata tables (also loaded in Ei, trivially small next to D).
  const uint64_t t0 = NowNanos();
  DEX_ASSIGN_OR_RETURN(TablePtr f_table, BuildFileTable(scan));
  DEX_ASSIGN_OR_RETURN(TablePtr r_table, BuildRecordTable(scan));
  stats.scan_nanos = NowNanos() - t0;
  DEX_RETURN_NOT_OK(catalog->AddTable(f_table, TableKind::kMetadata));
  DEX_RETURN_NOT_OK(catalog->AddTable(r_table, TableKind::kMetadata));
  DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kFileTableName));
  DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kRecordTableName));

  // Actual data: read + decompress + explicitly materialize every sample.
  const uint64_t t1 = NowNanos();
  auto d_table = std::make_shared<Table>(kDataTableName, MakeDataSchema());
  for (const mseed::FileMeta& file : scan.files) {
    // Reading the repository charges the simulated medium.
    DEX_RETURN_NOT_OK(registry->ChargeFileRead(file.uri));
    DEX_ASSIGN_OR_RETURN(std::vector<mseed::DecodedRecord> records,
                         format->ReadAllRecords(file.uri));
    DEX_RETURN_NOT_OK(AppendFileToDataTable(file.uri, records, d_table.get()));
  }
  stats.rows_loaded = d_table->num_rows();
  DEX_RETURN_NOT_OK(catalog->AddTable(d_table, TableKind::kActual));
  DEX_RETURN_NOT_OK(catalog->SyncStorageSize(kDataTableName));
  stats.load_nanos = NowNanos() - t1;
  stats.db_bytes = f_table->ByteSize() + r_table->ByteSize() + d_table->ByteSize();

  if (build_indexes) {
    const uint64_t t2 = NowNanos();
    DEX_RETURN_NOT_OK(catalog->BuildIndex(kFileTableName, {"uri"}, "F_pk"));
    DEX_RETURN_NOT_OK(
        catalog->BuildIndex(kRecordTableName, {"uri", "record_id"}, "R_pk"));
    DEX_RETURN_NOT_OK(catalog->BuildIndex(kRecordTableName, {"uri"}, "R_fk_F"));
    DEX_RETURN_NOT_OK(
        catalog->BuildIndex(kDataTableName, {"uri", "record_id"}, "D_fk_R"));
    stats.index_nanos = NowNanos() - t2;
    stats.index_bytes = catalog->TotalIndexBytes();
  }
  stats.sim_io_nanos = disk->stats().sim_nanos - sim0;
  return stats;
}

}  // namespace dex

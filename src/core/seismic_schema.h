#ifndef DEX_CORE_SEISMIC_SCHEMA_H_
#define DEX_CORE_SEISMIC_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mseed/reader.h"
#include "mseed/scanner.h"
#include "storage/table.h"

namespace dex {

/// The paper's normalized schema (§3/§4): two metadata tables and one actual
/// data table.
///   F(uri, network, station, channel, location, size_bytes, mtime, n_records)
///   R(uri, record_id, start_time, end_time, sample_rate, n_samples)
///   D(uri, record_id, sample_time, sample_value)
/// M = {F, R}, A = {D}.
inline constexpr const char* kFileTableName = "F";
inline constexpr const char* kRecordTableName = "R";
inline constexpr const char* kDataTableName = "D";
/// Derived-metadata table (§5 "Extending metadata"); member of M.
inline constexpr const char* kDerivedTableName = "DM";

SchemaPtr MakeFileSchema();
SchemaPtr MakeRecordSchema();
SchemaPtr MakeDataSchema();
SchemaPtr MakeDerivedSchema();

/// \brief Builds the F table from scanned file metadata.
Result<TablePtr> BuildFileTable(const mseed::ScanResult& scan);

/// \brief Builds the R table from scanned record metadata.
Result<TablePtr> BuildRecordTable(const mseed::ScanResult& scan);

/// \brief Inverse of BuildFileTable/BuildRecordTable: reconstructs a
/// ScanResult from the catalog's current F and R tables — the baseline a
/// delta Refresh() reuses for unchanged files. Record payload positions
/// (data_offset/data_bytes) are not part of the schema and come back as 0;
/// nothing downstream of Open() consumes them (mounts re-read files through
/// the format adapter).
mseed::ScanResult ScanResultFromTables(const Table& f_table,
                                       const Table& r_table);

/// \brief Appends one file's decoded records to a D-schema table, column at
/// a time: the transform step of both ALi's mount and Ei's load. Record i
/// gets record_id i; a sparse record (zone-map frame skip) places each value
/// at its original sample index, so sample_time stays exact. A file with no
/// samples appends nothing, not even its uri to the dictionary.
Status AppendFileToDataTable(const std::string& uri,
                             const std::vector<mseed::DecodedRecord>& records,
                             Table* data_table);

}  // namespace dex

#endif  // DEX_CORE_SEISMIC_SCHEMA_H_

#ifndef DEX_CORE_EAGER_LOADER_H_
#define DEX_CORE_EAGER_LOADER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/file_registry.h"
#include "core/format_adapter.h"
#include "mseed/scanner.h"
#include "storage/catalog.h"

namespace dex {

/// \brief Timings and sizes of an eager (Ei) load, the paper's baseline.
struct EagerLoadStats {
  uint64_t load_nanos = 0;     // decompress + materialize actual data
  uint64_t index_nanos = 0;    // PK/FK index construction
  uint64_t db_bytes = 0;       // loaded tables, without indexes
  uint64_t index_bytes = 0;    // "+keys" of Table 1
  uint64_t num_data_rows = 0;  // rows materialized in D
};

/// \brief Ei: "the entire input repository is loaded eagerly up-front"
/// (paper §4), then primary and foreign key indexes are built — F(uri) and
/// R(uri, record_id) primary keys, R(uri) and D(uri, record_id) foreign keys.
class EagerLoader {
 public:
  /// Loads every file under `scan` into catalog tables F, R, D and fills
  /// `stats`. The catalog must not yet contain them. Files must already be
  /// in `registry`.
  static Status LoadAll(const mseed::ScanResult& scan, Catalog* catalog,
                        FileRegistry* registry, FormatAdapter* format,
                        bool build_indexes, EagerLoadStats* stats);
};

}  // namespace dex

#endif  // DEX_CORE_EAGER_LOADER_H_

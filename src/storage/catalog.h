#ifndef DEX_STORAGE_CATALOG_H_
#define DEX_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/sim_disk.h"
#include "storage/hash_index.h"
#include "storage/table.h"

namespace dex {

/// \brief The paper's table taxonomy: T = M (metadata tables) ∪ A (actual
/// data tables). The two-stage plan splitter keys off this classification.
enum class TableKind {
  kMetadata,  // in M: loaded eagerly, queried in stage 1
  kActual,    // in A: resolved lazily via mount/cache-scan in stage 2
};

/// \brief Registry of the database's tables and their indexes.
///
/// Each table is backed by a storage object on the SimDisk so that cold
/// query runs charge the cost of faulting its pages in (the paper's "foreign
/// key indexes have to be brought into main memory to compute the joins").
///
/// Concurrency: a Catalog instance is *not* internally synchronized. The
/// serving layer treats catalogs as copy-on-write snapshot epochs (see
/// core/catalog_epoch.h): in-flight queries read a pinned, effectively
/// immutable instance while Refresh mutates a private `Clone()` and then
/// publishes it atomically. Tables, indexes, and storage objects are shared
/// between clones — which is why `ReplaceTable` must never mutate a storage
/// object a sibling clone might still be charging reads against.
class Catalog {
 public:
  explicit Catalog(SimDisk* disk) : disk_(disk) {}

  struct Entry {
    TablePtr table;
    TableKind kind;
    ObjectId storage = kInvalidObjectId;
    // shared_ptr (not unique_ptr) so snapshot clones share built indexes;
    // a HashIndex is immutable after Build.
    std::vector<std::shared_ptr<HashIndex>> indexes;
    std::vector<ObjectId> index_storage;
  };

  /// Registers `table`; fails if the name exists.
  Status AddTable(TablePtr table, TableKind kind);

  /// Swaps in a rebuilt table under an existing name (same schema width and
  /// types). Indexes over the old table are dropped — they referenced its
  /// rows. The replacement gets a *fresh* storage object (fully written, so
  /// the swap charges the same write cost as before); the old table's
  /// storage and index objects are intentionally left registered because a
  /// snapshot clone may still be charging reads against them. Used by
  /// Database::Refresh() to adopt rescanned metadata.
  Status ReplaceTable(TablePtr table);

  /// Points an existing entry at `table` (same schema width and types) and
  /// changes nothing else: the entry keeps its storage object and size, so
  /// nothing is registered on or written to the SimDisk and the buffer pool
  /// is untouched. For per-query views swapped into a private Clone() —
  /// Database builds the DM table this way. Fails on an indexed entry.
  Status SwapTable(TablePtr table);

  /// A shallow snapshot copy: shares the (immutable) tables, indexes, and
  /// storage objects of this catalog. Mutating the clone via ReplaceTable /
  /// AddTable / BuildIndex never alters this instance.
  std::unique_ptr<Catalog> Clone() const;

  Result<TablePtr> GetTable(const std::string& name) const;
  Result<TableKind> GetKind(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  /// Re-registers the table's storage object to reflect its current size
  /// (call after bulk loads).
  Status SyncStorageSize(const std::string& name);

  /// Builds and registers a hash index over `key_columns` of `table_name`.
  Status BuildIndex(const std::string& table_name,
                    const std::vector<std::string>& key_columns,
                    const std::string& index_name);

  /// Index lookup by exact key-column set; nullptr when absent.
  const HashIndex* FindIndex(const std::string& table_name,
                             const std::vector<size_t>& key_columns) const;

  /// Charges SimDisk reads for the table's pages (a scan of a persistent
  /// table). Intermediates with no storage object charge nothing.
  Status ChargeTableScan(const std::string& name) const;
  /// Charges SimDisk reads for all pages of the table's indexes.
  Status ChargeIndexRead(const std::string& name) const;

  /// Charges point reads for the given row ids of a persistent table (an
  /// index-assisted fetch touches only the pages holding those rows).
  Status ChargeRowsRead(const std::string& name,
                        const std::vector<uint32_t>& rows) const;

  uint64_t TotalTableBytes(TableKind kind) const;
  uint64_t TotalIndexBytes() const;

  std::vector<std::string> TableNames() const;
  SimDisk* disk() const { return disk_; }

 private:
  /// The entry `table` may replace: same name, schema width and types.
  Result<Entry*> ReplaceableEntry(const Table& table);

  SimDisk* disk_;
  std::map<std::string, Entry> entries_;
};

}  // namespace dex

#endif  // DEX_STORAGE_CATALOG_H_

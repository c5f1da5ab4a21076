#include "storage/catalog.h"

#include <algorithm>

#include "common/logging.h"

namespace dex {

Status Catalog::AddTable(TablePtr table, TableKind kind) {
  DEX_CHECK(table != nullptr);
  const std::string& name = table->name();
  if (entries_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  Entry entry;
  entry.kind = kind;
  entry.storage = disk_->Register("table:" + name, table->ByteSize());
  entry.table = std::move(table);
  entries_.emplace(name, std::move(entry));
  return Status::OK();
}

Result<Catalog::Entry*> Catalog::ReplaceableEntry(const Table& table) {
  auto it = entries_.find(table.name());
  if (it == entries_.end()) {
    return Status::NotFound("no table '" + table.name() + "' to replace");
  }
  const Schema& old_schema = *it->second.table->schema();
  const Schema& new_schema = *table.schema();
  if (old_schema.num_fields() != new_schema.num_fields()) {
    return Status::InvalidArgument("replacement for '" + table.name() +
                                   "' has a different schema width");
  }
  for (size_t i = 0; i < old_schema.num_fields(); ++i) {
    if (old_schema.field(i).type != new_schema.field(i).type) {
      return Status::InvalidArgument("replacement for '" + table.name() +
                                     "' changes column types");
    }
  }
  return &it->second;
}

Status Catalog::ReplaceTable(TablePtr table) {
  DEX_CHECK(table != nullptr);
  DEX_ASSIGN_OR_RETURN(Entry * entry, ReplaceableEntry(*table));
  // Drop references only — do not Unregister: a snapshot clone of this
  // catalog (an older epoch still serving a query) may share the old table's
  // storage and index objects and still charge reads against them. The stale
  // objects stay registered on the SimDisk until process exit; their pages
  // age out of the buffer pool through ordinary LRU pressure.
  const std::string name = table->name();
  entry->indexes.clear();
  entry->index_storage.clear();
  entry->table = std::move(table);
  entry->storage = disk_->Register("table:" + name, 0);
  return SyncStorageSize(name);
}

Status Catalog::SwapTable(TablePtr table) {
  DEX_CHECK(table != nullptr);
  DEX_ASSIGN_OR_RETURN(Entry * entry, ReplaceableEntry(*table));
  if (!entry->indexes.empty()) {
    return Status::InvalidArgument("cannot swap indexed table '" +
                                   table->name() + "'");
  }
  entry->table = std::move(table);
  return Status::OK();
}

std::unique_ptr<Catalog> Catalog::Clone() const {
  auto clone = std::make_unique<Catalog>(disk_);
  for (const auto& [name, entry] : entries_) {
    Entry copy;
    copy.table = entry.table;
    copy.kind = entry.kind;
    copy.storage = entry.storage;
    copy.indexes = entry.indexes;
    copy.index_storage = entry.index_storage;
    clone->entries_.emplace(name, std::move(copy));
  }
  return clone;
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  return it->second.table;
}

Result<TableKind> Catalog::GetKind(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  return it->second.kind;
}

bool Catalog::HasTable(const std::string& name) const {
  return entries_.count(name) > 0;
}

Status Catalog::SyncStorageSize(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  // Register the freshly written size as persisted bytes.
  const uint64_t size = it->second.table->ByteSize();
  DEX_RETURN_NOT_OK(disk_->Resize(it->second.storage, size));
  DEX_RETURN_NOT_OK(disk_->Write(it->second.storage, 0, size));
  return Status::OK();
}

Status Catalog::BuildIndex(const std::string& table_name,
                           const std::vector<std::string>& key_columns,
                           const std::string& index_name) {
  auto it = entries_.find(table_name);
  if (it == entries_.end()) {
    return Status::NotFound("no table '" + table_name + "'");
  }
  Entry& entry = it->second;
  std::vector<size_t> cols;
  for (const std::string& c : key_columns) {
    DEX_ASSIGN_OR_RETURN(size_t idx, entry.table->schema()->FieldIndex(c));
    cols.push_back(idx);
  }
  // Building the index reads the key columns and writes the index pages —
  // this is where Ei pays the paper's "4x longer than actual loading".
  DEX_RETURN_NOT_OK(disk_->Read(entry.storage, 0,
                                std::min(entry.table->ByteSize(),
                                         disk_->ObjectSize(entry.storage).ValueOr(0))));
  DEX_ASSIGN_OR_RETURN(auto index,
                       HashIndex::Build(entry.table.get(), cols, index_name));
  const ObjectId storage = disk_->Register("index:" + index_name, 0);
  DEX_RETURN_NOT_OK(disk_->Write(storage, 0, index->ByteSize()));
  entry.indexes.push_back(std::move(index));
  entry.index_storage.push_back(storage);
  return Status::OK();
}

const HashIndex* Catalog::FindIndex(const std::string& table_name,
                                    const std::vector<size_t>& key_columns) const {
  auto it = entries_.find(table_name);
  if (it == entries_.end()) return nullptr;
  for (const auto& index : it->second.indexes) {
    if (index->key_columns() == key_columns) return index.get();
  }
  return nullptr;
}

Status Catalog::ChargeTableScan(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  if (it->second.storage == kInvalidObjectId) return Status::OK();
  return disk_->ReadAll(it->second.storage);
}

Status Catalog::ChargeIndexRead(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  for (ObjectId id : it->second.index_storage) {
    DEX_RETURN_NOT_OK(disk_->ReadAll(id));
  }
  return Status::OK();
}

Status Catalog::ChargeRowsRead(const std::string& name,
                               const std::vector<uint32_t>& rows) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return Status::NotFound("no table '" + name + "'");
  const Entry& entry = it->second;
  if (entry.storage == kInvalidObjectId || rows.empty()) return Status::OK();
  const uint64_t table_bytes = disk_->ObjectSize(entry.storage).ValueOr(0);
  const size_t num_rows = entry.table->num_rows();
  if (num_rows == 0 || table_bytes == 0) return Status::OK();
  const uint64_t width = std::max<uint64_t>(1, table_bytes / num_rows);
  for (uint32_t row : rows) {
    const uint64_t offset = std::min<uint64_t>(row * width, table_bytes - 1);
    const uint64_t len = std::min<uint64_t>(width, table_bytes - offset);
    DEX_RETURN_NOT_OK(disk_->Read(entry.storage, offset, len));
  }
  return Status::OK();
}

uint64_t Catalog::TotalTableBytes(TableKind kind) const {
  uint64_t total = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.kind == kind) total += entry.table->ByteSize();
  }
  return total;
}

uint64_t Catalog::TotalIndexBytes() const {
  uint64_t total = 0;
  for (const auto& [name, entry] : entries_) {
    for (const auto& index : entry.indexes) total += index->ByteSize();
  }
  return total;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace dex

#ifndef DEX_ENGINE_BATCH_H_
#define DEX_ENGINE_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"

namespace dex {

class Table;

/// One run of equal join keys in a join → aggregate hand-off batch (see
/// Batch): the physical rows from the previous run's end (0 for the first
/// run) up to `end`, and the build row they matched (-1: none).
struct KeyRun {
  uint32_t end;
  int64_t build_row;
};

/// \brief The unit of data flowing between physical operators: a horizontal
/// chunk of rows, stored column-wise, with an optional selection vector.
///
/// Columns are shared pointers so operators that do not touch a column can
/// pass it through without copying (MonetDB-style column-at-a-time execution,
/// chunked to bound memory).
///
/// ## Selection-vector contract
///
/// A batch may carry a *selection vector*: a strictly ascending list of row
/// indices into the underlying columns. When `selection` is non-empty the
/// batch logically contains only those rows, in that order, even though the
/// columns still physically hold every row. This lets FilterOp express a
/// predicate as an index list (built by the branchless kernels in
/// engine/kernel.h) without materializing a gathered copy of every column.
///
/// Rules:
///  - `selection` indices are < physical_rows(), strictly ascending, no
///    duplicates. An *empty* vector means "all rows selected" only when
///    `has_selection` is false; `has_selection == true` with an empty vector
///    means zero logical rows.
///  - Ownership: the selection belongs to the batch and dies with it. Columns
///    remain shared and immutable while selected — an operator must never
///    mutate a column of a batch that carries a selection (downstream holders
///    of the same ColumnPtr would observe the change).
///  - Physical rows outside the selection hold arbitrary but valid values
///    (a run-keyed join fills them from a neighbouring run); nothing may
///    read them as data.
///  - Consumers that understand selections (FilterOp's kernels, HashAggOp's
///    kernel path, HashJoinOp's run-keyed mode) read through `selection`
///    directly; FilterOp and the run-keyed join also emit selections.
///    Everything else calls `Compact()` first, which gathers the selected
///    rows into fresh columns and drops the vector. Selection-unaware
///    operators (the row-at-a-time join, sorts, sinks, projections) compact
///    at their input.
///  - num_rows() is always the *logical* row count. Code indexing columns
///    positionally must use physical row indices (via `selection[i]` when
///    has_selection).
///
/// ## Sources
///
/// A mount branch emits its admitted table as one batch that shares the
/// table's columns, however many rows it has. Scans, result-scans and
/// cache-scans stream fresh copies of at most kBatchSize rows.
///
/// ## Join → aggregate hand-off
///
/// A run-keyed join whose aggregate asked for it (DESIGN.md §8.16) emits
/// *hand-off* batches, marked by a non-null `build`:
///  - `columns` hold the probe side only, the leading columns of the join's
///    output schema; the build columns are not filled.
///  - `selection` holds the matched rows, as on the join's other batches.
///  - `runs` split the physical rows into runs of equal join keys, in
///    order; a run's `build_row` indexes `build` and stands for the build
///    columns of all its rows. An unmatched run has no selected row.
///  - `build` is the join's build table, owned by the join, which outlives
///    its consumer's processing of the batch.
/// Only the aggregate that asked for them ever reads such batches.
struct Batch {
  SchemaPtr schema;
  std::vector<ColumnPtr> columns;
  /// Physical row indices logically present; see contract above.
  std::vector<uint32_t> selection;
  bool has_selection = false;
  /// Set on join → aggregate hand-off batches only; see above.
  const Table* build = nullptr;
  std::vector<KeyRun> runs;

  /// Logical rows: selection size when filtered, physical size otherwise.
  size_t num_rows() const {
    if (has_selection) return selection.size();
    return columns.empty() ? 0 : columns[0]->size();
  }
  /// Rows physically present in the columns, ignoring any selection.
  size_t physical_rows() const {
    return columns.empty() ? 0 : columns[0]->size();
  }
  size_t num_columns() const { return columns.size(); }

  /// Materializes the selection: gathers selected rows into fresh columns and
  /// clears the vector. No-op (and no copy) for unselected batches. Called at
  /// every boundary into a selection-unaware operator. Returns true when a
  /// gather actually happened (ExecStats::selection_compactions).
  bool Compact() {
    if (!has_selection) return false;
    std::vector<ColumnPtr> gathered;
    gathered.reserve(columns.size());
    for (const ColumnPtr& col : columns) {
      auto out = std::make_shared<Column>(col->type());
      out->AppendGather(*col, selection);
      gathered.push_back(std::move(out));
    }
    columns = std::move(gathered);
    selection.clear();
    has_selection = false;
    return true;
  }

  /// An empty batch with fresh, appendable columns matching `schema`.
  static Batch Empty(const SchemaPtr& schema) {
    Batch b;
    b.schema = schema;
    b.columns.reserve(schema->num_fields());
    for (const Field& f : schema->fields()) {
      b.columns.push_back(std::make_shared<Column>(f.type));
    }
    return b;
  }
};

/// Default number of rows per batch.
constexpr size_t kBatchSize = 4096;

}  // namespace dex

#endif  // DEX_ENGINE_BATCH_H_

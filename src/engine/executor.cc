#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "engine/batch.h"
#include "engine/kernel.h"
#include "engine/plan_profile.h"

namespace dex {

namespace {

// ---------------------------------------------------------------------------
// Operator protocol: Open() once, then Next(&batch) until it returns false.
// ---------------------------------------------------------------------------
class PhysOp {
 public:
  virtual ~PhysOp() = default;
  virtual Status Open() = 0;
  virtual Result<bool> Next(Batch* out) = 0;
  const SchemaPtr& schema() const { return schema_; }

 protected:
  explicit PhysOp(SchemaPtr schema) : schema_(std::move(schema)) {}
  SchemaPtr schema_;
};

using PhysOpPtr = std::unique_ptr<PhysOp>;

bool CellsEqual(const Column& a, size_t i, const Column& b, size_t j) {
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    if (a.type() != b.type()) return false;
    if (a.dict() == b.dict()) return a.GetStringCode(i) == b.GetStringCode(j);
    return a.GetString(i) == b.GetString(j);
  }
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    return a.GetNumeric(i) == b.GetNumeric(j);
  }
  return a.GetInt64(i) == b.GetInt64(j);
}

uint64_t HashCell(const Column& col, size_t row) {
  switch (col.type()) {
    case DataType::kDouble: {
      const double d = col.GetDouble(row);
      // Hash doubles by numeric value so 1.0 matches int 1 across columns.
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string>{}(col.GetString(row));
    default:
      return std::hash<int64_t>{}(col.GetInt64(row));
  }
}

uint64_t HashCombine(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

uint64_t HashKeyRow(const std::vector<ColumnPtr>& keys, size_t row) {
  uint64_t h = 0;
  for (const ColumnPtr& k : keys) h = HashCombine(h, HashCell(*k, row));
  return h;
}

/// Materializes everything an operator produces into a Table.
Result<TablePtr> Drain(PhysOp* op, const std::string& name) {
  auto table = std::make_shared<Table>(name, op->schema());
  Batch batch;
  DEX_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
  while (more) {
    batch.Compact();  // materialization boundary of the selection contract
    const size_t n = batch.num_rows();
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      table->mutable_column(c)->AppendRange(*batch.columns[c], 0, n);
    }
    DEX_RETURN_NOT_OK(table->CommitAppendedRows(n));
    DEX_ASSIGN_OR_RETURN(more, op->Next(&batch));
  }
  return table;
}

// ---------------------------------------------------------------------------
// Source operators
// ---------------------------------------------------------------------------

/// Streams a materialized table in kBatchSize chunks. The workhorse behind
/// scan, result-scan, cache-scan and (post-ingestion) mount.
class TableSourceOp : public PhysOp {
 public:
  TableSourceOp(SchemaPtr schema, TablePtr table)
      : PhysOp(std::move(schema)), table_(std::move(table)) {}

  Status Open() override { return Status::OK(); }

  Result<bool> Next(Batch* out) override {
    if (table_ == nullptr || pos_ >= table_->num_rows()) return false;
    const size_t n = std::min(kBatchSize, table_->num_rows() - pos_);
    out->schema = schema_;
    out->columns.clear();
    for (size_t c = 0; c < table_->num_columns(); ++c) {
      auto col = std::make_shared<Column>(table_->column(c)->type());
      col->AppendRange(*table_->column(c), pos_, n);
      out->columns.push_back(std::move(col));
    }
    pos_ += n;
    return true;
  }

 protected:
  TablePtr table_;
  size_t pos_ = 0;
};

class ScanOp : public TableSourceOp {
 public:
  ScanOp(SchemaPtr schema, TablePtr table, std::string table_name, ExecContext* ctx)
      : TableSourceOp(std::move(schema), std::move(table)),
        table_name_(std::move(table_name)),
        ctx_(ctx) {}

  Status Open() override {
    if (ctx_->charge_io) {
      DEX_RETURN_NOT_OK(ctx_->catalog->ChargeTableScan(table_name_));
    }
    return Status::OK();
  }

  Result<bool> Next(Batch* out) override {
    DEX_ASSIGN_OR_RETURN(bool more, TableSourceOp::Next(out));
    if (more) ctx_->stats.rows_scanned += out->num_rows();
    return more;
  }

 private:
  std::string table_name_;
  ExecContext* ctx_;
};

/// ALi's mount access path: ingestion happens inside query execution, on
/// first pull. The callback owns extraction/transformation; failures (e.g.
/// the file vanished between stage 1 and stage 2) surface as query errors.
class MountOp : public TableSourceOp {
 public:
  MountOp(SchemaPtr schema, std::string table_name, std::string uri,
          ExprPtr fused_predicate, ExecContext* ctx)
      : TableSourceOp(std::move(schema), nullptr),
        table_name_(std::move(table_name)),
        uri_(std::move(uri)),
        fused_predicate_(std::move(fused_predicate)),
        ctx_(ctx) {}

  Status Open() override {
    if (!ctx_->mount_fn) {
      return Status::Internal("mount operator present but no mount_fn set");
    }
    DEX_ASSIGN_OR_RETURN(table_,
                         ctx_->mount_fn(table_name_, uri_, fused_predicate_));
    ctx_->stats.files_mounted += 1;
    ctx_->stats.mounted_rows += table_->num_rows();
    return Status::OK();
  }

 private:
  std::string table_name_;
  std::string uri_;
  ExprPtr fused_predicate_;
  ExecContext* ctx_;
};

class CacheScanOp : public TableSourceOp {
 public:
  CacheScanOp(SchemaPtr schema, std::string table_name, std::string uri,
              ExecContext* ctx)
      : TableSourceOp(std::move(schema), nullptr),
        table_name_(std::move(table_name)),
        uri_(std::move(uri)),
        ctx_(ctx) {}

  Status Open() override {
    if (!ctx_->cache_fn) {
      return Status::Internal("cache-scan operator present but no cache_fn set");
    }
    auto cached = ctx_->cache_fn(table_name_, uri_);
    if (cached.ok()) {
      table_ = std::move(cached).ValueUnsafe();
      ctx_->stats.cache_scans += 1;
      return Status::OK();
    }
    if (cached.status().IsNotFound() && ctx_->mount_fn) {
      // The entry was evicted between the run-time rewrite and this branch's
      // execution (e.g. this query's own mounts churned a small LRU cache).
      // Fall back to mounting; any selection sits in the Filter above us.
      DEX_ASSIGN_OR_RETURN(table_, ctx_->mount_fn(table_name_, uri_, nullptr));
      ctx_->stats.files_mounted += 1;
      ctx_->stats.mounted_rows += table_->num_rows();
      return Status::OK();
    }
    return cached.status();
  }

 private:
  std::string table_name_;
  std::string uri_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

/// Filter emits *selection vectors*, not gathered copies: the output batch
/// shares the child's columns and carries the surviving row indices (see the
/// contract in engine/batch.h). kernel::PredicateSelector picks the rows:
/// the branchless kernels for conjunctions of column-vs-literal comparisons
/// over numeric columns, the expression interpreter for everything else.
class FilterOp : public PhysOp {
 public:
  FilterOp(SchemaPtr schema, ExprPtr bound_pred, PhysOpPtr child,
           ExecContext* ctx)
      : PhysOp(std::move(schema)),
        selector_(std::move(bound_pred), *child->schema(),
                  ctx->use_simd_kernels),
        child_(std::move(child)),
        ctx_(ctx) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Batch* out) override {
    while (true) {
      Batch in;
      DEX_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) return false;
      // Only the kernels read through an incoming selection.
      if (!selector_.uses_kernels() && in.Compact()) {
        ctx_->stats.selection_compactions += 1;
      }
      std::vector<uint32_t> selected;
      DEX_RETURN_NOT_OK(selector_.Select(&in, &selected));
      if (selector_.uses_kernels()) {
        ctx_->stats.kernel_filter_batches += 1;
      } else {
        ctx_->stats.scalar_filter_batches += 1;
      }
      if (selected.empty()) continue;
      out->schema = schema_;
      out->columns = in.columns;  // shared per the selection contract
      if (selected.size() == in.physical_rows()) {
        // All physical rows pass: dense zero-copy pass-through.
        out->selection.clear();
        out->has_selection = false;
        return true;
      }
      out->selection = std::move(selected);
      out->has_selection = true;
      return true;
    }
  }

 private:
  kernel::PredicateSelector selector_;
  PhysOpPtr child_;
  ExecContext* ctx_;
};

class ProjectOp : public PhysOp {
 public:
  ProjectOp(SchemaPtr schema, std::vector<ExprPtr> bound_exprs, PhysOpPtr child,
            ExecContext* ctx)
      : PhysOp(std::move(schema)),
        exprs_(std::move(bound_exprs)),
        child_(std::move(child)),
        ctx_(ctx) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Batch* out) override {
    Batch in;
    DEX_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    if (in.Compact()) ctx_->stats.selection_compactions += 1;
    out->schema = schema_;
    out->columns.clear();
    for (const ExprPtr& e : exprs_) {
      DEX_ASSIGN_OR_RETURN(ColumnPtr col, e->Evaluate(in));
      out->columns.push_back(std::move(col));
    }
    return true;
  }

 private:
  std::vector<ExprPtr> exprs_;
  PhysOpPtr child_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Equality pairs extracted from a join condition: left_exprs bind to the
/// left schema, right_exprs to the right; residual applies to the concat.
struct JoinKeys {
  std::vector<ExprPtr> left_exprs;
  std::vector<ExprPtr> right_exprs;
  ExprPtr residual;  // bound to the concatenated schema; may be TRUE
};

Result<JoinKeys> ExtractJoinKeys(const ExprPtr& condition, const Schema& left,
                                 const Schema& right, const Schema& concat) {
  JoinKeys keys;
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(condition, &conjuncts);
  std::vector<ExprPtr> residuals;
  for (const ExprPtr& c : conjuncts) {
    bool is_key = false;
    if (c->kind() == ExprKind::kComparison &&
        c->compare_op() == CompareOp::kEq) {
      const ExprPtr& a = c->children()[0];
      const ExprPtr& b = c->children()[1];
      if (a->AllColumnsIn(left) && b->AllColumnsIn(right)) {
        DEX_ASSIGN_OR_RETURN(ExprPtr la, a->Bind(left));
        DEX_ASSIGN_OR_RETURN(ExprPtr rb, b->Bind(right));
        keys.left_exprs.push_back(std::move(la));
        keys.right_exprs.push_back(std::move(rb));
        is_key = true;
      } else if (b->AllColumnsIn(left) && a->AllColumnsIn(right)) {
        DEX_ASSIGN_OR_RETURN(ExprPtr lb, b->Bind(left));
        DEX_ASSIGN_OR_RETURN(ExprPtr ra, a->Bind(right));
        keys.left_exprs.push_back(std::move(lb));
        keys.right_exprs.push_back(std::move(ra));
        is_key = true;
      }
    }
    if (!is_key) residuals.push_back(c);
  }
  if (!residuals.empty()) {
    DEX_ASSIGN_OR_RETURN(keys.residual, Expr::AndAll(residuals)->Bind(concat));
  }
  return keys;
}

/// Applies a join's residual filter to a freshly joined (dense) batch,
/// gathering the survivors when some rows fail. Returns false when none
/// survive.
Result<bool> FilterJoined(const kernel::PredicateSelector& residual,
                          Batch* joined) {
  std::vector<uint32_t> selected;
  DEX_RETURN_NOT_OK(residual.Select(joined, &selected));
  if (selected.empty()) return false;
  if (selected.size() != joined->num_rows()) {
    joined->selection = std::move(selected);
    joined->has_selection = true;
    joined->Compact();
  }
  return true;
}

/// Hash join: materializes+hashes the right (build) side, streams the left
/// (probe) side. Falls back to nested-loop when the condition has no
/// equality pairs (the paper's "Q_f might contain cartesian products").
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(SchemaPtr schema, JoinKeys keys, PhysOpPtr left, PhysOpPtr right,
             ExecContext* ctx)
      : PhysOp(std::move(schema)),
        keys_(std::move(keys)),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}

  Status Open() override {
    if (keys_.residual != nullptr) {
      residual_.emplace(keys_.residual, *schema_, ctx_->use_simd_kernels);
    }
    DEX_RETURN_NOT_OK(left_->Open());
    DEX_RETURN_NOT_OK(right_->Open());
    DEX_ASSIGN_OR_RETURN(build_, Drain(right_.get(), "join_build"));
    // Evaluate build-side key columns over the whole build table at once.
    Batch all;
    all.schema = right_->schema();
    for (size_t c = 0; c < build_->num_columns(); ++c) {
      all.columns.push_back(build_->column(c));
    }
    for (const ExprPtr& e : keys_.right_exprs) {
      DEX_ASSIGN_OR_RETURN(ColumnPtr col, e->Evaluate(all));
      build_keys_.push_back(std::move(col));
    }
    // Flat sorted (hash, row) arrays: node-based hash maps fall over when
    // the build side is large (per-node allocation dominates); sorting keeps
    // the build linear-ish and probes cache-friendly.
    const size_t n = build_->num_rows();
    hashes_.resize(n);
    rows_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      hashes_[r] = HashKeyRow(build_keys_, r);
      rows_[r] = static_cast<uint32_t>(r);
    }
    std::vector<uint32_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return hashes_[a] < hashes_[b];
    });
    std::vector<uint64_t> sorted_hashes(n);
    std::vector<uint32_t> sorted_rows(n);
    for (size_t i = 0; i < n; ++i) {
      sorted_hashes[i] = hashes_[perm[i]];
      sorted_rows[i] = rows_[perm[i]];
    }
    hashes_ = std::move(sorted_hashes);
    rows_ = std::move(sorted_rows);
    return Status::OK();
  }

  Result<bool> Next(Batch* out) override {
    while (true) {
      Batch in;
      DEX_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
      if (!more) return false;
      if (in.Compact()) ctx_->stats.selection_compactions += 1;
      std::vector<ColumnPtr> probe_keys;
      for (const ExprPtr& e : keys_.left_exprs) {
        DEX_ASSIGN_OR_RETURN(ColumnPtr col, e->Evaluate(in));
        probe_keys.push_back(std::move(col));
      }
      std::vector<uint32_t> probe_rows, build_rows;
      if (keys_.left_exprs.empty()) {
        // Cartesian product.
        for (size_t i = 0; i < in.num_rows(); ++i) {
          for (size_t j = 0; j < build_->num_rows(); ++j) {
            probe_rows.push_back(static_cast<uint32_t>(i));
            build_rows.push_back(static_cast<uint32_t>(j));
          }
        }
      } else {
        for (size_t i = 0; i < in.num_rows(); ++i) {
          const uint64_t h = HashKeyRow(probe_keys, i);
          auto it = std::lower_bound(hashes_.begin(), hashes_.end(), h);
          for (; it != hashes_.end() && *it == h; ++it) {
            const uint32_t r = rows_[it - hashes_.begin()];
            bool match = true;
            for (size_t k = 0; k < probe_keys.size(); ++k) {
              if (!CellsEqual(*probe_keys[k], i, *build_keys_[k], r)) {
                match = false;
                break;
              }
            }
            if (match) {
              probe_rows.push_back(static_cast<uint32_t>(i));
              build_rows.push_back(r);
            }
          }
        }
      }
      if (probe_rows.empty()) continue;
      Batch joined;
      joined.schema = schema_;
      for (const ColumnPtr& c : in.columns) {
        auto col = std::make_shared<Column>(c->type());
        col->AppendGather(*c, probe_rows);
        joined.columns.push_back(std::move(col));
      }
      for (size_t c = 0; c < build_->num_columns(); ++c) {
        auto col = std::make_shared<Column>(build_->column(c)->type());
        col->AppendGather(*build_->column(c), build_rows);
        joined.columns.push_back(std::move(col));
      }
      if (residual_.has_value()) {
        DEX_ASSIGN_OR_RETURN(bool any, FilterJoined(*residual_, &joined));
        if (!any) continue;
      }
      *out = std::move(joined);
      return true;
    }
  }

 private:
  JoinKeys keys_;
  PhysOpPtr left_;
  PhysOpPtr right_;
  ExecContext* ctx_;
  std::optional<kernel::PredicateSelector> residual_;
  TablePtr build_;
  std::vector<ColumnPtr> build_keys_;
  // Parallel arrays sorted by hash.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> rows_;
};

/// Index nested-loop join against a persistent, indexed base table: the Ei
/// baseline's hot path. Probing charges point reads on the base table and a
/// one-time read of the index pages ("the foreign key indexes have to be
/// brought into main memory to compute the joins").
class IndexJoinOp : public PhysOp {
 public:
  IndexJoinOp(SchemaPtr schema, JoinKeys keys, PhysOpPtr left,
              std::string right_table_name, TablePtr right_table,
              const HashIndex* index, ExprPtr right_filter, ExecContext* ctx)
      : PhysOp(std::move(schema)),
        keys_(std::move(keys)),
        left_(std::move(left)),
        right_table_name_(std::move(right_table_name)),
        right_table_(std::move(right_table)),
        index_(index),
        right_filter_(std::move(right_filter)),
        ctx_(ctx) {}

  Status Open() override {
    // Residual join predicates plus any filter that sat on the right scan.
    ExprPtr post = keys_.residual;
    if (right_filter_ != nullptr) {
      post = post ? Expr::And(post, right_filter_) : right_filter_;
    }
    if (post != nullptr) {
      DEX_ASSIGN_OR_RETURN(ExprPtr bound, post->Bind(*schema_));
      post_.emplace(std::move(bound), *schema_, ctx_->use_simd_kernels);
    }
    DEX_RETURN_NOT_OK(left_->Open());
    if (ctx_->charge_io) {
      DEX_RETURN_NOT_OK(ctx_->catalog->ChargeIndexRead(right_table_name_));
    }
    return Status::OK();
  }

  Result<bool> Next(Batch* out) override {
    while (true) {
      Batch in;
      DEX_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
      if (!more) return false;
      if (in.Compact()) ctx_->stats.selection_compactions += 1;
      std::vector<ColumnPtr> probe_keys;
      for (const ExprPtr& e : keys_.left_exprs) {
        DEX_ASSIGN_OR_RETURN(ColumnPtr col, e->Evaluate(in));
        probe_keys.push_back(std::move(col));
      }
      std::vector<uint32_t> probe_rows, fetch_rows;
      std::vector<Value> key(probe_keys.size());
      std::vector<uint32_t> matches;
      for (size_t i = 0; i < in.num_rows(); ++i) {
        for (size_t k = 0; k < probe_keys.size(); ++k) {
          key[k] = probe_keys[k]->GetValue(i);
        }
        matches.clear();
        DEX_RETURN_NOT_OK(index_->Probe(key, &matches));
        ctx_->stats.index_probes += 1;
        for (uint32_t r : matches) {
          probe_rows.push_back(static_cast<uint32_t>(i));
          fetch_rows.push_back(r);
        }
      }
      if (probe_rows.empty()) continue;
      if (ctx_->charge_io) {
        DEX_RETURN_NOT_OK(
            ctx_->catalog->ChargeRowsRead(right_table_name_, fetch_rows));
      }
      Batch joined;
      joined.schema = schema_;
      for (const ColumnPtr& c : in.columns) {
        auto col = std::make_shared<Column>(c->type());
        col->AppendGather(*c, probe_rows);
        joined.columns.push_back(std::move(col));
      }
      for (size_t c = 0; c < right_table_->num_columns(); ++c) {
        auto col = std::make_shared<Column>(right_table_->column(c)->type());
        col->AppendGather(*right_table_->column(c), fetch_rows);
        joined.columns.push_back(std::move(col));
      }
      if (post_.has_value()) {
        DEX_ASSIGN_OR_RETURN(bool any, FilterJoined(*post_, &joined));
        if (!any) continue;
      }
      *out = std::move(joined);
      return true;
    }
  }

 private:
  JoinKeys keys_;
  PhysOpPtr left_;
  std::string right_table_name_;
  TablePtr right_table_;
  const HashIndex* index_;
  ExprPtr right_filter_;  // unbound; bound against the output schema at Open
  ExecContext* ctx_;
  std::optional<kernel::PredicateSelector> post_;
};

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

struct AggAccumulator {
  int64_t count = 0;
  double sum = 0.0;
  int64_t isum = 0;
  Value min;
  Value max;
};

class HashAggOp : public PhysOp {
 public:
  HashAggOp(SchemaPtr schema, std::vector<ExprPtr> bound_groups,
            std::vector<AggSpec> aggs, std::vector<ExprPtr> bound_args,
            PhysOpPtr child, ExecContext* ctx)
      : PhysOp(std::move(schema)),
        groups_(std::move(bound_groups)),
        aggs_(std::move(aggs)),
        args_(std::move(bound_args)),
        child_(std::move(child)),
        ctx_(ctx) {}

  Status Open() override {
    kernel_mode_ = ctx_->use_simd_kernels && KernelEligible();
    return child_->Open();
  }

  Result<bool> Next(Batch* out) override {
    if (done_) return false;
    done_ = true;
    if (kernel_mode_) {
      DEX_RETURN_NOT_OK(AccumulateKernel());
      return EmitKernel(out);
    }
    DEX_RETURN_NOT_OK(Accumulate());
    return Emit(out);
  }

 private:
  /// The kernel path covers the dominant shapes: GROUP BY nothing or one
  /// dictionary-encoded string column, aggregating plain numeric columns
  /// (or COUNT(*)). Anything else — computed keys, multi-column groups,
  /// string aggregates — keeps the Value-based interpreter.
  bool KernelEligible() const {
    if (groups_.size() > 1) return false;
    if (groups_.size() == 1) {
      const ExprPtr& g = groups_[0];
      if (g->kind() != ExprKind::kColumnRef || g->column_index() < 0 ||
          g->output_type() != DataType::kString) {
        return false;
      }
    }
    for (const ExprPtr& a : args_) {
      if (a == nullptr) continue;  // COUNT(*)
      if (a->kind() != ExprKind::kColumnRef || a->column_index() < 0) {
        return false;
      }
      const DataType t = a->output_type();
      if (t != DataType::kDouble && t != DataType::kInt64 &&
          t != DataType::kTimestamp) {
        return false;
      }
    }
    return true;
  }

  /// Per-agg accumulator arrays, parallel over global group slots.
  struct KernelAgg {
    std::vector<double> min, max, sum;
    std::vector<int64_t> imin, imax, isum;
    std::vector<uint64_t> count;
    std::vector<uint8_t> seen;
    void Grow(size_t n) {
      min.resize(n, 0);
      max.resize(n, 0);
      sum.resize(n, 0);
      imin.resize(n, 0);
      imax.resize(n, 0);
      isum.resize(n, 0);
      count.resize(n, 0);
      seen.resize(n, 0);
    }
  };

  Status AccumulateKernel() {
    kernel_aggs_.resize(aggs_.size());
    Batch in;
    DEX_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    while (more) {
      const size_t rows = in.num_rows();
      if (rows == 0) {
        DEX_ASSIGN_OR_RETURN(more, child_->Next(&in));
        continue;
      }
      const uint32_t* sel = in.has_selection ? in.selection.data() : nullptr;
      gid_.resize(rows);
      if (!groups_.empty()) {
        // Dictionaries are batch-local (different mounts intern
        // independently), so codes are grouped per batch and each distinct
        // code resolves its string to a global slot once — not once per row.
        const Column& gcol = *in.columns[groups_[0]->column_index()];
        local_code_to_slot_.clear();
        local_codes_.clear();
        kernel::GroupByCodes(gcol.codes(), sel, rows, in.physical_rows(),
                             &local_code_to_slot_, &local_codes_, gid_.data());
        local_to_global_.resize(local_codes_.size());
        for (size_t ls = 0; ls < local_codes_.size(); ++ls) {
          const std::string& s = gcol.dict()->At(local_codes_[ls]);
          auto [it, inserted] =
              group_index_.try_emplace(s, kernel_keys_.size());
          if (inserted) {
            kernel_keys_.push_back(Value::String(s));
            GrowKernelGroups();
          }
          local_to_global_[ls] = static_cast<uint32_t>(it->second);
        }
        for (size_t r = 0; r < rows; ++r) gid_[r] = local_to_global_[gid_[r]];
      } else {
        if (kernel_keys_.empty()) {
          kernel_keys_.emplace_back();  // the single global group
          GrowKernelGroups();
        }
        std::fill(gid_.begin(), gid_.end(), 0u);
      }
      for (size_t r = 0; r < rows; ++r) ++group_rows_[gid_[r]];
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (args_[a] == nullptr) continue;
        const Column& col = *in.columns[args_[a]->column_index()];
        KernelAgg& k = kernel_aggs_[a];
        if (col.type() == DataType::kDouble) {
          kernel::GroupAccumF64(col.data_f64(), sel, rows, gid_.data(),
                                k.min.data(), k.max.data(), k.sum.data(),
                                k.count.data(), k.seen.data());
        } else {
          kernel::GroupAccumI64(col.data_i64(), sel, rows, gid_.data(),
                                k.imin.data(), k.imax.data(), k.sum.data(),
                                k.isum.data(), k.count.data(), k.seen.data());
        }
      }
      ctx_->stats.kernel_agg_batches += 1;
      DEX_ASSIGN_OR_RETURN(more, child_->Next(&in));
    }
    return Status::OK();
  }

  void GrowKernelGroups() {
    group_rows_.resize(kernel_keys_.size(), 0);
    for (KernelAgg& k : kernel_aggs_) k.Grow(kernel_keys_.size());
  }

  Result<bool> EmitKernel(Batch* out) {
    if (kernel_keys_.empty() && !groups_.empty()) return false;
    bool empty_input = false;
    if (kernel_keys_.empty()) {
      kernel_keys_.emplace_back();
      GrowKernelGroups();
      empty_input = true;
    }
    *out = Batch::Empty(schema_);
    for (size_t g = 0; g < kernel_keys_.size(); ++g) {
      size_t c = 0;
      if (!groups_.empty()) {
        DEX_RETURN_NOT_OK(out->columns[c++]->AppendValue(kernel_keys_[g]));
      }
      for (size_t a = 0; a < aggs_.size(); ++a, ++c) {
        const KernelAgg& k = kernel_aggs_[a];
        const DataType out_type = schema_->field(c).type;
        const bool is_f64 =
            args_[a] != nullptr && args_[a]->output_type() == DataType::kDouble;
        const uint64_t rows = group_rows_[g];
        Value v;
        switch (aggs_[a].fn) {
          case AggFunc::kCount:
            v = Value::Int64(empty_input ? 0 : static_cast<int64_t>(rows));
            break;
          case AggFunc::kSum:
            v = out_type == DataType::kInt64
                    ? Value::Int64(k.isum[g])
                    : Value::Double(is_f64 ? k.sum[g]
                                           : static_cast<double>(k.isum[g]));
            break;
          case AggFunc::kAvg:
            v = Value::Double(rows == 0 ? 0.0
                                        : k.sum[g] / static_cast<double>(rows));
            break;
          case AggFunc::kMin:
          case AggFunc::kMax: {
            const bool want_min = aggs_[a].fn == AggFunc::kMin;
            if (!k.seen[g]) {
              // Empty group: the scalar path emits a zero of the output type.
              v = out_type == DataType::kDouble ? Value::Double(0.0)
                                                : Value::Int64(0);
              if (out_type == DataType::kTimestamp) v = Value::Timestamp(0);
              break;
            }
            if (is_f64) {
              v = Value::Double(want_min ? k.min[g] : k.max[g]);
            } else {
              const int64_t iv = want_min ? k.imin[g] : k.imax[g];
              v = out_type == DataType::kTimestamp ? Value::Timestamp(iv)
                                                   : Value::Int64(iv);
            }
            break;
          }
        }
        DEX_RETURN_NOT_OK(out->columns[c]->AppendValue(v));
      }
    }
    return true;
  }

  Status Accumulate() {
    Batch in;
    DEX_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    while (more) {
      if (in.Compact()) ctx_->stats.selection_compactions += 1;
      ctx_->stats.scalar_agg_batches += 1;
      std::vector<ColumnPtr> group_cols;
      for (const ExprPtr& g : groups_) {
        DEX_ASSIGN_OR_RETURN(ColumnPtr col, g->Evaluate(in));
        group_cols.push_back(std::move(col));
      }
      std::vector<ColumnPtr> arg_cols(args_.size());
      for (size_t a = 0; a < args_.size(); ++a) {
        if (args_[a] != nullptr) {
          DEX_ASSIGN_OR_RETURN(arg_cols[a], args_[a]->Evaluate(in));
        }
      }
      std::string key;
      for (size_t i = 0; i < in.num_rows(); ++i) {
        key.clear();
        EncodeKey(group_cols, i, &key);
        auto [it, inserted] = group_index_.try_emplace(key, groups_state_.size());
        if (inserted) {
          groups_state_.emplace_back();
          auto& st = groups_state_.back();
          st.accs.resize(aggs_.size());
          for (size_t g = 0; g < group_cols.size(); ++g) {
            st.key_values.push_back(group_cols[g]->GetValue(i));
          }
        }
        auto& st = groups_state_[it->second];
        for (size_t a = 0; a < aggs_.size(); ++a) {
          AggAccumulator& acc = st.accs[a];
          acc.count += 1;
          if (arg_cols[a] != nullptr) {
            const Column& col = *arg_cols[a];
            if (col.type() != DataType::kString) {
              const double v = col.GetNumeric(i);
              acc.sum += v;
              if (col.type() != DataType::kDouble) acc.isum += col.GetInt64(i);
            }
            const Value v = col.GetValue(i);
            if (acc.min.is_null() || ValueLess(v, acc.min)) acc.min = v;
            if (acc.max.is_null() || ValueLess(acc.max, v)) acc.max = v;
          }
        }
      }
      DEX_ASSIGN_OR_RETURN(more, child_->Next(&in));
    }
    return Status::OK();
  }

  static bool ValueLess(const Value& a, const Value& b) {
    if (a.type() == DataType::kString && b.type() == DataType::kString) {
      return a.str() < b.str();
    }
    const auto da = a.AsDouble();
    const auto db = b.AsDouble();
    if (da.ok() && db.ok()) return *da < *db;
    return false;
  }

  static void EncodeKey(const std::vector<ColumnPtr>& cols, size_t row,
                        std::string* key) {
    for (const ColumnPtr& c : cols) {
      switch (c->type()) {
        case DataType::kString: {
          const std::string& s = c->GetString(row);
          key->append(s);
          key->push_back('\0');
          break;
        }
        case DataType::kDouble: {
          const double d = c->GetDouble(row);
          key->append(reinterpret_cast<const char*>(&d), sizeof(d));
          break;
        }
        default: {
          const int64_t v = c->GetInt64(row);
          key->append(reinterpret_cast<const char*>(&v), sizeof(v));
        }
      }
    }
  }

  Result<bool> Emit(Batch* out) {
    // Aggregation without GROUP BY yields one row even on empty input
    // (COUNT=0; other aggregates are NULL-ish, rendered as 0/NaN-free by
    // convention: we return an empty result instead, matching MonetDB's
    // behaviour for AVG over empty input with no groups producing NULL).
    if (groups_state_.empty() && !groups_.empty()) return false;
    if (groups_state_.empty()) {
      groups_state_.emplace_back();
      groups_state_.back().accs.resize(aggs_.size());
      empty_input_ = true;
    }
    *out = Batch::Empty(schema_);
    for (const auto& st : groups_state_) {
      size_t c = 0;
      for (const Value& v : st.key_values) {
        DEX_RETURN_NOT_OK(out->columns[c++]->AppendValue(v));
      }
      for (size_t a = 0; a < aggs_.size(); ++a, ++c) {
        const AggAccumulator& acc = st.accs[a];
        const DataType out_type = schema_->field(c).type;
        Value v;
        switch (aggs_[a].fn) {
          case AggFunc::kCount:
            v = Value::Int64(empty_input_ ? 0 : acc.count);
            break;
          case AggFunc::kSum:
            v = out_type == DataType::kInt64 ? Value::Int64(acc.isum)
                                             : Value::Double(acc.sum);
            break;
          case AggFunc::kAvg:
            v = Value::Double(acc.count == 0 ? 0.0
                                             : acc.sum / static_cast<double>(
                                                             acc.count));
            break;
          case AggFunc::kMin:
            v = acc.min;
            break;
          case AggFunc::kMax:
            v = acc.max;
            break;
        }
        if (v.is_null()) {
          // MIN/MAX over empty input: emit a zero of the right type.
          v = out_type == DataType::kString ? Value::String("") :
              out_type == DataType::kDouble ? Value::Double(0.0)
                                            : Value::Int64(0);
        }
        DEX_RETURN_NOT_OK(out->columns[c]->AppendValue(v));
      }
    }
    return true;
  }

  struct GroupState {
    std::vector<Value> key_values;
    std::vector<AggAccumulator> accs;
  };

  std::vector<ExprPtr> groups_;
  std::vector<AggSpec> aggs_;
  std::vector<ExprPtr> args_;
  PhysOpPtr child_;
  ExecContext* ctx_;
  std::unordered_map<std::string, size_t> group_index_;
  std::vector<GroupState> groups_state_;
  bool done_ = false;
  bool empty_input_ = false;

  // Kernel-path state (see AccumulateKernel).
  bool kernel_mode_ = false;
  std::vector<Value> kernel_keys_;       // group key per global slot
  std::vector<uint64_t> group_rows_;     // rows per global slot
  std::vector<KernelAgg> kernel_aggs_;   // parallel accumulators per agg
  std::vector<uint32_t> gid_;            // per-row group ids (batch scratch)
  std::vector<int32_t> local_code_to_slot_;
  std::vector<int32_t> local_codes_;
  std::vector<uint32_t> local_to_global_;
};

// ---------------------------------------------------------------------------
// Sort / Limit / Union
// ---------------------------------------------------------------------------

class SortOp : public PhysOp {
 public:
  /// `limit` >= 0 turns the operator into a top-K sort: only the first
  /// `limit` rows of the order are materialized (partial sort).
  SortOp(SchemaPtr schema, std::vector<SortKey> keys, int64_t limit,
         PhysOpPtr child)
      : PhysOp(std::move(schema)),
        keys_(std::move(keys)),
        limit_(limit),
        child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Batch* out) override {
    if (done_) return false;
    done_ = true;
    DEX_ASSIGN_OR_RETURN(TablePtr all, Drain(child_.get(), "sort_input"));
    if (all->num_rows() == 0) return false;
    Batch full;
    full.schema = schema_;
    for (size_t c = 0; c < all->num_columns(); ++c) {
      full.columns.push_back(all->column(c));
    }
    std::vector<ColumnPtr> key_cols;
    std::vector<bool> asc;
    for (const SortKey& k : keys_) {
      DEX_ASSIGN_OR_RETURN(ExprPtr bound, k.expr->Bind(*schema_));
      DEX_ASSIGN_OR_RETURN(ColumnPtr col, bound->Evaluate(full));
      key_cols.push_back(std::move(col));
      asc.push_back(k.ascending);
    }
    std::vector<uint32_t> order(all->num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    auto less = [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        const Column& col = *key_cols[k];
        int cmp = 0;
        if (col.type() == DataType::kString) {
          cmp = col.GetString(a).compare(col.GetString(b));
        } else {
          const double va = col.GetNumeric(a);
          const double vb = col.GetNumeric(b);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
        }
        if (cmp != 0) return asc[k] ? cmp < 0 : cmp > 0;
      }
      return a < b;  // stable tiebreak on the original position
    };
    if (limit_ >= 0 && static_cast<size_t>(limit_) < order.size()) {
      std::partial_sort(order.begin(), order.begin() + limit_, order.end(),
                        less);
      order.resize(static_cast<size_t>(limit_));
    } else {
      std::sort(order.begin(), order.end(), less);
    }
    out->schema = schema_;
    out->columns.clear();
    for (size_t c = 0; c < all->num_columns(); ++c) {
      auto col = std::make_shared<Column>(all->column(c)->type());
      col->AppendGather(*all->column(c), order);
      out->columns.push_back(std::move(col));
    }
    return true;
  }

 private:
  std::vector<SortKey> keys_;
  int64_t limit_;
  PhysOpPtr child_;
  bool done_ = false;
};

class LimitOp : public PhysOp {
 public:
  LimitOp(SchemaPtr schema, int64_t limit, PhysOpPtr child)
      : PhysOp(std::move(schema)), remaining_(limit), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Batch* out) override {
    if (remaining_ <= 0) return false;
    Batch in;
    DEX_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    // LIMIT slices by physical position; materialize the selection first.
    in.Compact();
    if (static_cast<int64_t>(in.num_rows()) <= remaining_) {
      remaining_ -= static_cast<int64_t>(in.num_rows());
      *out = std::move(in);
      return true;
    }
    out->schema = schema_;
    out->columns.clear();
    for (const ColumnPtr& c : in.columns) {
      auto col = std::make_shared<Column>(c->type());
      col->AppendRange(*c, 0, static_cast<size_t>(remaining_));
      out->columns.push_back(std::move(col));
    }
    remaining_ = 0;
    return true;
  }

 private:
  int64_t remaining_;
  PhysOpPtr child_;
};

/// Bag union; also the hub of ALi's rewritten scans (a union of mounts and
/// cache-scans). Children run sequentially — the paper's strategy (b)
/// "run higher operators on sub-tables and then merge" corresponds to
/// pushing operators into these branches before execution.
class UnionOp : public PhysOp {
 public:
  UnionOp(SchemaPtr schema, std::vector<PhysOpPtr> children)
      : PhysOp(std::move(schema)), children_(std::move(children)) {}

  Status Open() override {
    // Children are opened lazily so mounts happen one file at a time.
    return Status::OK();
  }

  Result<bool> Next(Batch* out) override {
    while (current_ < children_.size()) {
      if (!opened_) {
        DEX_RETURN_NOT_OK(children_[current_]->Open());
        opened_ = true;
      }
      Batch in;
      DEX_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(&in));
      if (more) {
        // Normalize column order: children were analyzed against the same
        // width/types, so pass through.
        in.schema = schema_;
        *out = std::move(in);
        return true;
      }
      ++current_;
      opened_ = false;
    }
    return false;
  }

 private:
  std::vector<PhysOpPtr> children_;
  size_t current_ = 0;
  bool opened_ = false;
};

// ---------------------------------------------------------------------------
// Profiling decorator (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

/// Wraps any operator and attributes its Open/Next wall time plus emitted
/// rows/batches to the logical node that produced it. Times are inclusive of
/// children — the child's decorator subtracts nothing; readers interpret the
/// tree Postgres-style ("actual time" at a node covers its subtree).
class ProfiledOp : public PhysOp {
 public:
  ProfiledOp(PhysOpPtr inner, OpProfile* profile)
      : PhysOp(inner->schema()), inner_(std::move(inner)), profile_(profile) {}

  Status Open() override {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = inner_->Open();
    profile_->open_nanos += Elapsed(t0);
    profile_->opens += 1;
    return s;
  }

  Result<bool> Next(Batch* out) override {
    const auto t0 = std::chrono::steady_clock::now();
    Result<bool> r = inner_->Next(out);
    profile_->next_nanos += Elapsed(t0);
    if (r.ok() && r.ValueUnsafe()) {
      profile_->batches += 1;
      profile_->rows_out += out->num_rows();
    }
    return r;
  }

 private:
  static uint64_t Elapsed(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  PhysOpPtr inner_;
  OpProfile* profile_;
};

// ---------------------------------------------------------------------------
// Cancellation decorator
// ---------------------------------------------------------------------------

/// Polls `ExecContext::interrupt_fn` once per Open/Next so a cancelled or
/// deadline-failed query stops between batches instead of running to
/// completion. The check is one std::function call + an atomic load per
/// batch (~1024 rows) — negligible against batch processing cost.
class InterruptCheckOp : public PhysOp {
 public:
  InterruptCheckOp(PhysOpPtr inner, const ExecContext* ctx)
      : PhysOp(inner->schema()), inner_(std::move(inner)), ctx_(ctx) {}

  Status Open() override {
    DEX_RETURN_NOT_OK(ctx_->interrupt_fn());
    return inner_->Open();
  }

  Result<bool> Next(Batch* out) override {
    DEX_RETURN_NOT_OK(ctx_->interrupt_fn());
    return inner_->Next(out);
  }

 private:
  PhysOpPtr inner_;
  const ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Physical planner
// ---------------------------------------------------------------------------

Result<PhysOpPtr> BuildOp(const PlanPtr& plan, ExecContext* ctx);

/// Ei fast path: Join(left, Scan(t)) or Join(left, Filter(Scan(t))) where t
/// has an index exactly matching the right-side equi-key columns.
Result<PhysOpPtr> TryBuildIndexJoin(const PlanPtr& plan, const JoinKeys& keys,
                                    ExecContext* ctx) {
  if (!ctx->use_index_joins || keys.right_exprs.empty()) return PhysOpPtr{};
  const PlanPtr& right = plan->children[1];
  PlanPtr scan = right;
  ExprPtr right_filter;
  if (right->kind == PlanKind::kFilter &&
      right->children[0]->kind == PlanKind::kScan) {
    right_filter = right->predicate;
    scan = right->children[0];
  } else if (right->kind != PlanKind::kScan) {
    return PhysOpPtr{};
  }
  // All right key exprs must be plain column refs for an index to apply.
  std::vector<size_t> cols;
  for (const ExprPtr& e : keys.right_exprs) {
    if (e->kind() != ExprKind::kColumnRef || e->column_index() < 0) {
      return PhysOpPtr{};
    }
    cols.push_back(static_cast<size_t>(e->column_index()));
  }
  const HashIndex* index = ctx->catalog->FindIndex(scan->table_name, cols);
  if (index == nullptr) return PhysOpPtr{};
  DEX_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(scan->table_name));
  DEX_ASSIGN_OR_RETURN(PhysOpPtr left, BuildOp(plan->children[0], ctx));
  return PhysOpPtr(new IndexJoinOp(plan->output_schema, keys, std::move(left),
                                   scan->table_name, std::move(table), index,
                                   right_filter, ctx));
}

Result<PhysOpPtr> BuildOpInner(const PlanPtr& plan, ExecContext* ctx) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      DEX_ASSIGN_OR_RETURN(TablePtr table, ctx->catalog->GetTable(plan->table_name));
      return PhysOpPtr(
          new ScanOp(plan->output_schema, std::move(table), plan->table_name, ctx));
    }
    case PlanKind::kResultScan: {
      auto it = ctx->named_results.find(plan->result_id);
      if (it == ctx->named_results.end()) {
        return Status::Internal("no materialized result named '" +
                                plan->result_id + "'");
      }
      return PhysOpPtr(new TableSourceOp(plan->output_schema, it->second));
    }
    case PlanKind::kMount:
      return PhysOpPtr(new MountOp(plan->output_schema, plan->table_name,
                                   plan->uri, plan->predicate, ctx));
    case PlanKind::kCacheScan:
      return PhysOpPtr(
          new CacheScanOp(plan->output_schema, plan->table_name, plan->uri, ctx));
    case PlanKind::kFilter: {
      DEX_ASSIGN_OR_RETURN(PhysOpPtr child, BuildOp(plan->children[0], ctx));
      DEX_ASSIGN_OR_RETURN(
          ExprPtr bound, plan->predicate->Bind(*plan->children[0]->output_schema));
      return PhysOpPtr(new FilterOp(plan->output_schema, std::move(bound),
                                    std::move(child), ctx));
    }
    case PlanKind::kProject: {
      DEX_ASSIGN_OR_RETURN(PhysOpPtr child, BuildOp(plan->children[0], ctx));
      std::vector<ExprPtr> bound;
      for (const ExprPtr& e : plan->project_exprs) {
        DEX_ASSIGN_OR_RETURN(ExprPtr b,
                             e->Bind(*plan->children[0]->output_schema));
        bound.push_back(std::move(b));
      }
      return PhysOpPtr(new ProjectOp(plan->output_schema, std::move(bound),
                                     std::move(child), ctx));
    }
    case PlanKind::kJoin: {
      const Schema& left_schema = *plan->children[0]->output_schema;
      const Schema& right_schema = *plan->children[1]->output_schema;
      DEX_ASSIGN_OR_RETURN(
          JoinKeys keys, ExtractJoinKeys(plan->predicate, left_schema,
                                         right_schema, *plan->output_schema));
      DEX_ASSIGN_OR_RETURN(PhysOpPtr index_join,
                           TryBuildIndexJoin(plan, keys, ctx));
      if (index_join != nullptr) return index_join;
      DEX_ASSIGN_OR_RETURN(PhysOpPtr left, BuildOp(plan->children[0], ctx));
      DEX_ASSIGN_OR_RETURN(PhysOpPtr right, BuildOp(plan->children[1], ctx));
      return PhysOpPtr(new HashJoinOp(plan->output_schema, std::move(keys),
                                      std::move(left), std::move(right), ctx));
    }
    case PlanKind::kAggregate: {
      DEX_ASSIGN_OR_RETURN(PhysOpPtr child, BuildOp(plan->children[0], ctx));
      const Schema& input = *plan->children[0]->output_schema;
      std::vector<ExprPtr> groups;
      for (const ExprPtr& g : plan->group_by) {
        DEX_ASSIGN_OR_RETURN(ExprPtr b, g->Bind(input));
        groups.push_back(std::move(b));
      }
      std::vector<ExprPtr> args;
      for (const AggSpec& a : plan->aggregates) {
        if (a.arg != nullptr) {
          DEX_ASSIGN_OR_RETURN(ExprPtr b, a.arg->Bind(input));
          args.push_back(std::move(b));
        } else {
          args.push_back(nullptr);
        }
      }
      return PhysOpPtr(new HashAggOp(plan->output_schema, std::move(groups),
                                     plan->aggregates, std::move(args),
                                     std::move(child), ctx));
    }
    case PlanKind::kSort: {
      DEX_ASSIGN_OR_RETURN(PhysOpPtr child, BuildOp(plan->children[0], ctx));
      return PhysOpPtr(new SortOp(plan->output_schema, plan->sort_keys,
                                  plan->limit, std::move(child)));
    }
    case PlanKind::kLimit: {
      DEX_ASSIGN_OR_RETURN(PhysOpPtr child, BuildOp(plan->children[0], ctx));
      return PhysOpPtr(new LimitOp(plan->output_schema, plan->limit, std::move(child)));
    }
    case PlanKind::kUnion: {
      std::vector<PhysOpPtr> children;
      for (const PlanPtr& c : plan->children) {
        DEX_ASSIGN_OR_RETURN(PhysOpPtr op, BuildOp(c, ctx));
        children.push_back(std::move(op));
      }
      return PhysOpPtr(new UnionOp(plan->output_schema, std::move(children)));
    }
    case PlanKind::kStageBreak:
      // Transparent in single-stage execution.
      return BuildOp(plan->children[0], ctx);
  }
  return Status::Internal("unreachable plan kind in BuildOp");
}

Result<PhysOpPtr> BuildOp(const PlanPtr& plan, ExecContext* ctx) {
  DEX_ASSIGN_OR_RETURN(PhysOpPtr op, BuildOpInner(plan, ctx));
  // StageBreak is transparent (its child is already wrapped); profiling it
  // again would only double the decorator overhead on the same pull path.
  if (ctx->profiler != nullptr && plan->kind != PlanKind::kStageBreak) {
    op = PhysOpPtr(
        new ProfiledOp(std::move(op), ctx->profiler->ProfileFor(plan.get())));
  }
  if (ctx->interrupt_fn && plan->kind != PlanKind::kStageBreak) {
    op = PhysOpPtr(new InterruptCheckOp(std::move(op), ctx));
  }
  return op;
}

}  // namespace

Result<TablePtr> ExecutePlan(const PlanPtr& plan, ExecContext* ctx) {
  if (plan->output_schema == nullptr) {
    return Status::Internal("plan was not analyzed before execution");
  }
  DEX_ASSIGN_OR_RETURN(PhysOpPtr root, BuildOp(plan, ctx));
  DEX_RETURN_NOT_OK(root->Open());
  DEX_ASSIGN_OR_RETURN(TablePtr result, Drain(root.get(), "result"));
  ctx->stats.rows_output += result->num_rows();
  return result;
}

}  // namespace dex

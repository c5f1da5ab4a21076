#include "engine/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

namespace dex::kernel {

namespace {

// The branchless selection idiom: unconditionally store the candidate index,
// then advance the cursor by the comparison result. The loop body has no
// data-dependent branch, so the autovectorizer can turn it into compressed
// stores / masked adds.
template <typename T, typename Cmp>
size_t FilterDense(const T* v, size_t n, T lit, uint32_t* sel, Cmp cmp) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += cmp(v[i], lit) ? 1 : 0;
  }
  return k;
}

template <typename T, typename Cmp>
size_t RefineSel(const T* v, T lit, uint32_t* sel, size_t k, Cmp cmp) {
  size_t out = 0;
  for (size_t i = 0; i < k; ++i) {
    const uint32_t row = sel[i];
    sel[out] = row;
    out += cmp(v[row], lit) ? 1 : 0;
  }
  return out;
}

// One switch per batch, not per row: dispatch to a monomorphized loop.
template <typename T>
size_t FilterDispatch(const T* v, size_t n, CompareOp op, T lit,
                      uint32_t* sel) {
  switch (op) {
    case CompareOp::kEq:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a == b; });
    case CompareOp::kNe:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a != b; });
    case CompareOp::kLt:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a < b; });
    case CompareOp::kLe:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a <= b; });
    case CompareOp::kGt:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a > b; });
    case CompareOp::kGe:
      return FilterDense(v, n, lit, sel, [](T a, T b) { return a >= b; });
  }
  return 0;
}

template <typename T>
size_t RefineDispatch(const T* v, CompareOp op, T lit, uint32_t* sel,
                      size_t k) {
  switch (op) {
    case CompareOp::kEq:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a == b; });
    case CompareOp::kNe:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a != b; });
    case CompareOp::kLt:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a < b; });
    case CompareOp::kLe:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a <= b; });
    case CompareOp::kGt:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a > b; });
    case CompareOp::kGe:
      return RefineSel(v, lit, sel, k, [](T a, T b) { return a >= b; });
  }
  return 0;
}

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

/// Lowers one bound conjunct to a KernelConjunct against `schema`, or
/// returns false when only the scalar interpreter can run it.
bool LowerConjunct(const ExprPtr& e, const Schema& schema,
                   KernelConjunct* out) {
  if (e == nullptr || e->kind() != ExprKind::kComparison) return false;
  const ExprPtr& a = e->children()[0];
  const ExprPtr& b = e->children()[1];
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  CompareOp op = e->compare_op();
  if (a->kind() == ExprKind::kColumnRef && b->kind() == ExprKind::kLiteral) {
    col = a.get();
    lit = b.get();
  } else if (a->kind() == ExprKind::kLiteral &&
             b->kind() == ExprKind::kColumnRef) {
    col = b.get();
    lit = a.get();
    op = FlipCompare(op);
  } else {
    return false;
  }
  if (col->column_index() < 0 ||
      static_cast<size_t>(col->column_index()) >= schema.num_fields()) {
    return false;
  }
  const DataType ct = schema.field(col->column_index()).type;
  const Value& v = lit->literal();
  if (v.is_null()) return false;
  out->col = col->column_index();
  out->op = op;
  if (ct == DataType::kDouble) {
    auto d = v.AsDouble();
    if (!d.ok()) return false;
    out->is_f64 = true;
    out->f64 = *d;
    return true;
  }
  if (ct == DataType::kInt64 || ct == DataType::kTimestamp) {
    if (v.type() == DataType::kInt64 || v.type() == DataType::kTimestamp) {
      out->i64 = v.int64();
    } else if (v.type() == DataType::kDouble) {
      // Only integral literals inside int64's range lower; `v < 3.5` over
      // ints keeps the scalar path rather than silently rounding the bound,
      // and the range check keeps the conversion below defined.
      const double d = v.dbl();
      if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d)) return false;
      out->i64 = static_cast<int64_t>(d);
    } else {
      return false;
    }
    out->is_f64 = false;
    return true;
  }
  return false;
}

}  // namespace

bool LowerPredicate(const ExprPtr& pred, const Schema& schema,
                    std::vector<KernelConjunct>* out) {
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(pred, &conjuncts);
  if (conjuncts.empty()) return false;
  out->clear();
  for (const ExprPtr& c : conjuncts) {
    KernelConjunct kc;
    if (!LowerConjunct(c, schema, &kc)) return false;
    out->push_back(kc);
  }
  return true;
}

bool ResolveRowRanges(const Table& table,
                      const std::vector<KernelConjunct>& conjuncts,
                      std::vector<RowRange>* ranges, bool* exact) {
  const std::vector<size_t>* starts = table.run_starts();
  if (starts == nullptr) return false;
  const int col = static_cast<int>(table.run_column());
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool bounded = false;
  bool empty = false;  // a strict bound past an int64 extreme
  bool all = true;
  for (const KernelConjunct& c : conjuncts) {
    if (c.col != col || c.is_f64 || c.op == CompareOp::kNe) {
      all = false;
      continue;
    }
    bounded = true;
    switch (c.op) {
      case CompareOp::kEq:
        lo = std::max(lo, c.i64);
        hi = std::min(hi, c.i64);
        break;
      case CompareOp::kGe:
        lo = std::max(lo, c.i64);
        break;
      case CompareOp::kGt:
        if (c.i64 == std::numeric_limits<int64_t>::max()) empty = true;
        else lo = std::max(lo, c.i64 + 1);
        break;
      case CompareOp::kLe:
        hi = std::min(hi, c.i64);
        break;
      case CompareOp::kLt:
        if (c.i64 == std::numeric_limits<int64_t>::min()) empty = true;
        else hi = std::min(hi, c.i64 - 1);
        break;
      case CompareOp::kNe:
        break;
    }
  }
  if (!bounded) return false;
  if (exact != nullptr) *exact = all;
  ranges->clear();
  if (empty || lo > hi) return true;
  const int64_t* t = table.column(static_cast<size_t>(col))->data_i64();
  for (size_t r = 0; r < starts->size(); ++r) {
    const size_t begin = (*starts)[r];
    const size_t end =
        r + 1 < starts->size() ? (*starts)[r + 1] : table.num_rows();
    if (begin == end || t[begin] > hi || t[end - 1] < lo) continue;
    const size_t b =
        static_cast<size_t>(std::lower_bound(t + begin, t + end, lo) - t);
    const size_t e =
        static_cast<size_t>(std::upper_bound(t + b, t + end, hi) - t);
    if (b == e) continue;
    if (!ranges->empty() && ranges->back().end == b) {
      ranges->back().end = e;
    } else {
      ranges->push_back({b, e});
    }
  }
  return true;
}

PredicateSelector::PredicateSelector(ExprPtr bound_pred, const Schema& schema,
                                     bool use_kernels)
    : predicate_(std::move(bound_pred)) {
  uses_kernels_ =
      use_kernels && LowerPredicate(predicate_, schema, &conjuncts_);
}

Status PredicateSelector::Select(Batch* batch,
                                 std::vector<uint32_t>* selected) const {
  if (!uses_kernels_) {
    batch->Compact();  // the interpreter wants dense physical rows
    DEX_ASSIGN_OR_RETURN(ColumnPtr mask, predicate_->Evaluate(*batch));
    const size_t n = batch->num_rows();
    const int64_t* bits = mask->data_i64();
    selected->clear();
    selected->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (bits[i] != 0) selected->push_back(static_cast<uint32_t>(i));
    }
    return Status::OK();
  }
  // The first conjunct builds the selection (or the batch's incoming
  // selection seeds it); the rest refine it in place.
  size_t k;
  size_t first = 0;
  if (batch->has_selection) {
    *selected = std::move(batch->selection);
    batch->selection.clear();
    batch->has_selection = false;
    k = selected->size();
  } else {
    const size_t n = batch->physical_rows();
    selected->resize(n);
    const KernelConjunct& c = conjuncts_[0];
    const Column& col = *batch->columns[c.col];
    k = c.is_f64 ? FilterF64(col.data_f64(), n, c.op, c.f64, selected->data())
                 : FilterI64(col.data_i64(), n, c.op, c.i64, selected->data());
    first = 1;
  }
  for (size_t ci = first; ci < conjuncts_.size() && k > 0; ++ci) {
    const KernelConjunct& c = conjuncts_[ci];
    const Column& col = *batch->columns[c.col];
    k = c.is_f64
            ? RefineF64(col.data_f64(), c.op, c.f64, selected->data(), k)
            : RefineI64(col.data_i64(), c.op, c.i64, selected->data(), k);
  }
  selected->resize(k);
  return Status::OK();
}

size_t FilterF64(const double* v, size_t n, CompareOp op, double lit,
                 uint32_t* sel) {
  return FilterDispatch(v, n, op, lit, sel);
}

size_t FilterI64(const int64_t* v, size_t n, CompareOp op, int64_t lit,
                 uint32_t* sel) {
  return FilterDispatch(v, n, op, lit, sel);
}

size_t RefineF64(const double* v, CompareOp op, double lit, uint32_t* sel,
                 size_t k) {
  return RefineDispatch(v, op, lit, sel, k);
}

size_t RefineI64(const int64_t* v, CompareOp op, int64_t lit, uint32_t* sel,
                 size_t k) {
  return RefineDispatch(v, op, lit, sel, k);
}

NumericAgg AggF64(const double* v, size_t n) {
  NumericAgg out;
  if (n == 0) return out;
  double mn = v[0], mx = v[0], sum = 0;
  for (size_t i = 0; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
    sum += v[i];
  }
  out.min = mn;
  out.max = mx;
  out.sum = sum;
  out.count = n;
  return out;
}

NumericAgg AggI64(const int64_t* v, size_t n) {
  NumericAgg out;
  if (n == 0) return out;
  int64_t mn = v[0], mx = v[0], isum = 0;
  for (size_t i = 0; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
    isum += v[i];
  }
  out.min = static_cast<double>(mn);
  out.max = static_cast<double>(mx);
  out.imin = mn;
  out.imax = mx;
  out.isum = isum;
  out.sum = static_cast<double>(isum);
  out.count = n;
  return out;
}

NumericAgg AggI32(const int32_t* v, size_t n) {
  NumericAgg out;
  if (n == 0) return out;
  int32_t mn = v[0], mx = v[0];
  int64_t isum = 0;
  for (size_t i = 0; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
    isum += v[i];
  }
  out.min = static_cast<double>(mn);
  out.max = static_cast<double>(mx);
  out.imin = mn;
  out.imax = mx;
  out.isum = isum;
  out.sum = static_cast<double>(isum);
  out.count = n;
  return out;
}

NumericAgg AggF64Selected(const double* v, const uint32_t* sel, size_t k) {
  NumericAgg out;
  if (k == 0) return out;
  double mn = v[sel[0]], mx = v[sel[0]], sum = 0;
  for (size_t i = 0; i < k; ++i) {
    const double x = v[sel[i]];
    mn = std::min(mn, x);
    mx = std::max(mx, x);
    sum += x;
  }
  out.min = mn;
  out.max = mx;
  out.sum = sum;
  out.count = k;
  return out;
}

NumericAgg AggI64Selected(const int64_t* v, const uint32_t* sel, size_t k) {
  NumericAgg out;
  if (k == 0) return out;
  int64_t mn = v[sel[0]], mx = v[sel[0]], isum = 0;
  for (size_t i = 0; i < k; ++i) {
    const int64_t x = v[sel[i]];
    mn = std::min(mn, x);
    mx = std::max(mx, x);
    isum += x;
  }
  out.min = static_cast<double>(mn);
  out.max = static_cast<double>(mx);
  out.imin = mn;
  out.imax = mx;
  out.isum = isum;
  out.sum = static_cast<double>(isum);
  out.count = k;
  return out;
}

void GroupByCodes(const int32_t* codes, const uint32_t* sel, size_t k,
                  size_t n, std::vector<int32_t>* code_to_group,
                  std::vector<int32_t>* group_codes, uint32_t* out_gid) {
  const size_t rows = sel != nullptr ? k : n;
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t row = sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
    const int32_t code = codes[row];
    if (static_cast<size_t>(code) >= code_to_group->size()) {
      code_to_group->resize(static_cast<size_t>(code) + 1, -1);
    }
    int32_t slot = (*code_to_group)[static_cast<size_t>(code)];
    if (slot < 0) {
      slot = static_cast<int32_t>(group_codes->size());
      (*code_to_group)[static_cast<size_t>(code)] = slot;
      group_codes->push_back(code);
    }
    out_gid[i] = static_cast<uint32_t>(slot);
  }
}

namespace {

/// Calls `fold(g, begin, end)` for each maximal run [begin, end) of the
/// processed rows that share group id g, in row order.
template <typename Fold>
void ForEachGroupRun(const uint32_t* gid, size_t k, Fold fold) {
  for (size_t begin = 0; begin < k;) {
    const uint32_t g = gid[begin];
    size_t end = begin + 1;
    while (end < k && gid[end] == g) ++end;
    fold(g, begin, end);
    begin = end;
  }
}

template <typename T>
void FoldRun(const T* v, const uint32_t* sel, size_t begin, size_t end, T* mn,
             T* mx, double* sum, int64_t* isum, uint8_t* seen) {
  if (begin == end) return;
  if (!*seen) {
    *seen = 1;
    *mn = *mx = v[sel != nullptr ? sel[begin] : begin];
  }
  T lo = *mn, hi = *mx;
  double s = *sum;
  int64_t is = 0;
  const auto fold = [&](T x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    s += static_cast<double>(x);
    if constexpr (std::is_integral_v<T>) is += x;
  };
  if (sel != nullptr) {
    for (size_t i = begin; i < end; ++i) fold(v[sel[i]]);
  } else {
    for (size_t i = begin; i < end; ++i) fold(v[i]);
  }
  *mn = lo;
  *mx = hi;
  *sum = s;
  if constexpr (std::is_integral_v<T>) *isum += is;
}

}  // namespace

void FoldRunF64(const double* v, const uint32_t* sel, size_t begin, size_t end,
                double* min, double* max, double* sum, uint8_t* seen) {
  FoldRun(v, sel, begin, end, min, max, sum, nullptr, seen);
}

void FoldRunI64(const int64_t* v, const uint32_t* sel, size_t begin,
                size_t end, int64_t* imin, int64_t* imax, double* sum,
                int64_t* isum, uint8_t* seen) {
  FoldRun(v, sel, begin, end, imin, imax, sum, isum, seen);
}

void GroupAccumF64(const double* v, const uint32_t* sel, size_t k,
                   const uint32_t* gid, double* min, double* max, double* sum,
                   uint8_t* seen) {
  ForEachGroupRun(gid, k, [&](uint32_t g, size_t begin, size_t end) {
    FoldRun(v, sel, begin, end, &min[g], &max[g], &sum[g], nullptr, &seen[g]);
  });
}

void GroupAccumI64(const int64_t* v, const uint32_t* sel, size_t k,
                   const uint32_t* gid, int64_t* imin, int64_t* imax,
                   double* sum, int64_t* isum, uint8_t* seen) {
  ForEachGroupRun(gid, k, [&](uint32_t g, size_t begin, size_t end) {
    FoldRun(v, sel, begin, end, &imin[g], &imax[g], &sum[g], &isum[g],
            &seen[g]);
  });
}

}  // namespace dex::kernel

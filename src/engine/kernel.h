#ifndef DEX_ENGINE_KERNEL_H_
#define DEX_ENGINE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/batch.h"
#include "engine/expr.h"
#include "storage/schema.h"

namespace dex::kernel {

/// \brief SIMD-friendly tight-loop kernels for the post-prune residual.
///
/// Every kernel is a branch-free (data-independent control flow) loop over a
/// contiguous span, written so the autovectorizer can keep it in vector
/// registers: comparisons become masks added to a running selection cursor,
/// aggregates are straight-line min/max/sum reductions. No allocation, no
/// virtual dispatch, no Status plumbing — eligibility is decided once per
/// operator (PredicateSelector for filters, HashAggOp for aggregates), which
/// falls back to the scalar expression interpreter for anything these
/// kernels do not cover.
///
/// Selection vectors are ascending row indices into the span (see
/// engine/batch.h for the ownership contract). All kernels are pure
/// functions and thread-safe.

// -- Predicate → selection vector ------------------------------------------

/// Appends the indices in [0, n) whose value satisfies `v[i] op lit` to
/// `sel` (caller guarantees capacity ≥ n). Returns the match count.
size_t FilterF64(const double* v, size_t n, CompareOp op, double lit,
                 uint32_t* sel);
size_t FilterI64(const int64_t* v, size_t n, CompareOp op, int64_t lit,
                 uint32_t* sel);

/// Refines an existing selection in place: keeps only the rows of
/// `sel[0..k)` whose value satisfies the predicate (logical AND of
/// conjuncts). Returns the surviving count.
size_t RefineF64(const double* v, CompareOp op, double lit, uint32_t* sel,
                 size_t k);
size_t RefineI64(const int64_t* v, CompareOp op, int64_t lit, uint32_t* sel,
                 size_t k);

// -- Predicate lowering and the predicate → selection path ----------------

/// One kernel-runnable conjunct: physical column `col` `op` typed literal.
struct KernelConjunct {
  int col = -1;
  CompareOp op = CompareOp::kEq;
  bool is_f64 = false;
  double f64 = 0;
  int64_t i64 = 0;
};

/// Lowers a bound predicate into kernel conjuncts: an AND of
/// column-vs-literal comparisons over numeric columns of `schema`, either
/// side literal. Returns false when only the scalar interpreter can run it
/// (OR, NOT, LIKE, string columns, a non-integral literal against an
/// integer column, ...).
bool LowerPredicate(const ExprPtr& pred, const Schema& schema,
                    std::vector<KernelConjunct>* out);

/// \brief The one way a bound predicate turns a batch into a selection
/// vector, shared by FilterOp, the join residual filters and the mount's
/// fused select. The predicate is lowered once, at construction; Select()
/// runs the kernels when it lowered and `use_kernels` is set, and the
/// expression interpreter otherwise. Both paths select the same rows. It
/// feeds no counters: callers that report kernel coverage ask
/// uses_kernels().
class PredicateSelector {
 public:
  /// `bound_pred` must be bound against `schema`, the schema of the batches
  /// Select() will see.
  PredicateSelector(ExprPtr bound_pred, const Schema& schema,
                    bool use_kernels);

  bool uses_kernels() const { return uses_kernels_; }

  /// Replaces `*selected` with the ascending physical rows of `batch` that
  /// satisfy the predicate. The kernels refine an incoming selection (and
  /// take it out of the batch); the interpreter first compacts the batch, so
  /// its indices refer to the batch's new dense columns.
  Status Select(Batch* batch, std::vector<uint32_t>* selected) const;

 private:
  ExprPtr predicate_;
  std::vector<KernelConjunct> conjuncts_;
  bool uses_kernels_ = false;
};

// -- Aggregates over contiguous spans --------------------------------------

/// min/max/sum/count of a numeric span. The `i*` fields carry exact integer
/// results for int64 inputs (doubles leave them 0).
struct NumericAgg {
  double min = 0;
  double max = 0;
  double sum = 0;
  int64_t imin = 0;
  int64_t imax = 0;
  int64_t isum = 0;
  uint64_t count = 0;
};

NumericAgg AggF64(const double* v, size_t n);
NumericAgg AggI64(const int64_t* v, size_t n);
/// int32 spans (decoded Steim samples) — one pass, no widening copy.
NumericAgg AggI32(const int32_t* v, size_t n);
/// Same, restricted to the rows of `sel[0..k)`.
NumericAgg AggF64Selected(const double* v, const uint32_t* sel, size_t k);
NumericAgg AggI64Selected(const int64_t* v, const uint32_t* sel, size_t k);

// -- Compact group-by over dictionary codes --------------------------------

/// Assigns each (selected) row a dense group id keyed by its dictionary
/// code — an array lookup instead of a string-keyed hash probe. `sel` may be
/// null (dense span of n rows). `code_to_group` is the caller-owned
/// code→slot table, grown on demand (-1 = unseen); `group_codes` records the
/// code of each slot in first-seen order, so group emission order matches
/// the hash-map path's insertion order exactly. Writes one group id per
/// processed row into `out_gid` (capacity: k, or n when sel is null).
void GroupByCodes(const int32_t* codes, const uint32_t* sel, size_t k,
                  size_t n, std::vector<int32_t>* code_to_group,
                  std::vector<int32_t>* group_codes, uint32_t* out_gid);

/// Grouped accumulation: folds `v[row]` into per-group accumulators, where
/// row r of the processed set has group id `gid[r]`. Accumulator arrays are
/// parallel, sized `num_groups`; `seen` tracks whether a group already has a
/// value (min/max seeding).
void GroupAccumF64(const double* v, const uint32_t* sel, size_t k,
                   const uint32_t* gid, double* min, double* max, double* sum,
                   uint64_t* count, uint8_t* seen);
/// Int64 variant keeps exact integer min/max/sum alongside the double sum
/// (AVG needs the double; MIN/MAX/SUM of int columns must stay exact).
void GroupAccumI64(const int64_t* v, const uint32_t* sel, size_t k,
                   const uint32_t* gid, int64_t* imin, int64_t* imax,
                   double* sum, int64_t* isum, uint64_t* count,
                   uint8_t* seen);

}  // namespace dex::kernel

#endif  // DEX_ENGINE_KERNEL_H_

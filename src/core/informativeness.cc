#include "core/informativeness.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/time_utils.h"
#include "core/seismic_schema.h"

namespace dex {

bool ExtractBounds(const ExprPtr& predicate, const std::string& column_name,
                   double* lo, double* hi) {
  *lo = -std::numeric_limits<double>::infinity();
  *hi = std::numeric_limits<double>::infinity();
  if (predicate == nullptr) return false;
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(predicate, &conjuncts);
  bool constrained = false;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kComparison) continue;
    const ExprPtr& a = c->children()[0];
    const ExprPtr& b = c->children()[1];
    // Normalize to: column <op> literal.
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    CompareOp op = c->compare_op();
    if (a->kind() == ExprKind::kColumnRef && b->kind() == ExprKind::kLiteral) {
      col = a.get();
      lit = b.get();
    } else if (b->kind() == ExprKind::kColumnRef &&
               a->kind() == ExprKind::kLiteral) {
      col = b.get();
      lit = a.get();
      // Mirror the operator: 5 < x  ≡  x > 5.
      switch (op) {
        case CompareOp::kLt:
          op = CompareOp::kGt;
          break;
        case CompareOp::kLe:
          op = CompareOp::kGe;
          break;
        case CompareOp::kGt:
          op = CompareOp::kLt;
          break;
        case CompareOp::kGe:
          op = CompareOp::kLe;
          break;
        default:
          break;
      }
    } else {
      continue;
    }
    // Match by unqualified column name.
    std::string name = col->column_name();
    const size_t dot = name.find('.');
    if (dot != std::string::npos) name = name.substr(dot + 1);
    if (name != column_name) continue;
    // Predicates here are unbound: ISO-8601 string literals have not been
    // coerced to timestamps yet, so parse them explicitly.
    auto v = lit->literal().AsDouble();
    if (!v.ok() && lit->literal().type() == DataType::kString &&
        LooksLikeIso8601(lit->literal().str())) {
      auto ms = ParseIso8601(lit->literal().str());
      if (ms.ok()) v = static_cast<double>(*ms);
    }
    if (!v.ok()) continue;
    switch (op) {
      case CompareOp::kGt:
      case CompareOp::kGe:
        *lo = std::max(*lo, *v);
        constrained = true;
        break;
      case CompareOp::kLt:
      case CompareOp::kLe:
        *hi = std::min(*hi, *v);
        constrained = true;
        break;
      case CompareOp::kEq:
        *lo = std::max(*lo, *v);
        *hi = std::min(*hi, *v);
        constrained = true;
        break;
      default:
        break;
    }
  }
  return constrained;
}

CachedWindow SummarizeTimeWindow(const ExprPtr& predicate) {
  CachedWindow window;
  if (predicate == nullptr) return window;
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(predicate, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kComparison) return window;
    const ExprPtr& a = c->children()[0];
    const ExprPtr& b = c->children()[1];
    const Expr* col = nullptr;
    if (a->kind() == ExprKind::kColumnRef && b->kind() == ExprKind::kLiteral) {
      col = a.get();
    } else if (b->kind() == ExprKind::kColumnRef &&
               a->kind() == ExprKind::kLiteral) {
      col = b.get();
    } else {
      return window;
    }
    std::string name = col->column_name();
    const size_t dot = name.find('.');
    if (dot != std::string::npos) name = name.substr(dot + 1);
    if (name != "sample_time") return window;
    // Equality/range only; <> would make the cached set non-contiguous.
    if (c->compare_op() == CompareOp::kNe) return window;
  }
  double lo, hi;
  if (!ExtractBounds(predicate, "sample_time", &lo, &hi)) return window;
  window.pure = true;
  window.lo = lo;
  window.hi = hi;
  return window;
}

Result<size_t> FirstUriColumn(const Schema& schema) {
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (schema.field(i).name == "uri") return i;
  }
  return Status::Internal(
      "stage-1 result carries no 'uri' column; files of interest are "
      "unidentifiable in schema " +
      schema.ToString());
}

namespace {

/// The fraction of a record's [start, end] window inside [lo, hi].
double WindowFraction(int64_t start_ms, int64_t end_ms, double lo, double hi) {
  const double start = static_cast<double>(start_ms);
  const double end = static_cast<double>(end_ms);
  const double span = std::max(1.0, end - start);
  const double overlap = std::max(0.0, std::min(hi, end) - std::max(lo, start));
  return std::min(1.0, overlap / span);
}

/// Per code of `uri`'s dictionary: whether the rewrite reads that file.
std::vector<char> FilesRead(const Column& uri,
                            const std::vector<FileDecision>& decisions) {
  std::vector<char> read(uri.dict()->size(), 0);
  for (const FileDecision& d : decisions) {
    if (d.action == FileDecision::Action::kSkip) continue;
    const int32_t code = uri.dict()->Find(d.uri);
    if (code >= 0) read[static_cast<size_t>(code)] = 1;
  }
  return read;
}

}  // namespace

Result<BreakpointInfo> EstimateInformativeness(
    const TablePtr& qf_result, const std::vector<FileDecision>& decisions,
    const Catalog& catalog, const ExprPtr& d_predicate,
    const InformativenessModel& model) {
  BreakpointInfo info;
  bool reads_any = false;
  for (const FileDecision& d : decisions) {
    switch (d.action) {
      case FileDecision::Action::kMount:
        info.bytes_to_mount += d.size_bytes;
        reads_any = true;
        break;
      case FileDecision::Action::kCacheScan:
        ++info.files_cached;
        reads_any = true;
        break;
      case FileDecision::Action::kSkip:
        ++info.files_pruned;
        break;
    }
  }

  double t_lo, t_hi;
  const bool has_window = ExtractBounds(d_predicate, "sample_time", &t_lo, &t_hi);
  // One record of a file the rewrite reads; `frac` of its rows fall inside
  // the query's sample_time window.
  const auto add_record = [&info](int64_t n, double frac) {
    info.est_rows_to_ingest += static_cast<uint64_t>(n);
    info.est_result_rows += static_cast<uint64_t>(frac * static_cast<double>(n));
  };

  const Schema* qf_schema =
      qf_result == nullptr ? nullptr : qf_result->schema().get();
  const int n_samples_idx =
      qf_schema == nullptr ? -1 : qf_schema->FindFieldIndex("n_samples");
  if (reads_any && n_samples_idx >= 0) {
    // Record-level estimates from Q_f's own output: the stage-1 result
    // carries R.start_time / R.end_time / R.n_samples for every record of
    // interest.
    DEX_ASSIGN_OR_RETURN(size_t uri_idx, FirstUriColumn(*qf_schema));
    const auto column = [&qf_result](int idx) -> const Column* {
      return idx < 0 ? nullptr : qf_result->column(static_cast<size_t>(idx)).get();
    };
    const Column& uri = *qf_result->column(uri_idx);
    const Column& n_samples = *column(n_samples_idx);
    const Column* record_id = column(qf_schema->FindFieldIndex("record_id"));
    const Column* start = column(qf_schema->FindFieldIndex("start_time"));
    const Column* end = column(qf_schema->FindFieldIndex("end_time"));
    const bool windowed = has_window && start != nullptr && end != nullptr;
    const std::vector<char> read = FilesRead(uri, decisions);
    // Q_f output can contain duplicate records when several metadata rows
    // join to the same record; dedupe on (uri code, record_id) when the
    // record id is there. Record ids are uint32 record indexes.
    std::unordered_set<uint64_t> seen;
    if (record_id != nullptr) seen.reserve(qf_result->num_rows());
    for (size_t r = 0; r < qf_result->num_rows(); ++r) {
      const int32_t code = uri.GetStringCode(r);
      if (!read[static_cast<size_t>(code)]) continue;
      if (record_id != nullptr) {
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(code)) << 32) |
            static_cast<uint32_t>(record_id->GetInt64(r));
        if (!seen.insert(key).second) continue;
      }
      add_record(n_samples.GetInt64(r),
                 windowed ? WindowFraction(start->GetInt64(r),
                                           end->GetInt64(r), t_lo, t_hi)
                          : 1.0);
    }
  } else if (reads_any) {
    // Q_f carried no record-level columns (the query joined F with D
    // directly, or read no metadata at all): one pass over the R table of
    // the query's epoch, which lists each record once.
    DEX_ASSIGN_OR_RETURN(TablePtr r_table, catalog.GetTable(kRecordTableName));
    const Column& uri = *r_table->column(0);
    const Column& start = *r_table->column(2);
    const Column& end = *r_table->column(3);
    const Column& n_samples = *r_table->column(5);
    const std::vector<char> read = FilesRead(uri, decisions);
    for (size_t r = 0; r < r_table->num_rows(); ++r) {
      if (!read[static_cast<size_t>(uri.GetStringCode(r))]) continue;
      add_record(n_samples.GetInt64(r),
                 has_window ? WindowFraction(start.GetInt64(r), end.GetInt64(r),
                                             t_lo, t_hi)
                            : 1.0);
    }
  }

  info.est_stage2_seconds =
      static_cast<double>(info.bytes_to_mount) / (model.mount_mb_per_sec * 1e6) +
      static_cast<double>(info.est_rows_to_ingest) / model.ingest_rows_per_sec;
  return info;
}

}  // namespace dex

#include "sql/binder.h"

#include <algorithm>
#include <optional>

#include "sql/parser.h"

namespace dex::sql {

namespace {

/// Display name for an unaliased select item.
std::string DisplayName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.is_aggregate) {
    std::string inner = item.agg_star ? "*" : item.expr->ToString();
    return std::string(AggFuncToString(item.agg_fn)) + "(" + inner + ")";
  }
  if (item.expr->kind() == ExprKind::kColumnRef) {
    // Unqualified output name for plain column selections.
    const std::string& name = item.expr->column_name();
    const size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(dot + 1);
  }
  return item.expr->ToString();
}

/// A copy of interior node `e` over new children `kids`.
ExprPtr WithChildren(const ExprPtr& e, const std::vector<ExprPtr>& kids) {
  switch (e->kind()) {
    case ExprKind::kComparison:
      return Expr::Compare(e->compare_op(), kids[0], kids[1]);
    case ExprKind::kAnd:
      return Expr::And(kids[0], kids[1]);
    case ExprKind::kOr:
      return Expr::Or(kids[0], kids[1]);
    case ExprKind::kNot:
      return Expr::Not(kids[0]);
    case ExprKind::kArithmetic:
      return Expr::Arith(e->arith_op(), kids[0], kids[1]);
    case ExprKind::kLike:
      return Expr::Like(kids[0], e->like_pattern());
    default:
      return e;
  }
}

/// Rebuilds `e`, replacing "#AGG#FN#arg" placeholders with references to the
/// matching aggregate output (adding hidden aggregate specs as needed).
Result<ExprPtr> ResolveHavingExpr(
    const ExprPtr& e, const SelectStmt& stmt, std::vector<AggSpec>* aggs,
    int* agg_ordinal) {
  if (e->kind() == ExprKind::kColumnRef) {
    const std::string& name = e->column_name();
    if (name.rfind("#AGG#", 0) != 0) return e;
    const size_t fn_end = name.find('#', 5);
    if (fn_end == std::string::npos) {
      return Status::Internal("malformed aggregate placeholder " + name);
    }
    const std::string fn_name = name.substr(5, fn_end - 5);
    const std::string arg_repr = name.substr(fn_end + 1);
    AggFunc fn;
    if (fn_name == "COUNT") fn = AggFunc::kCount;
    else if (fn_name == "SUM") fn = AggFunc::kSum;
    else if (fn_name == "AVG") fn = AggFunc::kAvg;
    else if (fn_name == "MIN") fn = AggFunc::kMin;
    else if (fn_name == "MAX") fn = AggFunc::kMax;
    else return Status::Internal("unknown aggregate in HAVING: " + fn_name);
    // Reuse an identical aggregate if the select list already computes it.
    for (const AggSpec& spec : *aggs) {
      const std::string repr = spec.arg == nullptr ? "*" : spec.arg->ToString();
      if (spec.fn == fn && repr == arg_repr) {
        return Expr::ColumnRef(spec.name);
      }
    }
    AggSpec spec;
    spec.fn = fn;
    if (arg_repr != "*") {
      for (const auto& [repr, arg] : stmt.having_aggregate_args) {
        if (repr == arg_repr) {
          spec.arg = arg;
          break;
        }
      }
      if (spec.arg == nullptr) {
        return Status::Internal("lost aggregate argument for HAVING: " +
                                arg_repr);
      }
    }
    spec.name = "agg_" + std::to_string((*agg_ordinal)++);
    const std::string out_name = spec.name;
    aggs->push_back(std::move(spec));
    return Expr::ColumnRef(out_name);
  }
  if (e->children().empty()) return e;
  std::vector<ExprPtr> kids;
  for (const ExprPtr& c : e->children()) {
    DEX_ASSIGN_OR_RETURN(ExprPtr k, ResolveHavingExpr(c, stmt, aggs, agg_ordinal));
    kids.push_back(std::move(k));
  }
  return WithChildren(e, kids);
}

/// `a op b` over two numeric literals, as the interpreter computes it:
/// double when either side is double or for division, int64 otherwise.
/// Null where the interpreter fails (division by zero) or int64 overflows.
std::optional<Value> FoldArith(ArithOp op, const Value& a, const Value& b) {
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble ||
      op == ArithOp::kDiv) {
    const double x = *a.AsDouble();
    const double y = *b.AsDouble();
    if (op == ArithOp::kDiv && y == 0) return std::nullopt;
    return Value::Double(op == ArithOp::kAdd   ? x + y
                         : op == ArithOp::kSub ? x - y
                         : op == ArithOp::kMul ? x * y
                                               : x / y);
  }
  int64_t v = 0;
  const bool overflow =
      op == ArithOp::kAdd   ? __builtin_add_overflow(a.int64(), b.int64(), &v)
      : op == ArithOp::kSub ? __builtin_sub_overflow(a.int64(), b.int64(), &v)
                            : __builtin_mul_overflow(a.int64(), b.int64(), &v);
  if (overflow) return std::nullopt;
  return Value::Int64(v);
}

/// Folds arithmetic on two numeric literals into one literal, bottom-up, so
/// `x > -9` (parsed as `x > (0 - 9)`) reaches the selection kernels and the
/// zone maps as a column-vs-literal comparison. What FoldArith cannot fold
/// stays as written and fails at run time, as before.
ExprPtr FoldLiterals(const ExprPtr& e) {
  if (e == nullptr || e->children().empty()) return e;
  std::vector<ExprPtr> kids;
  bool changed = false;
  for (const ExprPtr& c : e->children()) {
    kids.push_back(FoldLiterals(c));
    changed = changed || kids.back() != c;
  }
  const auto numeric = [](const ExprPtr& k) {
    return k->kind() == ExprKind::kLiteral &&
           (k->literal().type() == DataType::kInt64 ||
            k->literal().type() == DataType::kDouble);
  };
  if (e->kind() == ExprKind::kArithmetic && numeric(kids[0]) &&
      numeric(kids[1])) {
    const std::optional<Value> v =
        FoldArith(e->arith_op(), kids[0]->literal(), kids[1]->literal());
    if (v.has_value()) return Expr::Lit(*v);
  }
  return changed ? WithChildren(e, kids) : e;
}

std::vector<ExprPtr> FoldLiterals(std::vector<ExprPtr> exprs) {
  for (ExprPtr& e : exprs) e = FoldLiterals(e);
  return exprs;
}

}  // namespace

Result<PlanPtr> BindSelect(const SelectStmt& stmt, const Catalog& catalog) {
  if (!catalog.HasTable(stmt.from.name)) {
    return Status::NotFound("unknown table '" + stmt.from.name + "'");
  }
  PlanPtr plan = MakeScan(stmt.from.name);
  for (const JoinClause& join : stmt.joins) {
    if (!catalog.HasTable(join.table.name)) {
      return Status::NotFound("unknown table '" + join.table.name + "'");
    }
    plan = MakeJoin(FoldLiterals(join.on), std::move(plan),
                    MakeScan(join.table.name));
  }
  if (stmt.where != nullptr) {
    plan = MakeFilter(FoldLiterals(stmt.where), std::move(plan));
  }

  const bool has_aggregates =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& i) { return i.is_aggregate; });

  if (has_aggregates) {
    if (stmt.select_star) {
      return Status::InvalidArgument("SELECT * cannot be combined with GROUP BY");
    }
    if (stmt.distinct) {
      return Status::NotImplemented(
          "SELECT DISTINCT with aggregates is not supported");
    }
    // Aggregate output: group keys first, then one field per aggregate item
    // with a collision-free generated name; a final Project restores the
    // select-list order and display names.
    std::vector<AggSpec> aggs;
    std::vector<ExprPtr> out_exprs;
    std::vector<std::string> out_names;
    int agg_ordinal = 0;
    for (const SelectItem& item : stmt.items) {
      if (item.is_aggregate) {
        AggSpec spec;
        spec.fn = item.agg_fn;
        spec.arg = item.agg_star ? nullptr : item.expr;
        if (item.agg_star) spec.fn = AggFunc::kCount;
        spec.name = "agg_" + std::to_string(agg_ordinal++);
        out_exprs.push_back(Expr::ColumnRef(spec.name));
        out_names.push_back(DisplayName(item));
        aggs.push_back(std::move(spec));
      } else {
        // Must match a GROUP BY expression.
        const std::string repr = item.expr->ToString();
        bool found = false;
        for (const ExprPtr& g : stmt.group_by) {
          if (g->ToString() == repr) {
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::InvalidArgument("column " + repr +
                                         " must appear in GROUP BY");
        }
        out_exprs.push_back(FoldLiterals(item.expr));
        out_names.push_back(DisplayName(item));
      }
    }
    if (stmt.items.empty()) {
      return Status::InvalidArgument("empty select list");
    }
    ExprPtr having;
    if (stmt.having != nullptr) {
      DEX_ASSIGN_OR_RETURN(
          having, ResolveHavingExpr(stmt.having, stmt, &aggs, &agg_ordinal));
    }
    // Folded only now: HAVING matches aggregates by their written text.
    for (AggSpec& spec : aggs) spec.arg = FoldLiterals(spec.arg);
    plan = MakeAggregate(FoldLiterals(stmt.group_by), std::move(aggs),
                         std::move(plan));
    if (having != nullptr) {
      plan = MakeFilter(FoldLiterals(having), std::move(plan));
    }
    plan = MakeProject(std::move(out_exprs), std::move(out_names), std::move(plan));
  } else if (stmt.having != nullptr) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  } else if (!stmt.select_star) {
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      exprs.push_back(FoldLiterals(item.expr));
      names.push_back(DisplayName(item));
    }
    if (stmt.distinct) {
      // SELECT DISTINCT a, b ... ≡ group by every select expression.
      plan = MakeAggregate(exprs, {}, std::move(plan));
    }
    plan = MakeProject(std::move(exprs), std::move(names), std::move(plan));
  } else if (stmt.distinct) {
    return Status::NotImplemented("SELECT DISTINCT * is not supported");
  }

  if (!stmt.order_by.empty()) {
    // ORDER BY refers to the output of the select list, whose fields carry
    // display names without qualifiers; remap matching expressions.
    std::vector<SortKey> keys;
    for (const auto& [expr, asc] : stmt.order_by) {
      ExprPtr key = FoldLiterals(expr);
      if (!stmt.select_star) {
        const std::string repr = expr->ToString();
        for (const SelectItem& item : stmt.items) {
          const bool matches_expr =
              !item.is_aggregate && item.expr->ToString() == repr;
          const bool matches_alias = !item.alias.empty() && item.alias == repr;
          if (matches_expr || matches_alias) {
            key = Expr::ColumnRef(DisplayName(item));
            break;
          }
        }
      }
      keys.push_back({std::move(key), asc});
    }
    plan = MakeSort(std::move(keys), std::move(plan));
  }
  if (stmt.limit >= 0) {
    plan = MakeLimit(stmt.limit, std::move(plan));
  }
  DEX_RETURN_NOT_OK(AnalyzePlan(plan, catalog));
  return plan;
}

Result<PlanPtr> PlanQuery(const std::string& sql, const Catalog& catalog) {
  DEX_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  return BindSelect(stmt, catalog);
}

}  // namespace dex::sql

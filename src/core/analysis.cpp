#include "core/analysis.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "minidb/evaluator.h"
#include "minidb/schema.h"

namespace sqloop::core {
namespace {

using minidb::FoldIdentifier;

/// Flattened view of a left-deep FROM clause: base tables in order plus
/// every ON conjunct.
struct FlatFrom {
  struct BaseRef {
    std::string table;  // folded
    std::string alias;  // folded
  };
  std::vector<BaseRef> bases;
  std::vector<const sql::Expr*> on_conjuncts;
  bool only_base_tables = true;
};

void Flatten(const sql::TableRef& ref, FlatFrom& out) {
  switch (ref.kind) {
    case sql::TableRefKind::kBase:
      out.bases.push_back({FoldIdentifier(ref.table_name),
                           FoldIdentifier(ref.alias)});
      return;
    case sql::TableRefKind::kJoin:
      Flatten(*ref.left, out);
      Flatten(*ref.right, out);
      if (ref.on_condition) {
        std::vector<const sql::Expr*> stack = {ref.on_condition.get()};
        while (!stack.empty()) {
          const sql::Expr* e = stack.back();
          stack.pop_back();
          if (e->kind == sql::ExprKind::kBinary &&
              e->binary_op == sql::BinaryOp::kAnd) {
            stack.push_back(e->left.get());
            stack.push_back(e->right.get());
          } else {
            out.on_conjuncts.push_back(e);
          }
        }
      }
      return;
    case sql::TableRefKind::kSubquery:
      out.only_base_tables = false;
      return;
  }
}

/// Every column reference in `expr` must be qualified with an alias from
/// `allowed` (or be unqualified and resolvable to `unqualified_ok` names).
bool RefsConfinedTo(const sql::Expr& expr, const std::set<std::string>& allowed,
                    const std::set<std::string>& unqualified_ok) {
  bool ok = true;
  sql::VisitExpr(expr, [&](const sql::Expr& node) {
    if (node.kind != sql::ExprKind::kColumnRef || !ok) return;
    if (node.qualifier.empty()) {
      if (!unqualified_ok.contains(FoldIdentifier(node.column))) ok = false;
    } else if (!allowed.contains(FoldIdentifier(node.qualifier))) {
      ok = false;
    }
  });
  return ok;
}

void CollectQualifiedColumns(const sql::Expr& expr, const std::string& alias,
                             std::set<std::string>& out) {
  sql::VisitExpr(expr, [&](const sql::Expr& node) {
    if (node.kind == sql::ExprKind::kColumnRef &&
        FoldIdentifier(node.qualifier) == alias) {
      out.insert(FoldIdentifier(node.column));
    }
  });
}

CteAnalysis Fallback(CteAnalysis analysis, std::string reason) {
  analysis.parallelizable = false;
  analysis.reason = std::move(reason);
  return analysis;
}

}  // namespace

CteAnalysis AnalyzeIterativeCte(const sql::WithClause& with) {
  if (with.kind != sql::CteKind::kIterative) {
    throw AnalysisError("AnalyzeIterativeCte expects an iterative CTE");
  }
  if (!with.step) throw AnalysisError("iterative CTE has no ITERATE member");

  CteAnalysis analysis;
  analysis.cte_name = FoldIdentifier(with.name);
  for (const auto& column : with.columns) {
    analysis.columns.push_back(FoldIdentifier(column));
  }
  if (analysis.columns.empty()) {
    return Fallback(std::move(analysis),
                    "the CTE must declare an explicit column list");
  }
  analysis.key_column = analysis.columns[0];

  const sql::SelectStmt& step = *with.step;
  if (step.cores.size() != 1) {
    return Fallback(std::move(analysis),
                    "the iterative member must be a single SELECT");
  }
  if (step.limit || step.offset) {
    return Fallback(std::move(analysis),
                    "LIMIT/OFFSET in the iterative member selects across "
                    "keys; partitions could not apply it locally");
  }
  const sql::SelectCore& core = step.cores[0];
  analysis.where = core.where.get();

  // --- aggregate detection (paper's SUM/MIN/MAX/COUNT/AVG whitelist) ----
  std::vector<const sql::Expr*> aggregates;
  for (const auto& item : core.items) {
    minidb::CollectAggregates(*item.expr, aggregates);
  }
  if (aggregates.empty()) {
    return Fallback(std::move(analysis),
                    "the iterative member uses no supported aggregate "
                    "function (SUM, MIN, MAX, COUNT, AVG)");
  }
  analysis.has_aggregate = true;

  // --- FROM-clause shape -------------------------------------------------
  if (!core.from) {
    return Fallback(std::move(analysis),
                    "the iterative member has no FROM clause");
  }
  FlatFrom flat;
  Flatten(*core.from, flat);
  if (!flat.only_base_tables) {
    return Fallback(std::move(analysis),
                    "subqueries in the iterative member's FROM clause are "
                    "not parallelized");
  }

  std::vector<size_t> cte_refs;
  std::vector<size_t> other_refs;
  for (size_t i = 0; i < flat.bases.size(); ++i) {
    if (flat.bases[i].table == analysis.cte_name) {
      cte_refs.push_back(i);
    } else {
      other_refs.push_back(i);
    }
  }
  if (cte_refs.empty()) {
    return Fallback(std::move(analysis),
                    "the iterative member never reads the CTE table");
  }
  if (cte_refs.size() != 2) {
    return Fallback(std::move(analysis),
                    "parallelization requires exactly one self-join of the "
                    "CTE table (found " + std::to_string(cte_refs.size()) +
                        " references)");
  }
  if (other_refs.size() != 1) {
    return Fallback(std::move(analysis),
                    "parallelization requires exactly one bridging relation "
                    "between the CTE references");
  }
  analysis.primary_alias = flat.bases[cte_refs[0]].alias;
  analysis.self_alias = flat.bases[cte_refs[1]].alias;
  analysis.mid_table = flat.bases[other_refs[0]].table;
  analysis.mid_alias = flat.bases[other_refs[0]].alias;
  analysis.primary_leftmost = cte_refs[0] == 0;

  // --- join keys ----------------------------------------------------------
  // Expect R.key = M.<to> and Self.key = M.<from> among the ON conjuncts.
  for (const sql::Expr* conjunct : flat.on_conjuncts) {
    if (conjunct->kind != sql::ExprKind::kBinary ||
        conjunct->binary_op != sql::BinaryOp::kEq ||
        conjunct->left->kind != sql::ExprKind::kColumnRef ||
        conjunct->right->kind != sql::ExprKind::kColumnRef) {
      continue;
    }
    const auto classify = [&](const sql::Expr& a, const sql::Expr& b) {
      const std::string aq = FoldIdentifier(a.qualifier);
      const std::string ac = FoldIdentifier(a.column);
      const std::string bq = FoldIdentifier(b.qualifier);
      const std::string bc = FoldIdentifier(b.column);
      if (bq != analysis.mid_alias) return;
      if (aq == analysis.primary_alias && ac == analysis.key_column) {
        analysis.mid_to_key = bc;
      } else if (aq == analysis.self_alias && ac == analysis.key_column) {
        analysis.mid_from_key = bc;
      }
    };
    classify(*conjunct->left, *conjunct->right);
    classify(*conjunct->right, *conjunct->left);
  }
  if (analysis.mid_to_key.empty() || analysis.mid_from_key.empty()) {
    return Fallback(std::move(analysis),
                    "could not identify R.key = mid.<to> and "
                    "Self.key = mid.<from> join conditions");
  }

  // --- GROUP BY must be exactly R.key -------------------------------------
  // A key reference qualified with another alias (Self.key, say) names a
  // different column; an unqualified one is ambiguous between R and Self.
  const auto is_primary_key = [&](const sql::Expr& expr) {
    return expr.kind == sql::ExprKind::kColumnRef &&
           FoldIdentifier(expr.column) == analysis.key_column &&
           FoldIdentifier(expr.qualifier) == analysis.primary_alias;
  };
  if (core.group_by.size() != 1 || !is_primary_key(*core.group_by[0])) {
    return Fallback(std::move(analysis),
                    "the iterative member must GROUP BY the key column");
  }

  // --- classify output columns -------------------------------------------
  if (core.items.size() != analysis.columns.size()) {
    return Fallback(std::move(analysis),
                    "the iterative member's SELECT list width differs from "
                    "the declared CTE columns");
  }
  if (!is_primary_key(*core.items[0].expr)) {
    return Fallback(std::move(analysis),
                    "the first output column must echo the key (Rid)");
  }

  const std::set<std::string> own_aliases = {analysis.primary_alias};
  const std::set<std::string> exchange_aliases = {analysis.self_alias,
                                                  analysis.mid_alias};
  const std::set<std::string> cte_columns(analysis.columns.begin(),
                                          analysis.columns.end());

  for (size_t i = 1; i < core.items.size(); ++i) {
    const sql::Expr& expr = *core.items[i].expr;
    if (minidb::ContainsAggregate(expr)) {
      if (analysis.delta_column_index >= 0) {
        return Fallback(std::move(analysis),
                        "more than one aggregated (Ridelta) output column");
      }
      if (!RefsConfinedTo(expr, exchange_aliases, {})) {
        return Fallback(std::move(analysis),
                        "the aggregated column may only read the self-join "
                        "and bridging relations");
      }
      analysis.delta_column_index = static_cast<int>(i);
      analysis.delta_column = analysis.columns[i];
      analysis.delta_expr = &expr;
      // Which aggregate drives the exchange (paper §V-D).
      std::vector<const sql::Expr*> in_item;
      minidb::CollectAggregates(expr, in_item);
      if (in_item.size() != 1) {
        return Fallback(std::move(analysis),
                        "the aggregated column must contain exactly one "
                        "aggregate call");
      }
      analysis.aggregate = in_item[0]->agg_func;
      if (in_item[0]->agg_distinct) {
        return Fallback(std::move(analysis),
                        "DISTINCT aggregates are not distributive and "
                        "cannot be parallelized");
      }
    } else {
      if (!RefsConfinedTo(expr, own_aliases, cte_columns)) {
        return Fallback(std::move(analysis),
                        "non-aggregated column " + analysis.columns[i] +
                            " reads other relations; partitions could not "
                            "compute it locally");
      }
      analysis.own_columns.push_back(
          {static_cast<int>(i), analysis.columns[i], &expr});
    }
  }
  if (analysis.delta_column_index < 0) {
    return Fallback(std::move(analysis),
                    "no aggregated (Ridelta) output column found");
  }

  // --- WHERE may only constrain the exchange side --------------------------
  if (analysis.where != nullptr &&
      !RefsConfinedTo(*analysis.where, exchange_aliases, {})) {
    return Fallback(std::move(analysis),
                    "the WHERE clause reads the primary CTE reference; "
                    "messages could not be produced per partition");
  }

  // --- mid columns the message query must materialize (Rmjoin, §V-B) ------
  std::set<std::string> mid_columns = {analysis.mid_to_key,
                                       analysis.mid_from_key};
  CollectQualifiedColumns(*analysis.delta_expr, analysis.mid_alias,
                          mid_columns);
  if (analysis.where != nullptr) {
    CollectQualifiedColumns(*analysis.where, analysis.mid_alias, mid_columns);
  }
  analysis.mid_columns_used.assign(mid_columns.begin(), mid_columns.end());

  analysis.parallelizable = true;
  return analysis;
}

}  // namespace sqloop::core

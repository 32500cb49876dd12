#include "minidb/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/error.h"
#include "common/stopwatch.h"
#include "minidb/dump.h"
#include "minidb/int_key_table.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "telemetry/hooks.h"

namespace sqloop::minidb {
namespace {

// ---------------------------------------------------------------------------
// Lock management: all tables a statement touches are locked up front in
// name order (shared for reads, exclusive for writes). Sorted acquisition
// makes deadlock impossible; std::map keeps the order for us.
// ---------------------------------------------------------------------------

class LockSet {
 public:
  explicit LockSet(telemetry::Recorder* recorder = nullptr)
      : recorder_(recorder) {}
  LockSet(const LockSet&) = delete;
  LockSet& operator=(const LockSet&) = delete;

  void Request(std::shared_ptr<Table> table, bool write) {
    if (!table) return;
    const std::string name = table->name();
    auto [it, inserted] =
        entries_.try_emplace(name, Entry{std::move(table), write});
    if (!inserted) it->second.write |= write;
  }

  void AcquireAll() {
    const Stopwatch watch;
    for (auto& [name, entry] : entries_) {
      if (entry.write) {
        entry.table->lock().lock();
      } else {
        entry.table->lock().lock_shared();
      }
      entry.locked = true;
    }
    SQLOOP_TIME_SECONDS(recorder_, "minidb.lock_wait_seconds",
                        watch.ElapsedSeconds());
    // Quarantine fence, checked once every lock is held: a table whose
    // scrub found corruption must never feed another statement a corrupt
    // row. The destructor releases whatever was acquired above.
    for (const auto& [name, entry] : entries_) {
      if (entry.table->quarantined()) {
        throw IntegrityError(
            "table '" + name +
            "' is quarantined after a failed integrity check; restore it "
            "from a valid dump or drop it");
      }
    }
  }

  ~LockSet() {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!it->second.locked) continue;
      if (it->second.write) {
        it->second.table->lock().unlock();
      } else {
        it->second.table->lock().unlock_shared();
      }
    }
  }

 private:
  struct Entry {
    std::shared_ptr<Table> table;
    bool write = false;
    bool locked = false;
  };
  telemetry::Recorder* recorder_ = nullptr;
  std::map<std::string, Entry> entries_;
};

/// Walks statements collecting every base table referenced (views are
/// expanded to their underlying tables; CTE names are excluded).
class TableCollector {
 public:
  explicit TableCollector(const Database& db) : db_(db) {}

  void AddName(const std::string& raw_name,
               const std::set<std::string>& ctes) {
    const std::string name = FoldIdentifier(raw_name);
    if (ctes.contains(name)) return;
    if (const auto view = db_.FindView(name)) {
      if (visited_views_.insert(name).second) {
        FromSelect(*view, ctes);
      }
      return;
    }
    reads_.insert(name);
  }

  void FromTableRef(const sql::TableRef& ref,
                    const std::set<std::string>& ctes) {
    switch (ref.kind) {
      case sql::TableRefKind::kBase:
        AddName(ref.table_name, ctes);
        return;
      case sql::TableRefKind::kJoin:
        FromTableRef(*ref.left, ctes);
        FromTableRef(*ref.right, ctes);
        return;
      case sql::TableRefKind::kSubquery:
        FromSelect(*ref.subquery, ctes);
        return;
    }
  }

  void FromSelect(const sql::SelectStmt& stmt,
                  const std::set<std::string>& ctes) {
    for (const auto& core : stmt.cores) {
      if (core.from) FromTableRef(*core.from, ctes);
    }
  }

  /// Emits the collected names into a lock plan. `written` names (already
  /// folded) get exclusive locks.
  void Collect(LockPlan& plan, const std::set<std::string>& written) const {
    std::set<std::string> all = reads_;
    for (const auto& name : written) all.insert(FoldIdentifier(name));
    for (const auto& name : all) {
      plan.entries.emplace_back(name, written.contains(name) ||
                                          written.contains(
                                              FoldIdentifier(name)));
    }
  }

 private:
  const Database& db_;
  std::set<std::string> reads_;
  std::set<std::string> visited_views_;
};

/// Turns a lock plan back into lock requests against the live catalog.
/// Names are re-resolved here, so plans survive drop/recreate cycles.
void ApplyLockPlan(LockSet& locks, const Database& db, const LockPlan& plan) {
  for (const auto& [name, write] : plan.entries) {
    locks.Request(db.FindTable(name), write);
  }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

ResultSet RelationToResult(Relation&& rel) {
  ResultSet out;
  out.columns.reserve(rel.columns.size());
  for (const auto& binding : rel.columns) out.columns.push_back(binding.name);
  out.rows = std::move(rel.rows);
  return out;
}

Relation ResultToRelation(ResultSet&& result, const std::string& qualifier) {
  Relation rel;
  const std::string folded = FoldIdentifier(qualifier);
  rel.columns.reserve(result.columns.size());
  for (const auto& name : result.columns) {
    rel.columns.push_back({folded, FoldIdentifier(name)});
  }
  rel.rows = std::move(result.rows);
  return rel;
}

/// Renames a relation's columns from an explicit CTE column list.
void RenameColumns(Relation& rel, const std::vector<std::string>& names) {
  if (names.empty()) return;
  if (names.size() != rel.columns.size()) {
    throw AnalysisError("CTE declares " + std::to_string(names.size()) +
                        " columns but its body produces " +
                        std::to_string(rel.columns.size()));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    rel.columns[i].name = FoldIdentifier(names[i]);
  }
}

/// Re-qualifies a relation's columns under `alias` (how a CTE becomes
/// visible in a FROM clause). With `borrow` the result holds row views
/// into `rel` (valid while the CTE binding lives, i.e. for the statement);
/// otherwise it deep-copies, as the reference pipeline always did.
Relation BindAs(const Relation& rel, const std::string& alias, bool borrow) {
  Relation out;
  const std::string folded = FoldIdentifier(alias);
  out.columns.reserve(rel.columns.size());
  for (const auto& binding : rel.columns) {
    out.columns.push_back({folded, binding.name});
  }
  if (borrow) {
    out.borrowed = true;
    out.views.reserve(rel.row_count());
    for (size_t i = 0; i < rel.row_count(); ++i) {
      out.views.push_back(&rel.row(i));
    }
  } else {
    out.rows = rel.rows;
  }
  return out;
}

// --- speculative reserve guards ---------------------------------------
// Size hints derived from input cardinalities are advisory — a cross-join
// estimate multiplies row counts and can overflow size_t or demand an
// absurd up-front allocation. Saturate the arithmetic and cap the reserve;
// growth past the cap is amortized push_back.

constexpr size_t kMaxSpeculativeReserve = size_t{1} << 16;

size_t SaturatingMul(size_t a, size_t b) {
  if (b != 0 && a > std::numeric_limits<size_t>::max() / b) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

template <typename T>
void GuardedReserve(std::vector<T>& v, size_t hint) {
  v.reserve(std::min(hint, kMaxSpeculativeReserve));
}

std::string OutputName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return FoldIdentifier(item.alias);
  if (item.expr->kind == sql::ExprKind::kColumnRef) {
    return FoldIdentifier(item.expr->column);
  }
  return "col" + std::to_string(index + 1);
}

// Hashing / comparison for grouping keys and DISTINCT.
struct KeyHash {
  size_t operator()(const Row& key) const noexcept {
    size_t h = 0x9E3779B97F4A7C15ULL;
    for (const Value& v : key) h = h * 31 + v.Hash();
    return h;
  }
};
struct KeyEq {
  bool operator()(const Row& a, const Row& b) const noexcept {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!Value::KeyEquals(a[i], b[i])) return false;
    }
    return true;
  }
};
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const noexcept {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const sql::Expr& expr, std::vector<const sql::Expr*>& out) {
  if (expr.kind == sql::ExprKind::kBinary &&
      expr.binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(*expr.left, out);
    SplitConjuncts(*expr.right, out);
    return;
  }
  out.push_back(&expr);
}

/// SQL join-key equality: NULL never matches anything.
bool JoinKeyEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  return Value::Compare(a, b) == 0;
}

/// Classifies ON-clause conjuncts into (left index, right index) equi-join
/// pairs vs residual predicates that must run on the combined row.
void ClassifyJoinCondition(const sql::Expr* on,
                           const std::vector<ColumnBinding>& left,
                           const std::vector<ColumnBinding>& right,
                           std::vector<std::pair<int, int>>& equi,
                           std::vector<const sql::Expr*>& residual) {
  if (on == nullptr) return;
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(*on, conjuncts);
  for (const sql::Expr* conjunct : conjuncts) {
    if (conjunct->kind == sql::ExprKind::kBinary &&
        conjunct->binary_op == sql::BinaryOp::kEq &&
        conjunct->left->kind == sql::ExprKind::kColumnRef &&
        conjunct->right->kind == sql::ExprKind::kColumnRef) {
      const sql::Expr& a = *conjunct->left;
      const sql::Expr& b = *conjunct->right;
      const int al = TryResolveColumn(left, a.qualifier, a.column);
      const int br = TryResolveColumn(right, b.qualifier, b.column);
      if (al >= 0 && br >= 0) {
        equi.push_back({al, br});
        continue;
      }
      const int bl = TryResolveColumn(left, b.qualifier, b.column);
      const int ar = TryResolveColumn(right, a.qualifier, a.column);
      if (bl >= 0 && ar >= 0) {
        equi.push_back({bl, ar});
        continue;
      }
    }
    residual.push_back(conjunct);
  }
}

/// Picks the first conjunct usable as an equality index probe against
/// `table`: shape `col = <literal>` (either side) with a non-NULL literal —
/// NULL never matches under SQL `=` — and an index on the column.
/// `allow_parameters` additionally admits `col = ?` at bind time; such a
/// probe is re-validated at execution, when the bound literal is known.
/// Returns the conjunct ordinal (or -1) and the folded column name.
int ChooseProbe(const std::vector<const sql::Expr*>& conjuncts,
                const Table& table, const std::string& alias,
                bool allow_parameters, std::string* column_out) {
  const std::string folded_alias = FoldIdentifier(alias);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const sql::Expr* conjunct = conjuncts[i];
    if (conjunct->kind != sql::ExprKind::kBinary ||
        conjunct->binary_op != sql::BinaryOp::kEq) {
      continue;
    }
    const sql::Expr* column = conjunct->left.get();
    const sql::Expr* literal = conjunct->right.get();
    if (column->kind != sql::ExprKind::kColumnRef) std::swap(column, literal);
    if (column->kind != sql::ExprKind::kColumnRef) continue;
    const bool literal_ok = literal->kind == sql::ExprKind::kLiteral &&
                            !literal->literal.is_null();
    const bool parameter_ok =
        allow_parameters && literal->kind == sql::ExprKind::kParameter;
    if (!literal_ok && !parameter_ok) continue;
    if (!column->qualifier.empty() &&
        FoldIdentifier(column->qualifier) != folded_alias) {
      continue;
    }
    const std::string col = FoldIdentifier(column->column);
    if (table.schema().FindColumn(col) < 0 || !table.HasIndexOn(col)) {
      continue;
    }
    *column_out = col;
    return static_cast<int>(i);
  }
  return -1;
}

/// Resolves the probe for a scan. A cached access path supplies the
/// conjunct ordinal chosen at bind time; it is re-validated against the
/// live conjunct list and catalog (a stale ordinal — dropped index, or a
/// `col = ?` whose bound value turned out NULL — degrades to a fresh
/// analysis, never a wrong result).
int ResolveProbe(const CoreAccessPath* path,
                 const std::vector<const sql::Expr*>& conjuncts,
                 const Table& table, const std::string& alias,
                 std::string* column_out) {
  if (path != nullptr && path->single_base) {
    if (path->probe_conjunct < 0) return -1;  // bind time chose a full scan
    const auto ordinal = static_cast<size_t>(path->probe_conjunct);
    if (ordinal < conjuncts.size()) {
      const std::vector<const sql::Expr*> one = {conjuncts[ordinal]};
      std::string column;
      if (ChooseProbe(one, table, alias, /*allow_parameters=*/false,
                      &column) == 0 &&
          column == path->probe_column) {
        *column_out = column;
        return path->probe_conjunct;
      }
    }
  }
  return ChooseProbe(conjuncts, table, alias, /*allow_parameters=*/false,
                     column_out);
}

/// The key value of a validated probe conjunct (its literal side).
const Value& ProbeKey(const sql::Expr& conjunct) {
  return conjunct.left->kind == sql::ExprKind::kLiteral
             ? conjunct.left->literal
             : conjunct.right->literal;
}

/// Whether every column in `expr` resolves against `columns` without
/// ambiguity. Never throws: an ambiguous reference just makes the conjunct
/// ineligible for pushdown — it stays in the residual WHERE, where per-row
/// evaluation reports the error exactly as the reference path would.
bool ResolvesUniquely(const sql::Expr& expr,
                      const std::vector<ColumnBinding>& columns) {
  try {
    return AllColumnsResolve(expr, columns);
  } catch (const AnalysisError&) {
    return false;
  }
}

bool ResidualHolds(const std::vector<const sql::Expr*>& residual,
                   const EvalContext& ctx) {
  for (const sql::Expr* predicate : residual) {
    if (!Truthy(Evaluate(*predicate, ctx))) return false;
  }
  return true;
}

// --- ORDER BY resolution ----------------------------------------------
//
// SQL resolves ORDER BY names against the SELECT output first and the
// FROM input second ("SELECT id AS node ... ORDER BY id" sorts by the
// input column). We rewrite each column reference in the order keys into
// a positional reference against a synthetic combined binding list
// [__out.c0.., __in.c0..] so one Evaluate() call per row suffices.
// Aggregate sub-expressions are left untouched so they keep matching the
// collected aggregate list structurally.

sql::ExprPtr RewriteOrderExpr(const sql::Expr& expr,
                              const std::vector<ColumnBinding>& output,
                              const std::vector<ColumnBinding>& input) {
  if (expr.kind == sql::ExprKind::kAggregate) return expr.Clone();
  if (expr.kind == sql::ExprKind::kColumnRef) {
    int index = expr.qualifier.empty()
                    ? TryResolveColumn(output, "", expr.column)
                    : -1;
    if (index >= 0) {
      return sql::MakeColumnRef("__out", "c" + std::to_string(index));
    }
    index = TryResolveColumn(input, expr.qualifier, expr.column);
    if (index >= 0) {
      return sql::MakeColumnRef("__in", "c" + std::to_string(index));
    }
    throw AnalysisError("unknown ORDER BY column '" +
                        (expr.qualifier.empty()
                             ? expr.column
                             : expr.qualifier + "." + expr.column) +
                        "'");
  }
  auto out = expr.Clone();
  // Rewrite children in place (Clone gave us a deep copy to mutate).
  const auto rewrite_child = [&](sql::ExprPtr& child) {
    if (child) child = RewriteOrderExpr(*child, output, input);
  };
  rewrite_child(out->left);
  rewrite_child(out->right);
  for (auto& arg : out->args) arg = RewriteOrderExpr(*arg, output, input);
  rewrite_child(out->case_operand);
  for (auto& when : out->whens) {
    when.condition = RewriteOrderExpr(*when.condition, output, input);
    when.result = RewriteOrderExpr(*when.result, output, input);
  }
  rewrite_child(out->else_expr);
  return out;
}

std::vector<ColumnBinding> CombinedOrderBindings(size_t output_width,
                                                 size_t input_width) {
  std::vector<ColumnBinding> combined;
  combined.reserve(output_width + input_width);
  for (size_t i = 0; i < output_width; ++i) {
    combined.push_back({"__out", "c" + std::to_string(i)});
  }
  for (size_t i = 0; i < input_width; ++i) {
    combined.push_back({"__in", "c" + std::to_string(i)});
  }
  return combined;
}

/// An UPDATE ... FROM probes the target's key index instead of scanning
/// it when the source has fewer than 1/kIndexMergeRatio of the target's
/// live rows. Measured crossover (no-op merges, INT64 primary key, source
/// keys scattered over the target): 1/8 of a 2,500-row target, between
/// 1/8 and 1/4 of a 200,000-row one; DESIGN.md "Frontier rounds".
constexpr size_t kIndexMergeRatio = 8;

/// Whether an UPDATE's new row differs from the stored one (NULLs equal).
bool RowChanged(const Row& updated, const Row& current) {
  for (size_t i = 0; i < updated.size(); ++i) {
    if (!Value::KeyEquals(updated[i], current[i])) return true;
  }
  return false;
}

/// `left` followed by the first `right_width` columns of `right` (the
/// combined projected + input row ORDER BY keys evaluate against).
Row ConcatRows(const Row& left, const RowRef& right, size_t right_width) {
  Row out;
  out.reserve(left.size() + right_width);
  out.insert(out.end(), left.begin(), left.end());
  for (size_t i = 0; i < right_width; ++i) out.push_back(right[i]);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SELECT pipeline
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Statement governor (resource governance: see DESIGN.md). The slow paths
// behind GovTick/GovCharge — reached once per `cancel_check_rows` rows or
// per kChargeFlushBytes of transient allocation.
// ---------------------------------------------------------------------------

void Executor::GovSync() {
  gov_countdown_ = check_rows_;
  if (cancel_ != nullptr && cancel_->requested()) {
    SQLOOP_COUNT(recorder_, "governance.mid_statement_cancels", 1);
    cancel_->ThrowNow();
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    SQLOOP_COUNT(recorder_, "governance.mid_statement_cancels", 1);
    throw TimeoutError("statement deadline exceeded mid-statement");
  }
}

void Executor::GovFlush() {
  const int64_t bytes = pending_bytes_;
  pending_bytes_ = 0;
  if (memory_ == nullptr || bytes <= 0) return;
  // Throws QuotaExceededError on breach; Charge already unwound its own
  // partial reservation, and statement_bytes_ keeps only what stuck.
  memory_->Charge(bytes);
  statement_bytes_ += bytes;
}

void Executor::GovBeginStatement() noexcept {
  gov_countdown_ = check_rows_;
  pending_bytes_ = 0;
  statement_bytes_ = 0;
}

void Executor::GovEndStatement() noexcept {
  pending_bytes_ = 0;
  if (memory_ != nullptr && statement_bytes_ > 0) {
    memory_->Release(statement_bytes_);
  }
  statement_bytes_ = 0;
}

Relation Executor::ScanTable(const Table& table, const std::string& alias) {
  Relation rel;
  const std::string folded = FoldIdentifier(alias);
  rel.columns.reserve(table.schema().column_count());
  for (const auto& column : table.schema().columns()) {
    rel.columns.push_back({folded, column.name});
  }
  ++counters_.full_scans;
  if (db_.fused_enabled() && !table.spill_enabled()) {
    // Zero-copy scan: row views into Table storage, valid under the
    // statement's table lock (see Relation's lifetime rules). Not taken
    // for spill-enabled tables — a whole-table view list would pin every
    // page at once, defeating the pool budget.
    rel.borrowed = true;
    rel.views.reserve(table.live_row_count());
    for (size_t row_id = 0; row_id < table.slot_count(); ++row_id) {
      if (!table.IsLive(row_id)) continue;
      GovTick();
      rel.views.push_back(&table.At(row_id));
    }
    GovCharge(static_cast<int64_t>(rel.views.size() * sizeof(const Row*)));
    counters_.rows_borrowed += rel.views.size();
  } else {
    // Materializing scan: the reference path, and the spill-safe path for
    // eviction-eligible tables — owned copies let the window release each
    // page's pin as the cursor passes it.
    PinScope::Window window;
    rel.rows.reserve(table.live_row_count());
    for (size_t row_id = 0; row_id < table.slot_count(); ++row_id) {
      if ((row_id & kPageRowMask) == 0) window.Reset();
      if (!table.IsLive(row_id)) continue;
      GovTick();
      rel.rows.push_back(table.At(row_id));
      GovCharge(RowFootprintBytes(rel.rows.back()));
    }
    counters_.rows_materialized += rel.rows.size();
  }
  rows_examined_ += rel.row_count();
  return rel;
}

void Executor::ScanPush(const Table& table,
                        const std::vector<ColumnBinding>& columns,
                        const std::vector<const sql::Expr*>& pushed,
                        int probe_conjunct, const std::string& probe_column,
                        const RowSink& sink) {
  ResolutionCache cache;
  counters_.pushed_predicates += pushed.size();
  // Classic AND evaluates every operand (no short-circuit), so every
  // pushed conjunct is evaluated for every visited row — same evaluation
  // count, same errors, same three-valued filtering as the reference path.
  const auto passes = [&](const Row& row) {
    bool ok = true;
    const EvalContext ec = InputContext(columns, row, &cache);
    for (const sql::Expr* conjunct : pushed) {
      if (!Truthy(Evaluate(*conjunct, ec))) ok = false;
    }
    return ok;
  };
  // Spill-enabled tables pin pages into the statement scope as At() walks
  // them; the window drops those pins batch-wise so a full pass stays
  // inside the pool budget. (Sinks that retain row views only exist on
  // non-spill tables, where the window releases nothing.)
  PinScope::Window window;
  if (probe_conjunct >= 0) {
    ++counters_.index_scans;
    probe_ids_.clear();
    table.IndexProbe(probe_column, ProbeKey(*pushed[probe_conjunct]),
                     probe_ids_);
    size_t visited = 0;
    for (const size_t row_id : probe_ids_) {
      if ((visited++ & kPageRowMask) == 0) window.Reset();
      ++rows_examined_;
      GovTick();
      const Row& row = table.At(row_id);
      if (passes(row)) sink(row);
    }
    return;
  }
  ++counters_.full_scans;
  for (size_t row_id = 0; row_id < table.slot_count(); ++row_id) {
    if ((row_id & kPageRowMask) == 0) window.Reset();
    if (!table.IsLive(row_id)) continue;
    ++rows_examined_;
    GovTick();
    const Row& row = table.At(row_id);
    if (passes(row)) sink(row);
  }
}

namespace {

/// True when any node of `expr` is a `?` placeholder.
bool ContainsParameter(const sql::Expr& expr) {
  bool found = false;
  sql::VisitExpr(expr, [&found](const sql::Expr& node) {
    if (node.kind == sql::ExprKind::kParameter) found = true;
  });
  return found;
}

/// Compiles each pushed conjunct into a total predicate kernel where the
/// shape allows (see minidb/batch.h). A cached access path's bind-time
/// hints skip compile attempts for conjuncts already known uncompilable
/// (hint 0); parameter-dependent conjuncts (hint 2) and known-compilable
/// ones (hint 1) recompile against the live bound AST. Returns the number
/// of scalar-fallback conjuncts.
size_t CompileScanKernels(const std::vector<const sql::Expr*>& pushed,
                          const Schema& schema, const std::string& alias,
                          const CoreAccessPath* path,
                          std::vector<PredicateKernel>& kernels,
                          std::vector<uint8_t>& compiled) {
  kernels.assign(pushed.size(), {});
  compiled.assign(pushed.size(), 0);
  const bool use_hints = path != nullptr && path->batch_analyzed &&
                         path->kernel_conjuncts.size() == pushed.size();
  size_t fallbacks = 0;
  for (size_t i = 0; i < pushed.size(); ++i) {
    if (use_hints && path->kernel_conjuncts[i] == 0) {
      ++fallbacks;
      continue;
    }
    if (CompilePredicateKernel(*pushed[i], schema, alias, &kernels[i])) {
      compiled[i] = 1;
    } else {
      ++fallbacks;
    }
  }
  return fallbacks;
}

}  // namespace

void Executor::ScanBatched(const Table& table,
                           const std::vector<ColumnBinding>& columns,
                           const std::vector<const sql::Expr*>& pushed,
                           const std::vector<PredicateKernel>& kernels,
                           const std::vector<uint8_t>& compiled,
                           int probe_conjunct,
                           const std::string& probe_column,
                           const BatchSink& sink) {
  ResolutionCache cache;
  counters_.pushed_predicates += pushed.size();
  bool any_fallback = false;
  bool rewriting_kernel = false;
  for (size_t c = 0; c < compiled.size(); ++c) {
    if (!compiled[c]) {
      any_fallback = true;
    } else if (kernels[c].kind != PredicateKernel::Kind::kAlwaysMatch) {
      rewriting_kernel = true;
    }
  }
  // The identity fill can be skipped when a selection-REWRITING kernel is
  // guaranteed to touch the selection before anything reads it: filter
  // kernels treat a full selection as identity and write it fresh, and a
  // never-match empties it. kAlwaysMatch kernels never write, and the
  // fallback intersection and kernel-less sinks read — those need the
  // real fill.
  const bool elide_select_fill = rewriting_kernel && !any_fallback;

  const auto process = [&](RowBatch& batch) {
    rows_examined_ += batch.size;
    GovTickRows(batch.size);
    ++counters_.batches_produced;
    if (elide_select_fill) {
      batch.MarkAllSelected();
    } else {
      batch.SelectAll();
    }
    if (any_fallback) {
      // Scalar-fallback conjuncts run first, row-major over every visited
      // lane (not just the surviving selection): classic AND evaluates
      // every conjunct for every visited row, so the evaluation count and
      // the first error match the row path exactly.
      lane_pass_.assign(batch.size, 1);
      for (uint32_t lane = 0; lane < batch.size; ++lane) {
        const Row& row = *batch.rows[lane];
        const EvalContext ec = InputContext(columns, row, &cache);
        for (size_t c = 0; c < pushed.size(); ++c) {
          if (compiled[c]) continue;
          if (!Truthy(Evaluate(*pushed[c], ec))) lane_pass_[lane] = 0;
        }
      }
      uint32_t kept = 0;
      for (uint32_t i = 0; i < batch.selected; ++i) {
        const uint32_t lane = batch.selection[i];
        batch.selection[kept] = lane;
        kept += lane_pass_[lane] ? 1u : 0u;
      }
      batch.selected = kept;
    }
    for (size_t c = 0; c < pushed.size(); ++c) {
      if (!compiled[c]) continue;
      // Kernels are total (no errors, no side effects), so an emptied
      // selection can skip the remaining ones.
      if (batch.selected == 0) break;
      ApplyPredicateKernel(kernels[c], batch);
    }
    sink(batch);
  };

  // Per-batch pin window: FillBatch pins the pages behind the batch's
  // views into the statement scope; once the sink has consumed the batch
  // the window lets those pages evict again. Sinks that retain views only
  // exist on non-spill tables, where the window releases nothing.
  PinScope::Window window;
  if (probe_conjunct >= 0) {
    ++counters_.index_scans;
    probe_ids_.clear();
    table.IndexProbe(probe_column, ProbeKey(*pushed[probe_conjunct]),
                     probe_ids_);
    for (size_t start = 0; start < probe_ids_.size();
         start += RowBatch::kCapacity) {
      const size_t lanes = std::min<size_t>(RowBatch::kCapacity,
                                            probe_ids_.size() - start);
      batch_.Reset();
      batch_.size = static_cast<uint32_t>(table.FillBatchFromIds(
          probe_ids_.data() + start, lanes, batch_.rows.data()));
      process(batch_);
      window.Reset();
    }
    return;
  }
  ++counters_.full_scans;
  size_t cursor = 0;
  for (;;) {
    batch_.Reset();
    batch_.size = static_cast<uint32_t>(
        table.FillBatch(&cursor, batch_.rows.data(), RowBatch::kCapacity));
    if (batch_.size == 0) break;
    process(batch_);
    window.Reset();
  }
}

Relation Executor::ScanFiltered(const Table& table, const std::string& alias,
                                const std::vector<const sql::Expr*>& pushed) {
  Relation rel;
  const std::string folded = FoldIdentifier(alias);
  rel.columns.reserve(table.schema().column_count());
  for (const auto& column : table.schema().columns()) {
    rel.columns.push_back({folded, column.name});
  }
  std::string probe_column;
  const int probe = ChooseProbe(pushed, table, alias,
                                /*allow_parameters=*/false, &probe_column);
  // Spill-enabled tables get owned copies of the surviving rows instead of
  // borrowed views: the scan windows then release each page as it passes,
  // so the pool budget holds. Same rows in the same order either way.
  rel.borrowed = !table.spill_enabled();
  if (db_.vectorized_enabled() && db_.fused_enabled()) {
    // Join-input scans ride the batch plane too: kernels filter whole
    // batches, the surviving lanes land in the borrowed view list in scan
    // order (identical to the row-at-a-time collect).
    std::vector<PredicateKernel> kernels;
    std::vector<uint8_t> compiled;
    counters_.scalar_fallbacks += CompileScanKernels(
        pushed, table.schema(), folded, /*path=*/nullptr, kernels, compiled);
    const auto collect = [&rel, this](RowBatch& batch) {
      for (uint32_t i = 0; i < batch.selected; ++i) {
        if (rel.borrowed) {
          rel.views.push_back(batch.rows[batch.selection[i]]);
        } else {
          rel.rows.push_back(*batch.rows[batch.selection[i]]);
          GovCharge(RowFootprintBytes(rel.rows.back()));
        }
      }
    };
    ScanBatched(table, rel.columns, pushed, kernels, compiled, probe,
                probe_column, collect);
  } else {
    const auto collect = [&rel, this](const Row& row) {
      if (rel.borrowed) {
        rel.views.push_back(&row);
      } else {
        rel.rows.push_back(row);
        GovCharge(RowFootprintBytes(rel.rows.back()));
      }
    };
    ScanPush(table, rel.columns, pushed, probe, probe_column, collect);
  }
  if (rel.borrowed) {
    counters_.rows_borrowed += rel.views.size();
  } else {
    counters_.rows_materialized += rel.rows.size();
  }
  return rel;
}

Relation Executor::EvalTableRef(const sql::TableRef& ref, ExecContext& ctx) {
  switch (ref.kind) {
    case sql::TableRefKind::kBase: {
      const std::string name = FoldIdentifier(ref.table_name);
      const auto cte = ctx.cte_bindings.find(name);
      if (cte != ctx.cte_bindings.end()) {
        Relation bound = BindAs(*cte->second, ref.alias, db_.fused_enabled());
        if (bound.borrowed) {
          counters_.rows_borrowed += bound.views.size();
        } else {
          counters_.rows_materialized += bound.rows.size();
        }
        return bound;
      }
      if (const auto view = db_.FindView(name)) {
        ExecContext view_ctx;  // views cannot see the caller's CTEs
        ResultSet result = EvalSelect(*view, view_ctx);
        return ResultToRelation(std::move(result), ref.alias);
      }
      const auto table = db_.FindTable(name);
      if (!table) {
        throw ExecutionError("relation '" + ref.table_name +
                             "' does not exist");
      }
      return ScanTable(*table, ref.alias);
    }
    case sql::TableRefKind::kSubquery: {
      ResultSet result = EvalSelect(*ref.subquery, ctx);
      counters_.derived_rows += result.rows.size();
      return ResultToRelation(std::move(result), ref.alias);
    }
    case sql::TableRefKind::kJoin:
      return EvalJoin(ref, ctx);
  }
  throw UsageError("unknown table reference kind");
}

Relation Executor::EvalJoin(const sql::TableRef& join, ExecContext& ctx) {
  JoinState state =
      PrepareJoin(join, ctx, /*pending=*/nullptr, db_.fused_enabled());
  Relation out;
  out.columns = state.columns;
  if (join.join_kind == sql::JoinKind::kCross) {
    const size_t right_rows = state.right_materialized
                                  ? state.right.row_count()
                                  : state.right_table->live_row_count();
    GuardedReserve(out.rows,
                   SaturatingMul(state.left.row_count(), right_rows));
  }
  const size_t width = state.columns.size();
  const auto collect = [&](const Row* const* parts) {
    out.rows.push_back(
        RowRef(JoinRowView{parts, state.slots.data()}).Materialize(width));
    GovCharge(RowFootprintBytes(out.rows.back()));
  };
  RunJoin(state, /*retain=*/false, collect);
  counters_.rows_materialized += out.rows.size();
  return out;
}

Executor::JoinInput Executor::LeafInput(Relation rel) {
  JoinInput in;
  in.slots.reserve(rel.columns.size());
  for (size_t c = 0; c < rel.columns.size(); ++c) {
    in.slots.push_back({0, static_cast<uint32_t>(c)});
  }
  if (rel.borrowed) {
    in.parts = std::move(rel.views);  // the scan already charged them
  } else {
    in.parts.reserve(rel.rows.size());
    for (const Row& row : rel.rows) in.parts.push_back(&row);
    GovCharge(static_cast<int64_t>(in.parts.size() * sizeof(const Row*)));
  }
  in.rel = std::move(rel);  // moving keeps the row buffer (and `parts`)
  return in;
}

Executor::JoinInput Executor::EvalJoinInput(
    const sql::TableRef& ref, ExecContext& ctx,
    std::vector<const sql::Expr*>* pending, bool fused) {
  if (pending != nullptr && ref.kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(ref.table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      if (const auto table = db_.FindTable(name)) {
        // Claim the pending WHERE conjuncts that resolve entirely against
        // this input and evaluate them during its scan.
        const std::string alias = FoldIdentifier(ref.alias);
        std::vector<ColumnBinding> bindings;
        bindings.reserve(table->schema().column_count());
        for (const auto& column : table->schema().columns()) {
          bindings.push_back({alias, column.name});
        }
        std::vector<const sql::Expr*> pushed;
        for (auto it = pending->begin(); it != pending->end();) {
          if (ResolvesUniquely(**it, bindings)) {
            pushed.push_back(*it);
            it = pending->erase(it);
          } else {
            ++it;
          }
        }
        return LeafInput(ScanFiltered(*table, ref.alias, pushed));
      }
      // Missing relation: EvalTableRef below owns the error message.
    }
  }
  if (fused && ref.kind == sql::TableRefKind::kJoin) {
    // Late materialization: the nested join's rows stay views into the
    // inputs its state owns; only the part pointers are stored.
    auto nested =
        std::make_unique<JoinState>(PrepareJoin(ref, ctx, pending, fused));
    JoinInput in;
    in.rel.columns = nested->columns;
    in.slots = nested->slots;
    in.width = nested->width;
    const auto collect = [&in, this](const Row* const* parts) {
      in.parts.insert(in.parts.end(), parts, parts + in.width);
      GovCharge(static_cast<int64_t>(in.width * sizeof(const Row*)));
    };
    RunJoin(*nested, /*retain=*/true, collect);
    in.nested = std::move(nested);
    return in;
  }
  return LeafInput(EvalTableRef(ref, ctx));
}

Executor::JoinState Executor::PrepareJoin(
    const sql::TableRef& join, ExecContext& ctx,
    std::vector<const sql::Expr*>* pending, bool fused) {
  JoinState state;
  state.join = &join;
  state.fused = fused;
  const bool left_join = join.join_kind == sql::JoinKind::kLeft;
  // A left-only WHERE conjunct commutes with a LEFT JOIN (a failing left
  // row only ever produces failing outputs), so the left input always
  // sees `pending`.
  state.left = EvalJoinInput(*join.left, ctx, pending, fused);

  const sql::TableRef& right_ref = *join.right;
  // When the right side is a plain base table (not a CTE or view) we keep
  // the Table handle so the MySQL-style profile can do index nested loops.
  if (right_ref.kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(right_ref.table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      state.right_table = db_.FindTable(name);
      if (!state.right_table) {
        throw ExecutionError("relation '" + right_ref.table_name +
                             "' does not exist");
      }
    }
  }

  if (state.right_table) {
    const std::string alias = FoldIdentifier(right_ref.alias);
    for (const auto& column : state.right_table->schema().columns()) {
      state.right_columns.push_back({alias, column.name});
    }
    // Right-side pushdown: for INNER/CROSS joins a right-only WHERE
    // conjunct filters before the join. (Under a LEFT JOIN it must run
    // after NULL-padding, so it stays in the residual WHERE.)
    if (pending != nullptr && !left_join) {
      std::vector<const sql::Expr*> pushed;
      for (auto it = pending->begin(); it != pending->end();) {
        if (ResolvesUniquely(**it, state.right_columns)) {
          pushed.push_back(*it);
          it = pending->erase(it);
        } else {
          ++it;
        }
      }
      if (!pushed.empty()) {
        state.right = LeafInput(
            ScanFiltered(*state.right_table, right_ref.alias, pushed));
        state.right_materialized = true;  // rules out index nested loop
      }
    }
  } else {
    state.right =
        EvalJoinInput(right_ref, ctx, left_join ? nullptr : pending, fused);
    state.right_columns = state.right.rel.columns;
    state.right_materialized = true;
  }

  const std::vector<ColumnBinding>& left_columns = state.left.rel.columns;
  state.columns.reserve(left_columns.size() + state.right_columns.size());
  state.columns.insert(state.columns.end(), left_columns.begin(),
                       left_columns.end());
  state.columns.insert(state.columns.end(), state.right_columns.begin(),
                       state.right_columns.end());

  // Slots: the left input's parts come first, the right input's after
  // them. A right base table not yet scanned becomes a width-1 leaf.
  const auto left_width = static_cast<uint32_t>(state.left.width);
  state.slots = state.left.slots;
  state.slots.reserve(state.columns.size());
  if (state.right_materialized) {
    for (const ColumnSlot& slot : state.right.slots) {
      state.slots.push_back({slot.part + left_width, slot.offset});
    }
    state.width = state.left.width + state.right.width;
  } else {
    for (size_t c = 0; c < state.right_columns.size(); ++c) {
      state.slots.push_back({left_width, static_cast<uint32_t>(c)});
    }
    state.width = state.left.width + 1;
  }

  if (join.join_kind != sql::JoinKind::kCross) {
    ClassifyJoinCondition(join.on_condition.get(), left_columns,
                          state.right_columns, state.equi, state.residual);
  }
  return state;
}

void Executor::RunJoin(JoinState& state, bool retain, const JoinSink& sink) {
  const sql::TableRef& join = *state.join;
  const JoinInput& left = state.left;
  const size_t left_width = left.width;

  const auto materialize_right = [&] {
    if (!state.right_materialized) {
      state.right = LeafInput(ScanTable(*state.right_table, join.right->alias));
      state.right_materialized = true;
    }
  };

  // The combined row under construction: the current left row's parts,
  // then the right row's. Sinks read it through `state.slots`.
  std::vector<const Row*> combined(state.width);
  const JoinRowView view{combined.data(), state.slots.data()};
  const auto set_left = [&](size_t li) {
    std::copy_n(left.row(li), left_width, combined.begin());
  };
  const auto set_right = [&](size_t ri) {
    std::copy_n(state.right.row(ri), state.right.width,
                combined.begin() + static_cast<ptrdiff_t>(left_width));
  };

  if (join.join_kind == sql::JoinKind::kCross) {
    materialize_right();
    for (size_t li = 0; li < left.row_count(); ++li) {
      set_left(li);
      for (size_t ri = 0; ri < state.right.row_count(); ++ri) {
        GovTick();
        set_right(ri);
        sink(combined.data());
      }
    }
    return;
  }

  ResolutionCache cache;
  const bool left_join = join.join_kind == sql::JoinKind::kLeft;
  const auto& equi = state.equi;

  // Both read the current left row's parts already in `combined`.
  const auto emit_unmatched = [&] {
    if (!left_join) return;
    std::fill(combined.begin() + static_cast<ptrdiff_t>(left_width),
              combined.end(), nullptr);  // NULL-padded right side
    sink(combined.data());
  };
  const auto match_residual = [&] {
    if (state.residual.empty()) return true;
    EvalContext ec;
    ec.columns = &state.columns;
    ec.join = view;
    ec.resolution_cache = &cache;
    return ResidualHolds(state.residual, ec);
  };

  // --- strategy selection per engine profile --------------------------
  const JoinAlgorithm algorithm = db_.profile().join_algorithm;

  // Index nested loop: available when the right side is a base table with
  // an index on one of the equi-join columns (MySQL 5.7's only fast path)
  // and predicate pushdown has not already filtered it into a relation.
  int inl_pair = -1;
  if (state.right_table && !state.right_materialized &&
      (algorithm == JoinAlgorithm::kNestedLoop ||
       algorithm == JoinAlgorithm::kNestedLoopOrHash)) {
    for (size_t i = 0; i < equi.size(); ++i) {
      const std::string& column =
          state.right_table->schema().columns()[equi[i].second].name;
      if (state.right_table->HasIndexOn(column)) {
        inl_pair = static_cast<int>(i);
        break;
      }
    }
  }

  if (inl_pair >= 0) {
    const auto& pair = equi[static_cast<size_t>(inl_pair)];
    const Table& right_table = *state.right_table;
    const std::string& column =
        right_table.schema().columns()[pair.second].name;
    ++counters_.index_scans;
    // Probed right-side pages release per left row, so a probed row's view
    // is only good until the next left row. A streaming sink is done with
    // it by then; a retaining one gets a copy out of a spill-enabled
    // table (other tables never release their rows mid-statement).
    const bool copy_out = retain && right_table.spill_enabled();
    PinScope::Window window;
    for (size_t li = 0; li < left.row_count(); ++li) {
      window.Reset();
      set_left(li);
      const Value& key = left.at(li, pair.first);
      bool matched = false;
      if (!key.is_null()) {
        probe_ids_.clear();
        right_table.IndexProbe(column, key, probe_ids_);
        for (const size_t row_id : probe_ids_) {
          ++rows_examined_;
          GovTick();
          const Row& r = right_table.At(row_id);
          bool keys_ok = true;
          for (size_t i = 0; i < equi.size(); ++i) {
            if (static_cast<int>(i) == inl_pair) continue;
            if (!JoinKeyEquals(left.at(li, equi[i].first),
                               r[equi[i].second])) {
              keys_ok = false;
              break;
            }
          }
          if (!keys_ok) continue;
          combined[left_width] = &r;
          if (!match_residual()) continue;
          if (copy_out) {
            state.pinned_copies.push_back(r);
            combined[left_width] = &state.pinned_copies.back();
            GovCharge(RowFootprintBytes(r));
            ++counters_.rows_materialized;
          }
          sink(combined.data());
          matched = true;
        }
      }
      if (!matched) emit_unmatched();
    }
    return;
  }

  const bool use_hash =
      !equi.empty() && (algorithm == JoinAlgorithm::kHash ||
                        algorithm == JoinAlgorithm::kNestedLoopOrHash);

  materialize_right();
  const JoinInput& right = state.right;

  if (use_hash) {
    // Build on the right side, probe from the left. With the batch plane
    // enabled both phases run block-at-a-time: governance ticks once per
    // RowBatch::kCapacity rows instead of per row. Match emission order is
    // identical to the per-row loops.
    const bool batched = db_.vectorized_enabled() && state.fused;
    const size_t right_count = right.row_count();
    const size_t left_count = left.row_count();
    const auto blocks = [&](size_t count, const auto& body) {
      if (!batched) {
        for (size_t i = 0; i < count; ++i) {
          GovTick();
          body(i);
        }
        return;
      }
      for (size_t start = 0; start < count; start += RowBatch::kCapacity) {
        const size_t end = std::min(count, start + RowBatch::kCapacity);
        GovTickRows(static_cast<int64_t>(end - start));
        for (size_t i = start; i < end; ++i) body(i);
      }
    };

    // Generic build: equi-key Row -> build rows in build order.
    std::unordered_map<Row, std::vector<size_t>, KeyHash, KeyEq> built;
    const auto build_generic = [&](size_t i) {
      Row key;
      key.reserve(equi.size());
      for (const auto& pair : equi) {
        const Value& v = right.at(i, pair.second);
        if (v.is_null()) return;  // NULL keys never match
        key.push_back(v);
      }
      GovCharge(RowFootprintBytes(key) + static_cast<int64_t>(sizeof(size_t)));
      built[std::move(key)].push_back(i);
    };
    // Fused pipeline, one INT64 key: key -> first build row, chained
    // through `next_row` in build order. Built back to front so that
    // head insertion leaves every chain in ascending (build) order.
    bool int_keys = state.fused && equi.size() == 1 &&
                    right_count <= IntKeyTable::kMaxPayload;
    IntKeyTable int_index;
    std::vector<uint32_t> next_row;
    const auto migrate = [&] {
      // Any other key type takes the generic table, keyed exactly as if
      // it had been used from the start.
      int_keys = false;
      ++counters_.key_fallbacks;
      built.reserve(right_count);
      for (size_t i = 0; i < right_count; ++i) build_generic(i);
    };
    if (int_keys) {
      ++counters_.int_key_tables;
      next_row.assign(right_count, IntKeyTable::kVacant);
      GovCharge(static_cast<int64_t>(right_count * sizeof(uint32_t)));
      const size_t column = static_cast<size_t>(equi[0].second);
      blocks(right_count, [&](size_t k) {
        if (!int_keys) return;
        const size_t i = right_count - 1 - k;
        const Value& v = right.at(i, column);
        if (v.is_null()) return;
        if (!v.is_int()) {
          migrate();
          return;
        }
        const int64_t before = int_index.FootprintBytes();
        const auto [head, inserted] = int_index.FindOrInsert(
            v.int_unchecked(), static_cast<uint32_t>(i));
        if (!inserted) {
          next_row[i] = *head;
          *head = static_cast<uint32_t>(i);
        }
        GovCharge(int_index.FootprintBytes() - before);  // growth only
      });
    } else {
      built.reserve(right_count);
      blocks(right_count, build_generic);
    }

    const auto try_emit = [&](size_t ri) {
      set_right(ri);
      if (!match_residual()) return false;
      sink(combined.data());
      return true;
    };
    Row probe_key;
    probe_key.reserve(equi.size());
    blocks(left_count, [&](size_t li) {
      set_left(li);
      bool matched = false;
      if (int_keys) {
        const Value& v = left.at(li, equi[0].first);
        if (!v.is_null() && !v.is_int()) migrate();
        if (int_keys && !v.is_null()) {
          for (uint32_t ri = int_index.Find(v.int_unchecked());
               ri != IntKeyTable::kVacant; ri = next_row[ri]) {
            matched |= try_emit(ri);
          }
        }
      }
      if (!int_keys) {
        probe_key.clear();
        bool has_null = false;
        for (const auto& pair : equi) {
          const Value& v = left.at(li, pair.first);
          if (v.is_null()) {
            has_null = true;
            break;
          }
          probe_key.push_back(v);
        }
        if (!has_null) {
          const auto it = built.find(probe_key);
          if (it != built.end()) {
            for (const size_t ri : it->second) matched |= try_emit(ri);
          }
        }
      }
      if (!matched) emit_unmatched();
    });
    return;
  }

  // Plain nested loop (MySQL 5.7 with no usable index).
  for (size_t li = 0; li < left.row_count(); ++li) {
    set_left(li);
    bool matched = false;
    for (size_t ri = 0; ri < right.row_count(); ++ri) {
      GovTick();
      bool keys_ok = true;
      for (const auto& pair : equi) {
        if (!JoinKeyEquals(left.at(li, pair.first),
                           right.at(ri, pair.second))) {
          keys_ok = false;
          break;
        }
      }
      if (!keys_ok) continue;
      set_right(ri);
      if (!match_residual()) continue;
      sink(combined.data());
      matched = true;
    }
    if (!matched) emit_unmatched();
  }
}

bool Executor::TryCollectTreeBindings(const sql::TableRef& ref,
                                      ExecContext& ctx,
                                      std::vector<ColumnBinding>& out) const {
  switch (ref.kind) {
    case sql::TableRefKind::kBase: {
      const std::string name = FoldIdentifier(ref.table_name);
      const std::string alias = FoldIdentifier(ref.alias);
      const auto cte = ctx.cte_bindings.find(name);
      if (cte != ctx.cte_bindings.end()) {
        for (const auto& binding : cte->second->columns) {
          out.push_back({alias, binding.name});
        }
        return true;
      }
      if (db_.HasView(name)) return false;  // view output needs evaluation
      const auto table = db_.FindTable(name);
      if (!table) return false;  // let evaluation report the error
      for (const auto& column : table->schema().columns()) {
        out.push_back({alias, column.name});
      }
      return true;
    }
    case sql::TableRefKind::kJoin:
      return TryCollectTreeBindings(*ref.left, ctx, out) &&
             TryCollectTreeBindings(*ref.right, ctx, out);
    case sql::TableRefKind::kSubquery:
      return false;
  }
  return false;
}

Relation Executor::ProjectCore(const sql::SelectCore& core,
                               const std::vector<ColumnBinding>& input_columns,
                               const InputSource& input,
                               const std::vector<sql::OrderItem>* order_by,
                               std::vector<Row>* sort_keys) {
  Relation out;
  // Expand the output binding list (stars expand to input columns).
  struct ProjectionSlot {
    const sql::Expr* expr = nullptr;  // null => direct input column copy
    int input_index = -1;
  };
  std::vector<ProjectionSlot> slots;
  for (size_t i = 0; i < core.items.size(); ++i) {
    const sql::SelectItem& item = core.items[i];
    if (item.expr->kind == sql::ExprKind::kStar) {
      const std::string qualifier = FoldIdentifier(item.expr->qualifier);
      bool any = false;
      for (size_t c = 0; c < input_columns.size(); ++c) {
        if (!qualifier.empty() && input_columns[c].qualifier != qualifier) {
          continue;
        }
        slots.push_back({nullptr, static_cast<int>(c)});
        out.columns.push_back({"", input_columns[c].name});
        any = true;
      }
      if (!any && !qualifier.empty()) {
        throw AnalysisError("no table '" + item.expr->qualifier +
                            "' to expand in SELECT " + item.expr->qualifier +
                            ".*");
      }
      continue;
    }
    slots.push_back({item.expr.get(), -1});
    out.columns.push_back({"", OutputName(item, i)});
  }

  // Prepare ORDER BY machinery (output-first, input-fallback resolution).
  std::vector<sql::ExprPtr> order_exprs;
  std::vector<ColumnBinding> order_bindings;
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      order_exprs.push_back(
          RewriteOrderExpr(*item.expr, out.columns, input_columns));
    }
    order_bindings =
        CombinedOrderBindings(out.columns.size(), input_columns.size());
  }

  ResolutionCache cache;
  ResolutionCache order_cache;
  const auto consume = [&](const RowRef& row) {
    GovTick();
    Row projected;
    projected.reserve(slots.size());
    const EvalContext ec = InputContext(input_columns, row, &cache);
    for (const ProjectionSlot& slot : slots) {
      if (slot.expr == nullptr) {
        projected.push_back(row[slot.input_index]);
      } else {
        projected.push_back(Evaluate(*slot.expr, ec));
      }
    }
    if (order_by != nullptr) {
      Row combined = ConcatRows(projected, row, input_columns.size());
      const EvalContext oc =
          InputContext(order_bindings, combined, &order_cache);
      Row key;
      key.reserve(order_exprs.size());
      for (const auto& expr : order_exprs) {
        key.push_back(Evaluate(*expr, oc));
      }
      sort_keys->push_back(std::move(key));
    }
    GovCharge(RowFootprintBytes(projected));
    out.rows.push_back(std::move(projected));
  };
  input(consume);
  return out;
}

Relation Executor::AggregateCore(const sql::SelectCore& core,
                                 const std::vector<ColumnBinding>& input_columns,
                                 const InputSource& input,
                                 const std::vector<sql::OrderItem>* order_by,
                                 std::vector<Row>* sort_keys, bool fused) {
  // Aggregate sub-expressions across the SELECT list, HAVING, and ORDER BY.
  std::vector<const sql::Expr*> agg_exprs;
  for (const auto& item : core.items) CollectAggregates(*item.expr, agg_exprs);
  if (core.having) CollectAggregates(*core.having, agg_exprs);
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      CollectAggregates(*item.expr, agg_exprs);
    }
  }

  for (const auto& item : core.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      throw AnalysisError("'*' cannot be mixed with aggregation");
    }
  }

  struct Group {
    Row representative;
    std::vector<Accumulator> accumulators;
  };

  // The representative is the one copy a group makes of its input: taken
  // when the group opens, never per row.
  const auto new_group = [&](const RowRef& row) {
    Group group;
    group.representative = row.Materialize(input_columns.size());
    group.accumulators.reserve(agg_exprs.size());
    for (const sql::Expr* agg : agg_exprs) {
      group.accumulators.emplace_back(agg->agg_func, agg->agg_distinct);
    }
    return group;
  };

  ResolutionCache cache;
  const auto feed = [&](Group& group, const RowRef& row) {
    const EvalContext ec = InputContext(input_columns, row, &cache);
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      const sql::Expr* agg = agg_exprs[i];
      if (agg->agg_star) {
        group.accumulators[i].Add(Value(int64_t{1}));
      } else {
        group.accumulators[i].Add(Evaluate(*agg->args[0], ec));
      }
    }
  };

  // Group rows as they stream in. The engine profile picks hash vs sort
  // lookup; both are correct, they just cost differently (matching
  // postgres vs mysql). Either way `groups` keeps first-occurrence order,
  // so the accumulator feed order and the output order are identical to
  // the materializing pipeline's.
  std::vector<Group> groups;
  const bool hash_grouping =
      db_.profile().agg_algorithm == AggAlgorithm::kHash;
  std::unordered_map<Row, size_t, KeyHash, KeyEq> hash_index;
  std::map<Row, size_t, KeyLess> sort_index;
  // Fused hash grouping on one expression: INT64 key -> group ordinal in a
  // flat table. The first key of any other type (NULL included) migrates
  // the groups opened so far into the generic table, in opening order.
  bool int_keys = fused && hash_grouping && core.group_by.size() == 1;
  if (int_keys) ++counters_.int_key_tables;
  IntKeyTable int_index;
  const auto migrate = [&] {
    int_keys = false;
    ++counters_.key_fallbacks;
    std::vector<int64_t> keys(int_index.size());
    int_index.ForEach(
        [&keys](int64_t key, uint32_t ordinal) { keys[ordinal] = key; });
    hash_index.reserve(keys.size());
    for (size_t g = 0; g < keys.size(); ++g) {
      Row key{Value(keys[g])};
      GovCharge(RowFootprintBytes(key));
      hash_index.try_emplace(std::move(key), g);
    }
  };
  const auto consume = [&](const RowRef& row) {
    GovTick();
    if (core.group_by.empty()) {
      if (groups.empty()) groups.push_back(new_group(row));
      feed(groups[0], row);
      return;
    }
    const EvalContext ec = InputContext(input_columns, row, &cache);
    Value first = Evaluate(*core.group_by[0], ec);
    size_t slot = 0;
    int64_t key_bytes = 0;
    if (int_keys && first.is_int() &&
        groups.size() < IntKeyTable::kMaxPayload) {
      const int64_t before = int_index.FootprintBytes();
      slot = *int_index
                  .FindOrInsert(first.int_unchecked(),
                                static_cast<uint32_t>(groups.size()))
                  .first;
      key_bytes = int_index.FootprintBytes() - before;
    } else {
      if (int_keys) migrate();
      Row key;
      key.reserve(core.group_by.size());
      key.push_back(std::move(first));
      for (size_t k = 1; k < core.group_by.size(); ++k) {
        key.push_back(Evaluate(*core.group_by[k], ec));
      }
      key_bytes = RowFootprintBytes(key);
      slot = hash_grouping
                 ? hash_index.try_emplace(std::move(key), groups.size())
                       .first->second
                 : sort_index.try_emplace(std::move(key), groups.size())
                       .first->second;
    }
    if (slot == groups.size()) {
      // A new group holds its key, a representative row copy, and one
      // accumulator per aggregate expression.
      groups.push_back(new_group(row));
      GovCharge(key_bytes + RowFootprintBytes(groups.back().representative) +
                static_cast<int64_t>(agg_exprs.size() * sizeof(Accumulator)));
    }
    feed(groups[slot], row);
  };
  input(consume);
  if (core.group_by.empty() && groups.empty()) {
    // Aggregating an empty input still yields one group; its
    // representative is an all-NULL row.
    groups.push_back(new_group(Row(input_columns.size())));
  }

  // Project each group.
  Relation out;
  out.columns.reserve(core.items.size());
  for (size_t i = 0; i < core.items.size(); ++i) {
    out.columns.push_back({"", OutputName(core.items[i], i)});
  }

  std::vector<sql::ExprPtr> order_exprs;
  std::vector<ColumnBinding> order_bindings;
  if (order_by != nullptr) {
    for (const auto& item : *order_by) {
      order_exprs.push_back(
          RewriteOrderExpr(*item.expr, out.columns, input_columns));
    }
    order_bindings =
        CombinedOrderBindings(out.columns.size(), input_columns.size());
  }

  ResolutionCache project_cache;
  ResolutionCache order_cache;
  for (const Group& group : groups) {
    std::vector<Value> agg_values;
    agg_values.reserve(group.accumulators.size());
    for (const Accumulator& acc : group.accumulators) {
      agg_values.push_back(acc.Result());
    }
    EvalContext ec =
        InputContext(input_columns, group.representative, &project_cache);
    ec.agg_exprs = &agg_exprs;
    ec.agg_values = &agg_values;
    if (core.having && !Truthy(Evaluate(*core.having, ec))) continue;
    Row projected;
    projected.reserve(core.items.size());
    for (const auto& item : core.items) {
      projected.push_back(Evaluate(*item.expr, ec));
    }
    if (order_by != nullptr) {
      Row combined = ConcatRows(projected, group.representative,
                                group.representative.size());
      EvalContext oc = InputContext(order_bindings, combined, &order_cache);
      oc.agg_exprs = &agg_exprs;
      oc.agg_values = &agg_values;
      Row key;
      key.reserve(order_exprs.size());
      for (const auto& expr : order_exprs) {
        key.push_back(Evaluate(*expr, oc));
      }
      sort_keys->push_back(std::move(key));
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

bool Executor::TryVectorizedCore(const sql::SelectCore& core, ExecContext& ctx,
                                 bool aggregate_mode,
                                 const std::vector<sql::OrderItem>* order_by,
                                 std::vector<Row>* sort_keys,
                                 const CoreAccessPath* path, Relation* out) {
  // Only the single-base-table shape runs batched; joins and subqueries
  // keep the row-at-a-time fused path.
  if (!core.from || core.from->kind != sql::TableRefKind::kBase) return false;
  const std::string name = FoldIdentifier(core.from->table_name);
  if (ctx.cte_bindings.contains(name) || db_.HasView(name)) return false;
  const auto table = db_.FindTable(name);
  if (!table) return false;  // the reference path reports the error

  const std::string alias = FoldIdentifier(core.from->alias);
  std::vector<ColumnBinding> columns;
  columns.reserve(table->schema().column_count());
  for (const auto& column : table->schema().columns()) {
    columns.push_back({alias, column.name});
  }

  std::vector<const sql::Expr*> conjuncts;
  if (core.where) SplitConjuncts(*core.where, conjuncts);

  std::vector<PredicateKernel> kernels;
  std::vector<uint8_t> compiled;
  const size_t conjunct_fallbacks = CompileScanKernels(
      conjuncts, table->schema(), alias, path, kernels, compiled);

  std::string probe_column;
  const int probe = ResolveProbe(path, conjuncts, *table, core.from->alias,
                                 &probe_column);

  // Binding ordinals equal schema ordinals here (single base table), so a
  // resolved column reference indexes the schema directly. Returns -1 when
  // the reference does not resolve plainly (absent, ambiguous, or not a
  // bare column).
  const auto match_column = [&](const sql::Expr& e) -> int {
    if (e.kind != sql::ExprKind::kColumnRef) return -1;
    try {
      return TryResolveColumn(columns, e.qualifier, e.column);
    } catch (const AnalysisError&) {
      return -1;
    }
  };

  if (aggregate_mode) {
    // GROUP BY / HAVING stay on the row path; the star-mixed-with-
    // aggregation error is also the row path's to raise.
    if (!core.group_by.empty() || core.having != nullptr) return false;
    for (const auto& item : core.items) {
      if (item.expr->kind == sql::ExprKind::kStar) return false;
    }

    std::vector<const sql::Expr*> agg_exprs;
    for (const auto& item : core.items) {
      CollectAggregates(*item.expr, agg_exprs);
    }
    if (order_by != nullptr) {
      for (const auto& item : *order_by) {
        CollectAggregates(*item.expr, agg_exprs);
      }
    }

    // Classify each aggregate argument. Plain column (or ABS(column)) args
    // over a type the bulk feeds handle become SIMD-friendly reductions;
    // everything else (DISTINCT, complex args, SUM/AVG over text — which
    // must throw per-row) feeds through scalar Add() per selected lane.
    struct AggSpec {
      enum class Mode : uint8_t { kCountStar, kColumn, kAbsColumn, kScalar };
      Mode mode = Mode::kScalar;
      int column = -1;
      ValueType type = ValueType::kNull;
    };
    std::vector<AggSpec> specs(agg_exprs.size());
    size_t scalar_aggs = 0;
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      const sql::Expr* agg = agg_exprs[i];
      AggSpec& spec = specs[i];
      if (agg->agg_star) {
        if (!agg->agg_distinct) {
          spec.mode = AggSpec::Mode::kCountStar;
          continue;
        }
        spec.mode = AggSpec::Mode::kScalar;
        ++scalar_aggs;
        continue;
      }
      const sql::Expr* arg = agg->args.empty() ? nullptr : agg->args[0].get();
      int column = -1;
      bool abs_arg = false;
      if (arg != nullptr) {
        if (arg->kind == sql::ExprKind::kColumnRef) {
          column = match_column(*arg);
        } else if (arg->kind == sql::ExprKind::kFunction &&
                   arg->function_name == "ABS" && arg->args.size() == 1 &&
                   arg->args[0]->kind == sql::ExprKind::kColumnRef) {
          column = match_column(*arg->args[0]);
          abs_arg = true;
        }
      }
      if (column >= 0 && !agg->agg_distinct) {
        const ValueType type = table->schema().columns()[column].type;
        const bool numeric =
            type == ValueType::kInt64 || type == ValueType::kDouble;
        const bool text_ok =
            !abs_arg && type == ValueType::kText &&
            (agg->agg_func == sql::AggFunc::kMin ||
             agg->agg_func == sql::AggFunc::kMax ||
             agg->agg_func == sql::AggFunc::kCount);
        if (numeric || text_ok) {
          spec.mode =
              abs_arg ? AggSpec::Mode::kAbsColumn : AggSpec::Mode::kColumn;
          spec.column = column;
          spec.type = type;
          continue;
        }
      }
      spec.mode = AggSpec::Mode::kScalar;
      ++scalar_aggs;
    }

    // Error-order guard: the row path interleaves per-row conjunct
    // evaluation with per-row aggregate feeds, so when BOTH sides can
    // throw, batch-wise grouping could surface a different first error.
    // Decline and let the row-at-a-time fused path run instead.
    if (conjunct_fallbacks > 0 && scalar_aggs > 0) return false;

    std::vector<Accumulator> accumulators;
    accumulators.reserve(agg_exprs.size());
    for (const sql::Expr* agg : agg_exprs) {
      accumulators.emplace_back(agg->agg_func, agg->agg_distinct);
    }

    Row representative;
    bool have_representative = false;
    ResolutionCache agg_cache;
    const auto consume = [&](RowBatch& batch) {
      if (batch.selected == 0) return;
      if (!have_representative) {
        representative = *batch.rows[batch.selection[0]];
        have_representative = true;
      }
      if (scalar_aggs > 0) {
        // Scalar aggregates feed lane-major (aggregates inner, in
        // collection order) so the first error matches the row path's
        // per-row feed exactly.
        for (uint32_t i = 0; i < batch.selected; ++i) {
          const Row& row = *batch.rows[batch.selection[i]];
          const EvalContext ec = InputContext(columns, row, &agg_cache);
          for (size_t a = 0; a < agg_exprs.size(); ++a) {
            if (specs[a].mode != AggSpec::Mode::kScalar) continue;
            if (agg_exprs[a]->agg_star) {
              accumulators[a].Add(Value(int64_t{1}));
            } else {
              accumulators[a].Add(Evaluate(*agg_exprs[a]->args[0], ec));
            }
          }
        }
      }
      for (size_t a = 0; a < agg_exprs.size(); ++a) {
        const AggSpec& spec = specs[a];
        switch (spec.mode) {
          case AggSpec::Mode::kScalar:
            break;
          case AggSpec::Mode::kCountStar:
            accumulators[a].AddCountedRows(batch.selected);
            break;
          case AggSpec::Mode::kColumn:
          case AggSpec::Mode::kAbsColumn: {
            // Gather the selected non-NULL lanes into a dense span
            // (SQL aggregates skip NULL inputs) and bulk-feed it.
            if (spec.type == ValueType::kInt64) {
              auto& dense = gather_.ints;
              dense.clear();
              for (uint32_t i = 0; i < batch.selected; ++i) {
                const Value& v =
                    (*batch.rows[batch.selection[i]])[spec.column];
                if (!v.is_null()) dense.push_back(v.int_unchecked());
              }
              if (spec.mode == AggSpec::Mode::kAbsColumn) {
                for (int64_t& x : dense) x = std::abs(x);
              }
              accumulators[a].AddInt64Span(dense.data(), dense.size());
            } else if (spec.type == ValueType::kDouble) {
              auto& dense = gather_.doubles;
              dense.clear();
              for (uint32_t i = 0; i < batch.selected; ++i) {
                const Value& v =
                    (*batch.rows[batch.selection[i]])[spec.column];
                if (!v.is_null()) dense.push_back(v.double_unchecked());
              }
              if (spec.mode == AggSpec::Mode::kAbsColumn) {
                for (double& x : dense) x = std::fabs(x);
              }
              accumulators[a].AddDoubleSpan(dense.data(), dense.size());
            } else {
              auto& dense = gather_.texts;
              dense.clear();
              for (uint32_t i = 0; i < batch.selected; ++i) {
                const Value& v =
                    (*batch.rows[batch.selection[i]])[spec.column];
                if (!v.is_null()) dense.push_back(&v.text_unchecked());
              }
              accumulators[a].AddTextSpan(dense.data(), dense.size());
            }
            break;
          }
        }
      }
    };
    ScanBatched(*table, columns, conjuncts, kernels, compiled, probe,
                probe_column, consume);
    if (!have_representative) representative = Row(columns.size());

    // Projection tail — identical to AggregateCore's single-group tail
    // (ORDER BY machinery built after the scan, as there).
    Relation result;
    result.columns.reserve(core.items.size());
    for (size_t i = 0; i < core.items.size(); ++i) {
      result.columns.push_back({"", OutputName(core.items[i], i)});
    }
    std::vector<sql::ExprPtr> order_exprs;
    std::vector<ColumnBinding> order_bindings;
    if (order_by != nullptr) {
      for (const auto& item : *order_by) {
        order_exprs.push_back(
            RewriteOrderExpr(*item.expr, result.columns, columns));
      }
      order_bindings =
          CombinedOrderBindings(result.columns.size(), columns.size());
    }
    std::vector<Value> agg_values;
    agg_values.reserve(accumulators.size());
    for (const Accumulator& acc : accumulators) {
      agg_values.push_back(acc.Result());
    }
    ResolutionCache project_cache;
    ResolutionCache order_cache;
    EvalContext ec = InputContext(columns, representative, &project_cache);
    ec.agg_exprs = &agg_exprs;
    ec.agg_values = &agg_values;
    Row projected;
    projected.reserve(core.items.size());
    for (const auto& item : core.items) {
      projected.push_back(Evaluate(*item.expr, ec));
    }
    if (order_by != nullptr) {
      Row combined =
          ConcatRows(projected, representative, representative.size());
      EvalContext oc = InputContext(order_bindings, combined, &order_cache);
      oc.agg_exprs = &agg_exprs;
      oc.agg_values = &agg_values;
      Row key;
      key.reserve(order_exprs.size());
      for (const auto& expr : order_exprs) {
        key.push_back(Evaluate(*expr, oc));
      }
      sort_keys->push_back(std::move(key));
    }
    result.rows.push_back(std::move(projected));
    *out = std::move(result);
    ++counters_.fused_cores;  // a vectorized core IS a fused core
    ++counters_.vectorized_cores;
    counters_.scalar_fallbacks += conjunct_fallbacks + scalar_aggs;
    return true;
  }

  // Non-aggregate mode. ORDER BY needs a combined (projected + input) key
  // row per output row — leave that interleaving to the row path.
  if (order_by != nullptr) return false;

  // Projection slots exactly as in ProjectCore (star expansion and its
  // error happen before the scan on both paths).
  struct ProjectionSlot {
    const sql::Expr* expr = nullptr;  // null => direct input column copy
    int input_index = -1;
  };
  std::vector<ProjectionSlot> slots;
  Relation result;
  size_t expr_slots = 0;
  for (size_t i = 0; i < core.items.size(); ++i) {
    const sql::SelectItem& item = core.items[i];
    if (item.expr->kind == sql::ExprKind::kStar) {
      const std::string qualifier = FoldIdentifier(item.expr->qualifier);
      bool any = false;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (!qualifier.empty() && columns[c].qualifier != qualifier) {
          continue;
        }
        slots.push_back({nullptr, static_cast<int>(c)});
        result.columns.push_back({"", columns[c].name});
        any = true;
      }
      if (!any && !qualifier.empty()) {
        throw AnalysisError("no table '" + item.expr->qualifier +
                            "' to expand in SELECT " + item.expr->qualifier +
                            ".*");
      }
      continue;
    }
    slots.push_back({item.expr.get(), -1});
    result.columns.push_back({"", OutputName(item, i)});
    ++expr_slots;
  }

  // Same error-order guard as aggregate mode: expression slots can throw
  // per row, so they must not follow batch-wise scalar conjuncts.
  if (conjunct_fallbacks > 0 && expr_slots > 0) return false;

  ResolutionCache project_cache;
  const auto consume = [&](RowBatch& batch) {
    for (uint32_t i = 0; i < batch.selected; ++i) {
      const Row& row = *batch.rows[batch.selection[i]];
      Row projected;
      projected.reserve(slots.size());
      const EvalContext ec = InputContext(columns, row, &project_cache);
      for (const ProjectionSlot& slot : slots) {
        if (slot.expr == nullptr) {
          projected.push_back(row[slot.input_index]);
        } else {
          projected.push_back(Evaluate(*slot.expr, ec));
        }
      }
      GovCharge(RowFootprintBytes(projected));
      result.rows.push_back(std::move(projected));
    }
  };
  ScanBatched(*table, columns, conjuncts, kernels, compiled, probe,
              probe_column, consume);
  *out = std::move(result);
  ++counters_.fused_cores;  // a vectorized core IS a fused core
  ++counters_.vectorized_cores;
  counters_.scalar_fallbacks += conjunct_fallbacks;
  return true;
}

bool Executor::TryFusedCore(const sql::SelectCore& core, ExecContext& ctx,
                            bool aggregate_mode,
                            const std::vector<sql::OrderItem>* order_by,
                            std::vector<Row>* sort_keys,
                            const CoreAccessPath* path, Relation* out) {
  if (!core.from) return false;

  std::vector<const sql::Expr*> conjuncts;
  if (core.where) SplitConjuncts(*core.where, conjuncts);

  if (core.from->kind == sql::TableRefKind::kBase) {
    const std::string name = FoldIdentifier(core.from->table_name);
    if (ctx.cte_bindings.contains(name) || db_.HasView(name)) return false;
    const auto table = db_.FindTable(name);
    if (!table) return false;  // the reference path reports the error

    const std::string alias = FoldIdentifier(core.from->alias);
    std::vector<ColumnBinding> columns;
    columns.reserve(table->schema().column_count());
    for (const auto& column : table->schema().columns()) {
      columns.push_back({alias, column.name});
    }

    std::string probe_column;
    const int probe = ResolveProbe(path, conjuncts, *table, core.from->alias,
                                   &probe_column);
    const auto source = [&](const InputSink& sink) {
      const auto scanned = [&sink](const Row& row) { sink(row); };
      ScanPush(*table, columns, conjuncts, probe, probe_column, scanned);
    };
    *out = aggregate_mode
               ? AggregateCore(core, columns, source, order_by, sort_keys,
                               /*fused=*/true)
               : ProjectCore(core, columns, source, order_by, sort_keys);
    ++counters_.fused_cores;
    return true;
  }

  if (core.from->kind == sql::TableRefKind::kJoin) {
    // Join pushdown needs the full output bindings up front: a conjunct
    // may only push into one input if it resolves uniquely in the FULL
    // scope (checking against a nested scope alone could mask an
    // ambiguity the reference path would report).
    std::vector<ColumnBinding> tree;
    std::vector<const sql::Expr*> pending;
    std::vector<const sql::Expr*> residual;
    if (TryCollectTreeBindings(*core.from, ctx, tree)) {
      for (const sql::Expr* conjunct : conjuncts) {
        if (ResolvesUniquely(*conjunct, tree)) {
          pending.push_back(conjunct);
        } else {
          residual.push_back(conjunct);
        }
      }
    } else {
      residual = conjuncts;
    }

    JoinState state = PrepareJoin(*core.from, ctx,
                                  pending.empty() ? nullptr : &pending,
                                  /*fused=*/true);
    // Conjuncts no single input claimed filter the combined rows.
    residual.insert(residual.end(), pending.begin(), pending.end());

    ResolutionCache where_cache;
    const auto source = [&](const InputSink& sink) {
      // Joined rows flow on as views; projection and the group
      // representative copy what they keep.
      const auto joined = [&](const Row* const* parts) {
        const RowRef row(JoinRowView{parts, state.slots.data()});
        if (!residual.empty()) {
          const EvalContext ec = InputContext(state.columns, row, &where_cache);
          bool ok = true;
          for (const sql::Expr* conjunct : residual) {
            if (!Truthy(Evaluate(*conjunct, ec))) ok = false;
          }
          if (!ok) return;
        }
        sink(row);
      };
      RunJoin(state, /*retain=*/false, joined);
    };
    *out = aggregate_mode
               ? AggregateCore(core, state.columns, source, order_by,
                               sort_keys, /*fused=*/true)
               : ProjectCore(core, state.columns, source, order_by,
                             sort_keys);
    ++counters_.fused_cores;
    return true;
  }

  return false;  // subqueries go through the reference path
}

Relation Executor::EvalCore(const sql::SelectCore& core, ExecContext& ctx,
                            const std::vector<sql::OrderItem>* order_by,
                            std::vector<Row>* sort_keys,
                            const CoreAccessPath* path) {
  bool aggregate_mode = !core.group_by.empty() || core.having != nullptr;
  if (!aggregate_mode) {
    for (const auto& item : core.items) {
      if (ContainsAggregate(*item.expr)) {
        aggregate_mode = true;
        break;
      }
    }
  }

  Relation out;
  bool fused = false;
  if (db_.fused_enabled()) {
    if (db_.vectorized_enabled()) {
      fused = TryVectorizedCore(core, ctx, aggregate_mode, order_by, sort_keys,
                                path, &out);
    }
    if (!fused) {
      fused = TryFusedCore(core, ctx, aggregate_mode, order_by, sort_keys,
                           path, &out);
    }
  }
  if (!fused) {
    out = EvalCoreReference(core, ctx, aggregate_mode, order_by, sort_keys);
  }

  if (core.distinct) {
    std::unordered_set<Row, KeyHash, KeyEq> seen;
    std::vector<Row> unique;
    std::vector<Row> unique_keys;
    unique.reserve(out.rows.size());
    for (size_t i = 0; i < out.rows.size(); ++i) {
      GovTick();
      if (seen.insert(out.rows[i]).second) {
        unique.push_back(std::move(out.rows[i]));
        if (sort_keys != nullptr) {
          unique_keys.push_back(std::move((*sort_keys)[i]));
        }
      }
    }
    out.rows = std::move(unique);
    if (sort_keys != nullptr) *sort_keys = std::move(unique_keys);
  }
  return out;
}

Relation Executor::EvalCoreReference(
    const sql::SelectCore& core, ExecContext& ctx, bool aggregate_mode,
    const std::vector<sql::OrderItem>* order_by, std::vector<Row>* sort_keys) {
  Relation input;
  bool scanned_via_index = false;
  if (core.from && core.where &&
      core.from->kind == sql::TableRefKind::kBase) {
    // Index-scan pushdown: `FROM t WHERE col = <literal> [AND ...]` with
    // an index on col reads only the matching rows ("indexes ensure that
    // unnecessary scans will be avoided", paper SV-C).
    const std::string name = FoldIdentifier(core.from->table_name);
    if (!ctx.cte_bindings.contains(name) && !db_.HasView(name)) {
      if (const auto table = db_.FindTable(name)) {
        std::vector<const sql::Expr*> conjuncts;
        SplitConjuncts(*core.where, conjuncts);
        for (const sql::Expr* conjunct : conjuncts) {
          if (conjunct->kind != sql::ExprKind::kBinary ||
              conjunct->binary_op != sql::BinaryOp::kEq) {
            continue;
          }
          const sql::Expr* column = conjunct->left.get();
          const sql::Expr* literal = conjunct->right.get();
          if (column->kind != sql::ExprKind::kColumnRef) {
            std::swap(column, literal);
          }
          if (column->kind != sql::ExprKind::kColumnRef ||
              literal->kind != sql::ExprKind::kLiteral ||
              literal->literal.is_null()) {
            continue;
          }
          const std::string alias = FoldIdentifier(core.from->alias);
          if (!column->qualifier.empty() &&
              FoldIdentifier(column->qualifier) != alias) {
            continue;
          }
          const std::string col = FoldIdentifier(column->column);
          if (table->schema().FindColumn(col) < 0 ||
              !table->HasIndexOn(col)) {
            continue;
          }
          input.columns.reserve(table->schema().column_count());
          for (const auto& def : table->schema().columns()) {
            input.columns.push_back({alias, def.name});
          }
          for (const size_t row_id :
               table->IndexLookup(col, literal->literal)) {
            GovTick();
            input.rows.push_back(table->At(row_id));
            GovCharge(RowFootprintBytes(input.rows.back()));
          }
          rows_examined_ += input.rows.size();
          counters_.rows_materialized += input.rows.size();
          scanned_via_index = true;
          break;
        }
      }
    }
  }
  if (!scanned_via_index) {
    if (core.from) {
      input = EvalTableRef(*core.from, ctx);
    } else {
      input.rows.emplace_back();  // FROM-less SELECT produces one row
    }
  }

  if (core.where) {
    ResolutionCache cache;
    if (input.borrowed) {
      // Filtering a borrowed relation just drops views, no row copies.
      std::vector<const Row*> kept;
      kept.reserve(input.views.size());
      for (const Row* view : input.views) {
        GovTick();
        const EvalContext ec = InputContext(input.columns, *view, &cache);
        if (Truthy(Evaluate(*core.where, ec))) kept.push_back(view);
      }
      input.views = std::move(kept);
    } else {
      std::vector<Row> kept;
      kept.reserve(input.rows.size());
      for (Row& row : input.rows) {
        GovTick();
        const EvalContext ec = InputContext(input.columns, row, &cache);
        if (Truthy(Evaluate(*core.where, ec))) kept.push_back(std::move(row));
      }
      input.rows = std::move(kept);
    }
  }

  const auto source = [&input](const InputSink& sink) {
    for (size_t i = 0; i < input.row_count(); ++i) sink(input.row(i));
  };
  return aggregate_mode
             ? AggregateCore(core, input.columns, source, order_by, sort_keys,
                             /*fused=*/false)
             : ProjectCore(core, input.columns, source, order_by, sort_keys);
}

ResultSet Executor::EvalSelect(const sql::SelectStmt& stmt, ExecContext& ctx,
                               const std::vector<CoreAccessPath>* paths) {
  const auto path_for = [paths](size_t i) -> const CoreAccessPath* {
    return paths != nullptr && i < paths->size() ? &(*paths)[i] : nullptr;
  };
  const bool single_core_sort =
      stmt.cores.size() == 1 && !stmt.order_by.empty();
  std::vector<Row> sort_keys;
  Relation combined =
      EvalCore(stmt.cores[0], ctx, single_core_sort ? &stmt.order_by : nullptr,
               single_core_sort ? &sort_keys : nullptr, path_for(0));
  for (size_t i = 1; i < stmt.cores.size(); ++i) {
    Relation next = EvalCore(stmt.cores[i], ctx, nullptr, nullptr, path_for(i));
    if (next.columns.size() != combined.columns.size()) {
      throw AnalysisError("UNION arms have different column counts (" +
                          std::to_string(combined.columns.size()) + " vs " +
                          std::to_string(next.columns.size()) + ")");
    }
    combined.rows.insert(combined.rows.end(),
                         std::make_move_iterator(next.rows.begin()),
                         std::make_move_iterator(next.rows.end()));
    if (stmt.set_ops[i - 1] == sql::SetOp::kUnion) {
      std::unordered_set<Row, KeyHash, KeyEq> seen;
      std::vector<Row> unique;
      unique.reserve(combined.rows.size());
      for (Row& row : combined.rows) {
        GovTick();
        if (seen.insert(row).second) unique.push_back(std::move(row));
      }
      combined.rows = std::move(unique);
    }
  }

  if (!stmt.order_by.empty()) {
    if (!single_core_sort) {
      // UNION result: ORDER BY resolves against the output columns only.
      std::vector<sql::ExprPtr> order_exprs;
      for (const auto& item : stmt.order_by) {
        order_exprs.push_back(
            RewriteOrderExpr(*item.expr, combined.columns, {}));
      }
      const auto bindings =
          CombinedOrderBindings(combined.columns.size(), 0);
      ResolutionCache cache;
      sort_keys.clear();
      sort_keys.reserve(combined.rows.size());
      for (const Row& row : combined.rows) {
        GovTick();
        const EvalContext ec = InputContext(bindings, row, &cache);
        Row key;
        key.reserve(order_exprs.size());
        for (const auto& expr : order_exprs) {
          key.push_back(Evaluate(*expr, ec));
        }
        sort_keys.push_back(std::move(key));
      }
    }
    std::vector<size_t> order(combined.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         const int c = Value::Compare(sort_keys[a][i],
                                                      sort_keys[b][i]);
                         if (c != 0) {
                           return stmt.order_by[i].ascending ? c < 0 : c > 0;
                         }
                       }
                       return a < b;
                     });
    std::vector<Row> sorted;
    sorted.reserve(combined.rows.size());
    for (const size_t index : order) {
      sorted.push_back(std::move(combined.rows[index]));
    }
    combined.rows = std::move(sorted);
  }

  if (stmt.offset) {
    const auto skip = std::min(combined.rows.size(),
                               static_cast<size_t>(*stmt.offset));
    combined.rows.erase(combined.rows.begin(),
                        combined.rows.begin() + static_cast<ptrdiff_t>(skip));
  }
  if (stmt.limit && combined.rows.size() > static_cast<size_t>(*stmt.limit)) {
    combined.rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return RelationToResult(std::move(combined));
}

// ---------------------------------------------------------------------------
// WITH (plain and recursive CTEs; iterative rejected — SQLoop's job)
// ---------------------------------------------------------------------------

ResultSet Executor::ExecWith(const sql::Statement& stmt, ExecContext& ctx) {
  const sql::WithClause& with = stmt.with;
  const std::string name = FoldIdentifier(with.name);
  const auto* seed_paths = access_ != nullptr ? &access_->seed_cores : nullptr;
  const auto* step_paths = access_ != nullptr ? &access_->step_cores : nullptr;
  const auto* final_paths =
      access_ != nullptr ? &access_->final_cores : nullptr;

  switch (with.kind) {
    case sql::CteKind::kPlain: {
      Relation body = ResultToRelation(EvalSelect(*with.seed, ctx, seed_paths),
                                       /*qualifier=*/"");
      RenameColumns(body, with.columns);
      ctx.cte_bindings[name] = &body;
      ResultSet result = EvalSelect(*with.final_query, ctx, final_paths);
      ctx.cte_bindings.erase(name);
      return result;
    }
    case sql::CteKind::kRecursive: {
      if (!db_.profile().supports_recursive_cte) {
        throw ExecutionError(
            "this engine version does not implement recursive CTE "
            "evaluation (use the SQLoop middleware)");
      }
      // Semi-naive evaluation (paper §II-A): the recursive member sees only
      // the delta of the previous round, and R accumulates all rows.
      Relation all =
          ResultToRelation(EvalSelect(*with.seed, ctx, seed_paths), "");
      RenameColumns(all, with.columns);
      Relation working = all;

      for (int64_t round = 0;; ++round) {
        if (round >= kMaxRecursions) {
          throw ExecutionError("recursive CTE '" + with.name +
                               "' exceeded the recursion limit");
        }
        if (working.rows.empty()) break;
        ctx.cte_bindings[name] = &working;
        Relation delta =
            ResultToRelation(EvalSelect(*with.step, ctx, step_paths), "");
        ctx.cte_bindings.erase(name);
        if (delta.columns.size() != all.columns.size()) {
          throw AnalysisError(
              "recursive member of '" + with.name +
              "' produces a different column count than the seed");
        }
        delta.columns = all.columns;
        // The accumulated relation copies the delta; deep row bytes were
        // already charged when EvalSelect produced them, so charge the
        // shallow copy and give the governor a per-round check.
        GovTick();
        GovCharge(static_cast<int64_t>(delta.rows.size() * sizeof(Row)));
        all.rows.insert(all.rows.end(), delta.rows.begin(), delta.rows.end());
        working = std::move(delta);
      }

      ctx.cte_bindings[name] = &all;
      ResultSet result = EvalSelect(*with.final_query, ctx, final_paths);
      ctx.cte_bindings.erase(name);
      return result;
    }
    case sql::CteKind::kIterative:
      throw ExecutionError(
          "iterative CTEs are a SQLoop extension; submit this query "
          "through the SQLoop middleware, not directly to the engine");
  }
  throw UsageError("unknown CTE kind");
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

void Executor::CheckDialect(const sql::Statement& stmt) const {
  const EngineProfile& profile = db_.profile();
  if (!profile.strict_dialect) return;
  if (stmt.kind != sql::StatementKind::kCreateTable) return;

  if (profile.dialect == Dialect::kPostgres) {
    if (!stmt.engine_option.empty()) {
      throw ExecutionError("syntax error: ENGINE table options are not "
                           "supported by the postgres engine");
    }
    for (const auto& column : stmt.columns) {
      if (column.type_spelling == "DOUBLE") {
        throw ExecutionError("type \"DOUBLE\" does not exist in the postgres "
                             "engine; use DOUBLE PRECISION");
      }
    }
  } else if (IsMySqlFamily(profile.dialect)) {
    if (stmt.unlogged) {
      throw ExecutionError("syntax error: UNLOGGED tables are "
                           "PostgreSQL-specific; use ENGINE=MyISAM");
    }
  }
}

ResultSet Executor::ExecCreateTable(const sql::Statement& stmt) {
  CheckDialect(stmt);
  std::vector<Column> columns;
  columns.reserve(stmt.columns.size());
  for (const auto& def : stmt.columns) {
    columns.push_back({FoldIdentifier(def.name), def.type});
  }
  db_.CreateTable(stmt.table_name, Schema(std::move(columns),
                                          stmt.primary_key_index),
                  stmt.if_not_exists);
  return {};
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

void Executor::BackupForTransaction(Session* session, Table& table) {
  if (session == nullptr || !session->in_transaction_) return;
  session->backups_.try_emplace(table.name(), table.SnapshotRows());
}

ResultSet Executor::ExecInsert(const sql::Statement& stmt, Session* session) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const Schema& schema = table->schema();

  // Map the statement's column list (or schema order) to schema positions.
  std::vector<int> positions;
  if (stmt.insert_columns.empty()) {
    positions.resize(schema.column_count());
    for (size_t i = 0; i < positions.size(); ++i) {
      positions[i] = static_cast<int>(i);
    }
  } else {
    for (const auto& column : stmt.insert_columns) {
      const int index = schema.FindColumn(column);
      if (index < 0) {
        throw ExecutionError("no column '" + column + "' in table '" +
                             stmt.table_name + "'");
      }
      positions.push_back(index);
    }
  }

  std::vector<Row> incoming;
  if (stmt.insert_select) {
    // The source SELECT fully materializes (EvalSelect returns owned rows)
    // before the first Insert call — Insert can grow the table's row
    // vector, which would invalidate any borrowed views into it.
    ExecContext ctx;
    ResultSet selected = EvalSelect(
        *stmt.insert_select, ctx,
        access_ != nullptr ? &access_->insert_cores : nullptr);
    incoming = std::move(selected.rows);
  } else {
    EvalContext ec;  // VALUES expressions see no input columns
    for (const auto& row_exprs : stmt.insert_rows) {
      GovTick();
      Row row;
      row.reserve(row_exprs.size());
      for (const auto& expr : row_exprs) row.push_back(Evaluate(*expr, ec));
      GovCharge(RowFootprintBytes(row));
      incoming.push_back(std::move(row));
    }
  }

  GovFlush();  // end of the read phase: enforce the budget before writing
  BackupForTransaction(session, *table);
  size_t inserted = 0;
  for (Row& source : incoming) {
    if (source.size() != positions.size()) {
      throw ExecutionError("INSERT supplies " +
                           std::to_string(source.size()) + " values for " +
                           std::to_string(positions.size()) + " columns");
    }
    Row full(schema.column_count());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = std::move(source[i]);
    }
    table->Insert(std::move(full));
    ++inserted;
  }
  ResultSet result;
  result.affected_rows = inserted;
  return result;
}

ResultSet Executor::ExecUpdate(const sql::Statement& stmt, Session* session,
                               ExecContext& ctx) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const Schema& schema = table->schema();
  const std::string alias = FoldIdentifier(
      stmt.update_alias.empty() ? stmt.table_name : stmt.update_alias);

  std::vector<ColumnBinding> target_columns;
  target_columns.reserve(schema.column_count());
  for (const auto& column : schema.columns()) {
    target_columns.push_back({alias, column.name});
  }

  // Resolve SET targets once.
  std::vector<int> set_positions;
  set_positions.reserve(stmt.set_items.size());
  for (const auto& [column, expr] : stmt.set_items) {
    const int index = schema.FindColumn(column);
    if (index < 0) {
      throw ExecutionError("no column '" + column + "' in table '" +
                           stmt.table_name + "'");
    }
    set_positions.push_back(index);
  }

  std::vector<std::pair<size_t, Row>> pending;  // (row id, new row)
  ResolutionCache cache;

  if (stmt.update_from) {
    // UPDATE ... FROM <source>: match each target row against the source,
    // hash-accelerated on the first target=source equi conjunct.
    Relation source = EvalTableRef(*stmt.update_from, ctx);

    std::vector<ColumnBinding> combined = target_columns;
    combined.insert(combined.end(), source.columns.begin(),
                    source.columns.end());

    std::vector<const sql::Expr*> conjuncts;
    if (stmt.where) SplitConjuncts(*stmt.where, conjuncts);

    int target_key = -1;
    int source_key = -1;
    std::vector<const sql::Expr*> residual;
    for (const sql::Expr* conjunct : conjuncts) {
      if (target_key < 0 && conjunct->kind == sql::ExprKind::kBinary &&
          conjunct->binary_op == sql::BinaryOp::kEq &&
          conjunct->left->kind == sql::ExprKind::kColumnRef &&
          conjunct->right->kind == sql::ExprKind::kColumnRef) {
        const sql::Expr& a = *conjunct->left;
        const sql::Expr& b = *conjunct->right;
        const int at = TryResolveColumn(target_columns, a.qualifier, a.column);
        const int bs = TryResolveColumn(source.columns, b.qualifier, b.column);
        if (at >= 0 && bs >= 0) {
          target_key = at;
          source_key = bs;
          continue;
        }
        const int bt = TryResolveColumn(target_columns, b.qualifier, b.column);
        const int as = TryResolveColumn(source.columns, a.qualifier, a.column);
        if (bt >= 0 && as >= 0) {
          target_key = bt;
          source_key = as;
          continue;
        }
      }
      residual.push_back(conjunct);
    }

    // `source` may hold borrowed views into the target table itself
    // (UPDATE t ... FROM t AS s). All matching reads finish before the
    // pending writes apply, and Table::Update assigns slots in place, so
    // the views stay valid for the whole match phase.
    //
    // Source rows by key, newest first: the order the generic multimap's
    // equal_range visits equal keys, so "first match wins" picks the same
    // source row on both tables. The fused pipeline keys INT64 values in
    // a flat table (`newer_to_older` chains each key's rows); the first
    // key of another type migrates to the generic multimap.
    std::unordered_multimap<Value, size_t, ValueKeyHash, ValueKeyEq> by_key;
    IntKeyTable int_by_key;
    std::vector<uint32_t> newer_to_older;
    bool int_keys = false;
    const auto migrate = [&](size_t built_rows) {
      int_keys = false;
      ++counters_.key_fallbacks;
      by_key.reserve(source.row_count());
      for (size_t i = 0; i < built_rows; ++i) {
        const Value& key = source.row(i)[source_key];
        if (!key.is_null()) by_key.emplace(key, i);
      }
    };
    if (target_key >= 0) {
      const size_t source_rows = source.row_count();
      int_keys = db_.fused_enabled() &&
                 source_rows <= IntKeyTable::kMaxPayload;
      if (int_keys) {
        ++counters_.int_key_tables;
        newer_to_older.assign(source_rows, IntKeyTable::kVacant);
        GovCharge(static_cast<int64_t>(source_rows * sizeof(uint32_t)));
      } else {
        by_key.reserve(source_rows);
      }
      for (size_t i = 0; i < source_rows; ++i) {
        GovTick();
        const Value& key = source.row(i)[source_key];
        if (key.is_null()) continue;
        if (int_keys && !key.is_int()) migrate(i);
        if (!int_keys) {
          by_key.emplace(key, i);
          continue;
        }
        const int64_t before = int_by_key.FootprintBytes();
        const auto [newest, inserted] = int_by_key.FindOrInsert(
            key.int_unchecked(), static_cast<uint32_t>(i));
        if (!inserted) {
          newer_to_older[i] = *newest;
          *newest = static_cast<uint32_t>(i);
        }
        GovCharge(int_by_key.FootprintBytes() - before);  // growth only
      }
    }

    // Residual and SET expressions read the (target, source) pair through
    // a two-part join view; `updated` is reused across target rows.
    std::vector<ColumnSlot> slots;
    slots.reserve(combined.size());
    for (size_t c = 0; c < target_columns.size(); ++c) {
      slots.push_back({0, static_cast<uint32_t>(c)});
    }
    for (size_t c = 0; c < source.columns.size(); ++c) {
      slots.push_back({1, static_cast<uint32_t>(c)});
    }
    Row updated;
    const auto match_target = [&](size_t row_id) {
      ++rows_examined_;
      GovTick();
      const Row& current = table->At(row_id);

      const auto try_match = [&](const Row& source_row) -> bool {
        const Row* parts[2] = {&current, &source_row};
        EvalContext ec;
        ec.columns = &combined;
        ec.join = JoinRowView{parts, slots.data()};
        ec.resolution_cache = &cache;
        if (!ResidualHolds(residual, ec)) return false;
        updated = current;
        for (size_t i = 0; i < stmt.set_items.size(); ++i) {
          updated[set_positions[i]] =
              Evaluate(*stmt.set_items[i].second, ec);
        }
        schema.CoerceRow(updated);
        if (RowChanged(updated, current)) {
          GovCharge(RowFootprintBytes(updated));
          pending.emplace_back(row_id, updated);
        }
        return true;
      };

      if (target_key >= 0) {
        const Value& key = current[target_key];
        if (key.is_null()) return;
        if (int_keys && !key.is_int()) migrate(source.row_count());
        if (int_keys) {
          for (uint32_t i = int_by_key.Find(key.int_unchecked());
               i != IntKeyTable::kVacant; i = newer_to_older[i]) {
            if (try_match(source.row(i))) break;  // first match wins
          }
          return;
        }
        const auto [begin, end] = by_key.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          if (try_match(source.row(it->second))) break;  // first match wins
        }
      } else {
        for (size_t i = 0; i < source.row_count(); ++i) {
          if (try_match(source.row(i))) break;
        }
      }
    };

    // Index-driven merge: when the target indexes the matched key and the
    // source is much smaller than the target, the source keys' index
    // probes name every target row the scan could match. Visiting just
    // those, in ascending row-id order, matches the same rows in the same
    // order. The reference pipeline always scans.
    const bool probe =
        target_key >= 0 && db_.fused_enabled() &&
        source.row_count() * kIndexMergeRatio < table->live_row_count() &&
        table->HasIndexOn(schema.columns()[target_key].name);
    PinScope::Window window;
    if (probe) {
      ++counters_.index_merges;
      const std::string& column = schema.columns()[target_key].name;
      std::vector<size_t> targets;
      for (size_t i = 0; i < source.row_count(); ++i) {
        GovTick();
        const Value& key = source.row(i)[source_key];
        if (!key.is_null()) table->IndexProbe(column, key, targets);
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      GovCharge(static_cast<int64_t>(targets.capacity() * sizeof(size_t)));
      size_t visited = 0;
      for (const size_t row_id : targets) {
        if ((visited++ & kPageRowMask) == 0) window.Reset();
        match_target(row_id);
      }
    } else {
      for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
        if ((row_id & kPageRowMask) == 0) window.Reset();
        if (table->IsLive(row_id)) match_target(row_id);
      }
    }
  } else {
    Row updated;
    PinScope::Window window;
    for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
      if ((row_id & kPageRowMask) == 0) window.Reset();
      if (!table->IsLive(row_id)) continue;
      ++rows_examined_;
      GovTick();
      const Row& current = table->At(row_id);
      const EvalContext ec = InputContext(target_columns, current, &cache);
      if (stmt.where && !Truthy(Evaluate(*stmt.where, ec))) continue;
      updated = current;
      for (size_t i = 0; i < stmt.set_items.size(); ++i) {
        updated[set_positions[i]] = Evaluate(*stmt.set_items[i].second, ec);
      }
      schema.CoerceRow(updated);
      if (RowChanged(updated, current)) {
        GovCharge(RowFootprintBytes(updated));
        pending.emplace_back(row_id, updated);
      }
    }
  }

  GovFlush();
  BackupForTransaction(session, *table);
  for (auto& [row_id, row] : pending) {
    table->Update(row_id, std::move(row));
  }
  ResultSet result;
  result.affected_rows = pending.size();
  return result;
}

ResultSet Executor::ExecDelete(const sql::Statement& stmt, Session* session) {
  const auto table = db_.FindTable(stmt.table_name);
  if (!table) {
    throw ExecutionError("table '" + stmt.table_name + "' does not exist");
  }
  const std::string alias = FoldIdentifier(stmt.table_name);
  std::vector<ColumnBinding> columns;
  for (const auto& column : table->schema().columns()) {
    columns.push_back({alias, column.name});
  }
  std::vector<size_t> doomed;
  ResolutionCache cache;
  PinScope::Window window;
  for (size_t row_id = 0; row_id < table->slot_count(); ++row_id) {
    if ((row_id & kPageRowMask) == 0) window.Reset();
    if (!table->IsLive(row_id)) continue;
    ++rows_examined_;
    GovTick();
    if (stmt.where) {
      const Row& row = table->At(row_id);
      const EvalContext ec = InputContext(columns, row, &cache);
      if (!Truthy(Evaluate(*stmt.where, ec))) continue;
    }
    doomed.push_back(row_id);
  }
  GovFlush();
  BackupForTransaction(session, *table);
  for (const size_t row_id : doomed) table->Delete(row_id);
  table->CompactIfSparse();
  ResultSet result;
  result.affected_rows = doomed.size();
  return result;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

ResultSet Executor::ExecTransaction(const sql::Statement& stmt,
                                    Session* session) {
  if (session == nullptr) {
    throw UsageError("transaction statements require a session");
  }
  switch (stmt.kind) {
    case sql::StatementKind::kBegin:
      if (session->in_transaction_) {
        throw ExecutionError("a transaction is already in progress");
      }
      session->in_transaction_ = true;
      session->backups_.clear();
      return {};
    case sql::StatementKind::kCommit:
      session->in_transaction_ = false;
      session->backups_.clear();
      return {};
    case sql::StatementKind::kRollback: {
      for (auto& [name, rows] : session->backups_) {
        const auto table = db_.FindTable(name);
        if (!table) continue;  // dropped mid-transaction; nothing to restore
        const std::scoped_lock lock(table->lock());
        table->RestoreRows(rows);
      }
      session->in_transaction_ = false;
      session->backups_.clear();
      return {};
    }
    default:
      throw UsageError("not a transaction statement");
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

ResultSet Executor::Execute(const sql::Statement& stmt, Session* session) {
  return ExecuteWithPlan(stmt, BuildLockPlan(stmt), session);
}

ResultSet Executor::ExecuteWithPlan(const sql::Statement& stmt,
                                    const LockPlan& plan, Session* session) {
  return ExecuteWithPlan(stmt, plan, /*access=*/nullptr, session);
}

ResultSet Executor::ExecuteWithPlan(const sql::Statement& stmt,
                                    const LockPlan& plan,
                                    const AccessPlan* access,
                                    Session* session) {
  rows_examined_ = 0;
  counters_ = {};
  access_ = access;
  GovBeginStatement();
  // Statement pin ledger: every row view the engine hands out below
  // is backed by a page pinned here (scan windows release early; anything
  // left drains when the scope dies with the statement).
  PinScope pin_scope;
  ResultSet result;
  try {
    result = ExecuteInternal(stmt, plan, session);
  } catch (...) {
    // Statement-scope teardown: the whole transient reservation returns to
    // the tracker chain, so an aborted statement frees its working set.
    GovEndStatement();
    access_ = nullptr;
    throw;
  }
  GovEndStatement();
  access_ = nullptr;
  result.rows_examined = rows_examined_;
  result.derived_rows = counters_.derived_rows;
  SQLOOP_COUNT(recorder_, "minidb.rows_examined", rows_examined_);
  // Engine counters flush only when nonzero so statements that never touch
  // the SELECT pipeline don't mint empty counter entries.
  if (counters_.rows_materialized != 0) {
    SQLOOP_COUNT(recorder_, "minidb.rows_materialized",
                 counters_.rows_materialized);
  }
  if (counters_.rows_borrowed != 0) {
    SQLOOP_COUNT(recorder_, "minidb.rows_borrowed", counters_.rows_borrowed);
  }
  if (counters_.index_scans != 0) {
    SQLOOP_COUNT(recorder_, "minidb.index_scans", counters_.index_scans);
  }
  if (counters_.full_scans != 0) {
    SQLOOP_COUNT(recorder_, "minidb.full_scans", counters_.full_scans);
  }
  if (counters_.pushed_predicates != 0) {
    SQLOOP_COUNT(recorder_, "minidb.pushed_predicates",
                 counters_.pushed_predicates);
  }
  if (counters_.fused_cores != 0) {
    SQLOOP_COUNT(recorder_, "minidb.fused_cores", counters_.fused_cores);
  }
  if (counters_.batches_produced != 0) {
    SQLOOP_COUNT(recorder_, "minidb.batches_produced",
                 counters_.batches_produced);
  }
  if (counters_.vectorized_cores != 0) {
    SQLOOP_COUNT(recorder_, "minidb.vectorized_cores",
                 counters_.vectorized_cores);
  }
  if (counters_.scalar_fallbacks != 0) {
    SQLOOP_COUNT(recorder_, "minidb.scalar_fallbacks",
                 counters_.scalar_fallbacks);
  }
  if (counters_.int_key_tables != 0) {
    SQLOOP_COUNT(recorder_, "minidb.int_key_tables",
                 counters_.int_key_tables);
  }
  if (counters_.key_fallbacks != 0) {
    SQLOOP_COUNT(recorder_, "minidb.key_fallbacks", counters_.key_fallbacks);
  }
  if (counters_.index_merges != 0) {
    SQLOOP_COUNT(recorder_, "minidb.index_merges", counters_.index_merges);
  }
  // Buffer-pool deltas: the pool's counters are pool-lifetime, so each
  // statement flushes only what it moved. Unbounded pools never pin or
  // evict — skip the stats lock entirely.
  if (db_.buffer_pool().bounded()) {
    const BufferPool::Stats pool = db_.buffer_pool().stats();
    const auto flush = [this](const char* name, uint64_t now,
                              uint64_t& last) {
      if (now != last) {
        SQLOOP_COUNT(recorder_, name, static_cast<int64_t>(now - last));
        last = now;
      }
    };
    flush("minidb.pool_hits", pool.hits, pool_last_.hits);
    flush("minidb.pool_misses", pool.misses, pool_last_.misses);
    flush("minidb.pages_evicted", pool.pages_evicted,
          pool_last_.pages_evicted);
    flush("minidb.bytes_spilled", pool.bytes_spilled,
          pool_last_.bytes_spilled);
  }
  return result;
}

LockPlan Executor::BuildLockPlan(const sql::Statement& stmt) const {
  LockPlan plan;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      TableCollector collector(db_);
      collector.FromSelect(*stmt.select, {});
      collector.Collect(plan, {});
      break;
    }
    case sql::StatementKind::kWith: {
      TableCollector collector(db_);
      const std::set<std::string> ctes = {FoldIdentifier(stmt.with.name)};
      collector.FromSelect(*stmt.with.seed, ctes);
      if (stmt.with.step) collector.FromSelect(*stmt.with.step, ctes);
      if (stmt.with.termination.probe) {
        collector.FromSelect(*stmt.with.termination.probe, ctes);
      }
      collector.FromSelect(*stmt.with.final_query, ctes);
      collector.Collect(plan, {});
      break;
    }
    case sql::StatementKind::kInsert: {
      TableCollector collector(db_);
      if (stmt.insert_select) collector.FromSelect(*stmt.insert_select, {});
      collector.Collect(plan, {FoldIdentifier(stmt.table_name)});
      break;
    }
    case sql::StatementKind::kUpdate: {
      TableCollector collector(db_);
      if (stmt.update_from) collector.FromTableRef(*stmt.update_from, {});
      collector.Collect(plan, {FoldIdentifier(stmt.table_name)});
      break;
    }
    case sql::StatementKind::kDelete:
      plan.entries.emplace_back(FoldIdentifier(stmt.table_name),
                                /*write=*/true);
      break;
    default:
      // DDL, TRUNCATE and transaction statements lock inside their own
      // execution paths; nothing to precompute.
      break;
  }
  return plan;
}

CoreAccessPath Executor::AnalyzeCore(
    const sql::SelectCore& core,
    const std::unordered_set<std::string>& ctes) const {
  CoreAccessPath path;
  if (!core.from || core.from->kind != sql::TableRefKind::kBase) return path;
  const std::string name = FoldIdentifier(core.from->table_name);
  if (ctes.contains(name) || db_.HasView(name)) return path;
  const auto table = db_.FindTable(name);
  if (!table) return path;
  path.single_base = true;
  path.table = name;
  std::vector<const sql::Expr*> conjuncts;
  if (core.where) {
    SplitConjuncts(*core.where, conjuncts);
    path.probe_conjunct = ChooseProbe(conjuncts, *table, core.from->alias,
                                      /*allow_parameters=*/true,
                                      &path.probe_column);
  }
  // Batched access-path hints: 1 = compiles into a total kernel under the
  // bind-time schema, 2 = parameter-dependent (retry against the bound
  // AST at execution), 0 = known uncompilable (skip the attempt).
  path.batch_analyzed = true;
  path.kernel_conjuncts.reserve(conjuncts.size());
  const std::string alias = FoldIdentifier(core.from->alias);
  PredicateKernel kernel;
  for (const sql::Expr* conjunct : conjuncts) {
    if (CompilePredicateKernel(*conjunct, table->schema(), alias, &kernel)) {
      path.kernel_conjuncts.push_back(1);
    } else {
      path.kernel_conjuncts.push_back(ContainsParameter(*conjunct) ? 2 : 0);
    }
  }
  return path;
}

AccessPlan Executor::BuildAccessPlan(const sql::Statement& stmt) const {
  AccessPlan plan;
  const auto analyze = [this](const sql::SelectStmt& select,
                              const std::unordered_set<std::string>& ctes,
                              std::vector<CoreAccessPath>& out) {
    out.reserve(select.cores.size());
    for (const auto& core : select.cores) {
      out.push_back(AnalyzeCore(core, ctes));
    }
  };
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      analyze(*stmt.select, {}, plan.select_cores);
      break;
    case sql::StatementKind::kWith: {
      // The seed runs before the CTE binding exists; the recursive member
      // and the final query see it (a core reading the CTE gets no cached
      // path — the executor re-checks the live bindings anyway).
      const std::unordered_set<std::string> ctes = {
          FoldIdentifier(stmt.with.name)};
      analyze(*stmt.with.seed, {}, plan.seed_cores);
      if (stmt.with.step) analyze(*stmt.with.step, ctes, plan.step_cores);
      analyze(*stmt.with.final_query, ctes, plan.final_cores);
      break;
    }
    case sql::StatementKind::kInsert:
      if (stmt.insert_select) {
        analyze(*stmt.insert_select, {}, plan.insert_cores);
      }
      break;
    default:
      break;
  }
  return plan;
}

ResultSet Executor::ExecuteInternal(const sql::Statement& stmt,
                                    const LockPlan& plan, Session* session) {
  ExecContext ctx;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      ResultSet result = EvalSelect(
          *stmt.select, ctx,
          access_ != nullptr ? &access_->select_cores : nullptr);
      GovFlush();  // the whole statement is its read phase
      return result;
    }
    case sql::StatementKind::kWith: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      ResultSet result = ExecWith(stmt, ctx);
      GovFlush();
      return result;
    }
    case sql::StatementKind::kCreateTable:
      return ExecCreateTable(stmt);
    case sql::StatementKind::kDropTable:
      db_.DropTable(stmt.table_name, stmt.if_exists);
      return {};
    case sql::StatementKind::kCreateIndex: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      {
        const std::scoped_lock lock(table->lock());
        table->CreateIndex(stmt.index_name, stmt.index_columns.at(0));
      }
      // Index DDL bypasses the Database catalog methods, so the version
      // bump that invalidates bound plans happens here.
      db_.BumpCatalogVersion();
      return {};
    }
    case sql::StatementKind::kDropIndex: {
      if (!stmt.table_name.empty()) {
        const auto table = db_.FindTable(stmt.table_name);
        if (!table) {
          throw ExecutionError("table '" + stmt.table_name +
                               "' does not exist");
        }
        bool dropped;
        {
          const std::scoped_lock lock(table->lock());
          dropped = table->DropIndex(stmt.index_name);
        }
        if (dropped) {
          db_.BumpCatalogVersion();
        } else if (!stmt.if_exists) {
          throw ExecutionError("index '" + stmt.index_name +
                               "' does not exist");
        }
        return {};
      }
      for (const auto& name : db_.TableNames()) {
        const auto table = db_.FindTable(name);
        if (!table) continue;
        bool dropped;
        {
          const std::scoped_lock lock(table->lock());
          dropped = table->DropIndex(stmt.index_name);
        }
        if (dropped) {
          db_.BumpCatalogVersion();
          return {};
        }
      }
      if (!stmt.if_exists) {
        throw ExecutionError("index '" + stmt.index_name +
                             "' does not exist");
      }
      return {};
    }
    case sql::StatementKind::kCreateView:
      db_.CreateView(stmt.table_name, stmt.view_select->Clone());
      return {};
    case sql::StatementKind::kDropView:
      db_.DropView(stmt.table_name, stmt.if_exists);
      return {};
    case sql::StatementKind::kInsert: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecInsert(stmt, session);
    }
    case sql::StatementKind::kUpdate: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecUpdate(stmt, session, ctx);
    }
    case sql::StatementKind::kDelete: {
      LockSet locks(recorder_);
      ApplyLockPlan(locks, db_, plan);
      locks.AcquireAll();
      return ExecDelete(stmt, session);
    }
    case sql::StatementKind::kTruncate: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::scoped_lock lock(table->lock());
      BackupForTransaction(session, *table);
      const size_t removed = table->live_row_count();
      table->Clear();
      ResultSet result;
      result.affected_rows = removed;
      return result;
    }
    case sql::StatementKind::kDumpTable: {
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      // A shared lock suffices: the dump only reads. Writers are excluded
      // for the duration, so the file is a consistent snapshot.
      const std::shared_lock lock(table->lock());
      if (table->quarantined()) {
        throw IntegrityError("refusing to dump quarantined table '" +
                             stmt.table_name + "'");
      }
      ResultSet result;
      result.affected_rows = DumpTableToFile(*table, stmt.file_path);
      result.rows_examined = table->live_row_count();
      return result;
    }
    case sql::StatementKind::kRestoreTable: {
      // Create-or-replace from the dumped schema; rows re-inserted in
      // dumped order rebuild the table bit-identically (scan order, PK
      // index). Validation happens in ReadDumpFile before any catalog
      // change, so a corrupt dump leaves the database untouched.
      DumpContents contents = ReadDumpFile(stmt.file_path);
      // Governor pass over the materialized dump BEFORE any catalog
      // change: a quota breach or cancel aborts with the database
      // untouched (the restore loop below is write-apply and never ticks).
      for (const Row& row : contents.rows) {
        GovTick();
        GovCharge(RowFootprintBytes(row));
      }
      GovFlush();  // enforce the full dump size before mutating
      db_.DropTable(stmt.table_name, /*if_exists=*/true);
      db_.CreateTable(stmt.table_name, contents.schema,
                      /*if_not_exists=*/false);
      const auto table = db_.FindTable(stmt.table_name);
      const std::scoped_lock lock(table->lock());
      for (auto& row : contents.rows) table->Insert(std::move(row));
      ResultSet result;
      result.affected_rows = contents.rows.size();
      return result;
    }
    case sql::StatementKind::kCheckTable: {
      // The scrub primitive: recompute the table's content checksum from
      // the live rows and compare it to the incrementally-maintained one.
      // A mismatch quarantines the table (every later statement touching
      // it fails at the lock fence) and raises IntegrityError — corruption
      // is never allowed to become a silently wrong result.
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::shared_lock lock(table->lock());
      SQLOOP_COUNT(recorder_, "minidb.scrub_checks", 1);
      if (table->quarantined()) {
        SQLOOP_COUNT(recorder_, "minidb.scrub_failures", 1);
        throw IntegrityError("table '" + stmt.table_name +
                             "' is already quarantined");
      }
      uint64_t expected = 0;
      uint64_t actual = 0;
      if (!table->VerifyContent(&expected, &actual)) {
        table->set_quarantined(true);
        SQLOOP_COUNT(recorder_, "minidb.scrub_failures", 1);
        char expected_hex[17];
        char actual_hex[17];
        std::snprintf(expected_hex, sizeof(expected_hex), "%016llx",
                      static_cast<unsigned long long>(expected));
        std::snprintf(actual_hex, sizeof(actual_hex), "%016llx",
                      static_cast<unsigned long long>(actual));
        throw IntegrityError(
            "table '" + stmt.table_name +
            "' failed its content checksum: maintained 0x" + expected_hex +
            ", recomputed 0x" + actual_hex + " over " +
            std::to_string(table->live_row_count()) +
            " live rows; table quarantined");
      }
      ResultSet result;
      result.columns = {"table", "status", "rows"};
      result.rows.push_back({Value(stmt.table_name), Value("ok"),
                             Value(static_cast<int64_t>(
                                 table->live_row_count()))});
      result.rows_examined = table->live_row_count();
      return result;
    }
    case sql::StatementKind::kChecksumTable: {
      // O(1) change probe: report the incrementally-maintained checksum
      // without touching a single row (so a spilled table stays spilled).
      // Checkpointing compares it to the last sealed round's value to skip
      // re-dumping unchanged tables.
      const auto table = db_.FindTable(stmt.table_name);
      if (!table) {
        throw ExecutionError("table '" + stmt.table_name +
                             "' does not exist");
      }
      const std::shared_lock lock(table->lock());
      if (table->quarantined()) {
        throw IntegrityError("refusing to checksum quarantined table '" +
                             stmt.table_name + "'");
      }
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(table->content_hash()));
      ResultSet result;
      result.columns = {"table", "checksum", "rows"};
      result.rows.push_back(
          {Value(stmt.table_name), Value(std::string("0x") + hex),
           Value(static_cast<int64_t>(table->live_row_count()))});
      return result;
    }
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
    case sql::StatementKind::kRollback:
      return ExecTransaction(stmt, session);
  }
  throw UsageError("unknown statement kind");
}

ResultSet Executor::ExecuteSql(std::string_view text, Session* session) {
  if (db_.plan_cache().enabled()) {
    const auto plan = Prepare(text);
    ResultSet result =
        ExecuteWithPlan(*plan->ast, *plan->locks, plan->access.get(), session);
    result.compiled = last_prepare_parsed_;
    return result;
  }
  // Ablation path (--no-plan-cache): the pre-cache cost model — every
  // statement pays a full parse.
  SQLOOP_COUNT(recorder_, "sql.parse_count", 1);
  const Stopwatch parse_watch;
  const auto stmt = sql::ParseStatement(text);
  SQLOOP_TIME_SECONDS(recorder_, "sql.parse_seconds",
                      parse_watch.ElapsedSeconds());
  ResultSet result = Execute(*stmt, session);
  result.compiled = true;
  return result;
}

std::shared_ptr<const CachedPlan> Executor::Rebind(const CachedPlan& stale,
                                                   uint64_t version) {
  // The catalog changed since this plan was bound: the parse stays valid
  // (text -> AST is a pure function), only the bind layer — lock set and
  // view expansion — is recomputed. The refresh stays connection-local;
  // writing it back to the shared cache would serialize workers on the
  // cache mutex only to be re-staled by the next round's DDL.
  auto rebound = std::make_shared<CachedPlan>();
  rebound->ast = stale.ast;
  rebound->param_count = stale.param_count;
  rebound->locks = std::make_shared<const LockPlan>(BuildLockPlan(*stale.ast));
  rebound->access =
      std::make_shared<const AccessPlan>(BuildAccessPlan(*stale.ast));
  rebound->bound_version = version;
  db_.plan_cache().NoteRebind();
  SQLOOP_COUNT(recorder_, "minidb.plan_rebinds", 1);
  return rebound;
}

std::shared_ptr<const CachedPlan> Executor::Prepare(std::string_view text,
                                                    bool pin) {
  PlanCache& cache = db_.plan_cache();
  if (!cache.enabled()) {
    throw UsageError("Prepare requires the plan cache to be enabled");
  }
  last_prepare_parsed_ = false;
  const uint64_t version = db_.catalog_version();
  std::string raw(text);
  if (const auto it = local_plans_.find(raw); it != local_plans_.end()) {
    // Hot path: this connection has executed the exact text before. No
    // shared state is touched unless the catalog moved underneath us.
    SQLOOP_COUNT(recorder_, "minidb.plan_cache_hits", 1);
    cache.NoteLocalHit();
    if (it->second->bound_version != version) {
      it->second = Rebind(*it->second, version);
    }
    return it->second;
  }
  const std::string key =
      db_.profile().name + '\x1f' + NormalizeSqlKey(text);
  if (auto entry = cache.Lookup(key)) {
    SQLOOP_COUNT(recorder_, "minidb.plan_cache_hits", 1);
    if (entry->bound_version != version) {
      entry = Rebind(*entry, version);
    }
    if (local_plans_.size() >= kLocalPlanCapacity) local_plans_.clear();
    local_plans_.emplace(std::move(raw), entry);
    return entry;
  }
  SQLOOP_COUNT(recorder_, "minidb.plan_cache_misses", 1);
  SQLOOP_COUNT(recorder_, "sql.parse_count", 1);
  last_prepare_parsed_ = true;
  auto plan = std::make_shared<CachedPlan>();
  {
    const Stopwatch parse_watch;
    auto parsed = sql::ParseStatement(text);
    SQLOOP_TIME_SECONDS(recorder_, "sql.parse_seconds",
                        parse_watch.ElapsedSeconds());
    int max_param = -1;
    sql::VisitStatementExprs(*parsed, [&max_param](const sql::Expr& expr) {
      if (expr.kind == sql::ExprKind::kParameter) {
        max_param = std::max(max_param, expr.param_index);
      }
    });
    plan->param_count = max_param + 1;
    plan->ast = std::shared_ptr<const sql::Statement>(std::move(parsed));
  }
  plan->locks = std::make_shared<const LockPlan>(BuildLockPlan(*plan->ast));
  plan->access = std::make_shared<const AccessPlan>(BuildAccessPlan(*plan->ast));
  plan->bound_version = version;
  if (pin || first_misses_.erase(key) > 0) {
    cache.Put(key, plan);
    if (local_plans_.size() >= kLocalPlanCapacity) local_plans_.clear();
    local_plans_.emplace(std::move(raw), plan);
  } else {
    if (first_misses_.size() >= kLocalPlanCapacity) first_misses_.clear();
    first_misses_.insert(key);
  }
  return plan;
}

}  // namespace sqloop::minidb

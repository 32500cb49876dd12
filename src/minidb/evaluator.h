// Expression evaluation over in-flight relations, with SQL NULL semantics
// (three-valued logic, NULL-propagating arithmetic) and the aggregate
// accumulators for SUM / MIN / MAX / COUNT / AVG.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "minidb/schema.h"
#include "sql/ast.h"

namespace sqloop::minidb {

/// Where a column of an intermediate relation came from: `qualifier` is the
/// table alias (folded), `name` the column name (folded).
struct ColumnBinding {
  std::string qualifier;
  std::string name;
};

/// An intermediate relation flowing between operators, in one of two
/// storage modes:
///   * owned    — `rows` holds materialized copies (the classic form, and
///     always the form of operator *outputs*: projection and aggregation
///     construct fresh rows);
///   * borrowed — `views` holds pointers into Table storage (zero-copy
///     scans). Views are valid while the executing statement holds the
///     table's lock *and* the table's row vector is not grown: the
///     executor guarantees the latter by materializing every INSERT source
///     before inserting and by applying UPDATE writes (in-place slot
///     assignment, never a reallocation of the row vector) only after all
///     matching reads have finished.
/// Consumers iterate with row_count()/row(), which work in either mode.
struct Relation {
  std::vector<ColumnBinding> columns;
  std::vector<Row> rows;          // owned storage (empty in borrowed mode)
  std::vector<const Row*> views;  // borrowed row views (borrowed mode only)
  bool borrowed = false;

  size_t row_count() const noexcept {
    return borrowed ? views.size() : rows.size();
  }
  const Row& row(size_t i) const noexcept {
    return borrowed ? *views[i] : rows[i];
  }
};

/// The SQL NULL every NULL-padded join column reads as.
inline const Value& NullCell() noexcept {
  static const Value null;
  return null;
}

/// Where one column of a join row lives: the join input (`part`) whose
/// base row holds it, and the column's offset within that row.
struct ColumnSlot {
  uint32_t part = 0;
  uint32_t offset = 0;
};

/// A join row read in place (late materialization): one base-row pointer
/// per input of the join tree — null for the NULL-padded side of a LEFT
/// JOIN — and the per-column slots that map the combined column list onto
/// those parts. Nothing is copied until a boundary (projection, a group's
/// representative row, a materializing caller) asks for values.
struct JoinRowView {
  const Row* const* parts = nullptr;
  const ColumnSlot* slots = nullptr;

  const Value& operator[](size_t column) const noexcept {
    const ColumnSlot slot = slots[column];
    const Row* part = parts[slot.part];
    return part != nullptr ? (*part)[slot.offset] : NullCell();
  }
};

/// One input row of the SELECT pipeline: a flat row (scans, the reference
/// pipeline) or a join row view.
struct RowRef {
  const Row* flat = nullptr;
  JoinRowView join;

  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, so
  // scans and the reference pipeline pass their rows to input sinks as-is.
  RowRef(const Row& row) noexcept : flat(&row) {}
  explicit RowRef(JoinRowView view) noexcept : join(view) {}

  const Value& operator[](size_t column) const noexcept {
    return flat != nullptr ? (*flat)[column] : join[column];
  }
  /// Copies the first `width` columns into an owned row.
  Row Materialize(size_t width) const;
};

/// Memoized column-reference resolutions against one binding list. Each
/// reference resolves once (on first evaluation, so an unresolvable one
/// still raises only if a row reaches it); afterwards a lookup is a
/// pointer compare at a cursor that follows the per-row evaluation order,
/// so hot loops do no hashing and no name matching.
class ResolutionCache {
 public:
  int Resolve(const sql::Expr& ref, const std::vector<ColumnBinding>& columns);

 private:
  std::vector<std::pair<const sql::Expr*, int>> entries_;
  size_t cursor_ = 0;
};

/// Evaluation context: the current row inside a relation — a flat `row`,
/// or, when `row` is null, the join row view `join` — plus (during
/// aggregate projection) the values computed for each aggregate
/// sub-expression of the SELECT list. `resolution_cache`, when set,
/// memoizes column-reference lookups for `columns`.
struct EvalContext {
  const std::vector<ColumnBinding>* columns = nullptr;
  const Row* row = nullptr;
  const std::vector<const sql::Expr*>* agg_exprs = nullptr;
  const std::vector<Value>* agg_values = nullptr;
  ResolutionCache* resolution_cache = nullptr;
  JoinRowView join;
};

/// Context for evaluating against one pipeline input row.
inline EvalContext InputContext(const std::vector<ColumnBinding>& columns,
                                const RowRef& input,
                                ResolutionCache* cache) noexcept {
  EvalContext ec;
  ec.columns = &columns;
  ec.row = input.flat;
  ec.join = input.join;
  ec.resolution_cache = cache;
  return ec;
}

/// Evaluates `expr` in `ctx`. Throws AnalysisError for unresolved or
/// ambiguous columns and ExecutionError for runtime type errors.
Value Evaluate(const sql::Expr& expr, const EvalContext& ctx);

/// True when the value counts as satisfied in a WHERE/HAVING/ON position
/// (non-NULL and numerically non-zero).
bool Truthy(const Value& v);

/// Resolves a column reference against a binding list. Returns the column
/// index; throws AnalysisError if missing or ambiguous.
int ResolveColumn(const std::vector<ColumnBinding>& columns,
                  const std::string& qualifier, const std::string& name);

/// Same, but returns -1 instead of throwing when the column is absent
/// (still throws on ambiguity).
int TryResolveColumn(const std::vector<ColumnBinding>& columns,
                     const std::string& qualifier, const std::string& name);

/// True if every column reference in `expr` resolves in `columns`.
bool AllColumnsResolve(const sql::Expr& expr,
                       const std::vector<ColumnBinding>& columns);

/// Streaming accumulator for one aggregate function.
class Accumulator {
 public:
  Accumulator(sql::AggFunc func, bool distinct);

  /// Feeds one input value (ignored when NULL, per SQL).
  void Add(const Value& v);

  // --- vectorized bulk feeds (batch pipeline; see minidb/batch.h) -------
  // Dense non-NULL payload spans gathered from one batch's selected lanes,
  // fed in lane order so every state transition (including double rounding
  // and the running MIN/MAX with Value::Compare's NaN handling) matches the
  // equivalent sequence of Add() calls exactly. Callers must not use these
  // on DISTINCT accumulators — the dedup set needs Value keys, so DISTINCT
  // aggregates stay on the scalar Add() path.

  /// Bulk-adds int64 payloads (int64 column lanes).
  void AddInt64Span(const int64_t* values, size_t count);
  /// Bulk-adds double payloads (double column lanes).
  void AddDoubleSpan(const double* values, size_t count);
  /// Bulk-adds borrowed text payloads (text column lanes); only valid for
  /// COUNT/MIN/MAX (SUM/AVG over text throws, exactly like Add()).
  void AddTextSpan(const std::string* const* values, size_t count);
  /// COUNT(*) bulk feed: `count` accepted rows. Only valid for a
  /// non-DISTINCT COUNT.
  void AddCountedRows(int64_t count);

  Value Result() const;

 private:
  bool ShouldSkipDuplicate(const Value& v);

  sql::AggFunc func_;
  bool distinct_;
  std::unordered_set<Value, ValueKeyHash, ValueKeyEq> seen_;

  int64_t value_count_ = 0;  // accepted (non-NULL, non-duplicate) inputs
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  bool saw_double_ = false;
  Value extreme_;           // running MIN/MAX
};

/// Collects the distinct aggregate sub-expressions (by structural equality)
/// appearing in `expr` into `out`.
void CollectAggregates(const sql::Expr& expr,
                       std::vector<const sql::Expr*>& out);

/// True if `expr` contains any aggregate function call.
bool ContainsAggregate(const sql::Expr& expr);

}  // namespace sqloop::minidb

// Table schemas and row/result containers for the minidb engine.
//
// Identifier handling: minidb folds all table/column names to lower case
// (as PostgreSQL does for unquoted identifiers), so SQL written with any
// capitalization resolves consistently.
#pragma once

#include <string>
#include <vector>

#include "sql/value.h"

namespace sqloop::minidb {

using Row = std::vector<Value>;

struct Column {
  std::string name;  // lower-cased
  ValueType type = ValueType::kInt64;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Column> columns, int primary_key_index);

  const std::vector<Column>& columns() const noexcept { return columns_; }
  size_t column_count() const noexcept { return columns_.size(); }
  int primary_key_index() const noexcept { return primary_key_index_; }

  /// Index of the column with this (case-insensitive) name, or -1.
  int FindColumn(const std::string& name) const noexcept;

  /// Coerces `row` to the schema's column types in place (int widens to
  /// double, NULL passes through). Throws ExecutionError on arity or type
  /// mismatch.
  void CoerceRow(Row& row) const;

 private:
  std::vector<Column> columns_;
  int primary_key_index_ = -1;
};

/// Result of a statement: column names + rows for queries, affected-row
/// count for DML. Shipped to clients through the dbc layer.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected_rows = 0;
  /// Rows the engine read while answering (table-scan volume). The dbc
  /// layer uses this to model server-side processing cost; see DESIGN.md.
  size_t rows_examined = 0;
  /// True when the engine compiled (parsed + planned) the statement text
  /// rather than serving a cached plan. The dbc layer uses this to model
  /// server-side compile cost (compile_us) — prepared/cached executions
  /// skip it, exactly like a server-side PREPARE.
  bool compiled = false;
  /// Rows the statement's FROM-clause subqueries (derived tables)
  /// produced. The single-threaded loop reads it as the number of keys a
  /// frontier round drove.
  size_t derived_rows = 0;

  bool empty() const noexcept { return rows.empty(); }
  size_t row_count() const noexcept { return rows.size(); }

  /// Convenience accessor for single-value results (aggregate probes).
  const Value& ScalarAt(size_t row = 0, size_t col = 0) const;
};

/// Lower-cases an identifier the way the catalog stores it.
std::string FoldIdentifier(const std::string& name);

// --- memory-footprint estimates (DESIGN.md "Resource governance") ------
// Estimates, not allocator truth: they count the value payloads plus the
// vector/variant headers, which is what governance budgets care about.
// Text shorter than the SSO buffer costs nothing beyond the Value itself.

inline int64_t ValueFootprintBytes(const Value& value) noexcept {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (value.is_text()) {
    const std::string& text = value.as_text();
    if (text.capacity() > sizeof(std::string)) {
      bytes += static_cast<int64_t>(text.capacity());
    }
  }
  return bytes;
}

inline int64_t RowFootprintBytes(const Row& row) noexcept {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& value : row) bytes += ValueFootprintBytes(value);
  return bytes;
}

}  // namespace sqloop::minidb

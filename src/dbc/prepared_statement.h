// JDBC-style prepared statements: Connection::Prepare(sql) compiles a
// statement with `?` placeholders once; every ExecuteQuery/ExecuteUpdate
// afterwards ships only the bound values — one round trip, no re-parse.
//
// The handle holds only the shared cached plan and its bind values: each
// execution binds into a private copy of the cached AST, so handles of one
// large statement on many connections cost no more memory than the plan
// itself, and re-execution never re-parses or re-plans. The server-side
// plan (lock set) is validated against the database's catalog version on
// every execute and refreshed transparently after any DDL — and because
// the compiled state lives with the database, a resilience Reopen() of the
// connection needs no re-prepare at all.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dbc/connection.h"
#include "minidb/plan_cache.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace sqloop::dbc {

class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  const std::string& sql() const noexcept { return sql_; }
  int parameter_count() const noexcept { return param_count_; }

  // --- binds (1-based indices, JDBC convention) -------------------------
  void SetInt64(int index, int64_t value);
  void SetDouble(int index, double value);
  void SetText(int index, std::string value);
  void SetNull(int index);
  void ClearParameters();

  // --- execution (one round trip each; all parameters must be bound) ----
  ResultSet Execute();
  ResultSet ExecuteQuery() { return Execute(); }
  size_t ExecuteUpdate() { return Execute().affected_rows; }

  /// Snapshots the current binds into the batch queue.
  void AddBatch();
  /// Executes every queued bind set in order; a single round trip for the
  /// whole batch. Returns per-execution affected rows. The queue is
  /// preserved when a fault strikes before the batch reaches the engine.
  std::vector<size_t> ExecuteBatch();
  size_t batch_size() const noexcept { return batch_.size(); }

 private:
  friend class Connection;

  PreparedStatement(Connection& conn, std::string sql);

  /// Re-validates the server-side plan: refreshes it after DDL (parse is
  /// reused, lock plan re-binds), and — when the plan cache is disabled
  /// (`--no-plan-cache`) — re-parses per execute to model the old world.
  /// Returns true when a compile (full parse) happened this call.
  bool EnsureFresh();
  /// Parses sql_ locally into parsed_ (plan cache disabled).
  void Recompile();
  void RequireAllBound() const;
  void CheckIndex(int index) const;
  /// The shared engine call: binds `values` into a copy of the statement
  /// and executes it.
  ResultSet Submit(const std::vector<Value>& values);

  Connection* conn_;
  std::string sql_;
  std::shared_ptr<const minidb::CachedPlan> plan_;  // null when cache is off
  sql::StatementPtr parsed_;  // the local parse while the cache is off
  std::vector<Value> binds_;
  std::vector<char> has_bind_;
  std::vector<std::vector<Value>> batch_;
  int param_count_ = 0;
};

}  // namespace sqloop::dbc

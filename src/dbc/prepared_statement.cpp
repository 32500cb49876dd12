#include "dbc/prepared_statement.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "sql/parser.h"
#include "telemetry/hooks.h"

namespace sqloop::dbc {

PreparedStatement Connection::Prepare(std::string sql) {
  std::vector<std::string> one;
  one.push_back(std::move(sql));
  return std::move(PrepareAll(std::move(one)).front());
}

std::vector<PreparedStatement> Connection::PrepareAll(
    std::vector<std::string> sqls) {
  EnsureOpen();
  // Like Execute, the prepare round trip is fault-exposed: a failure here
  // reaches the client before any server-side state exists.
  ThrowIfSuperseded();
  ThrowIfCancelled();
  MaybeInjectFault();
  ThrowIfSuperseded();
  ThrowIfCancelled();
  PayRoundTrip();  // ship the statement texts for server-side compilation
  stats_.prepared_statements += sqls.size();
  SQLOOP_COUNT(recorder_, "dbc.prepared_statements", sqls.size());
  const Stopwatch prepare_watch;
  std::vector<PreparedStatement> prepared;
  prepared.reserve(sqls.size());
  size_t compiles = 0;
  for (std::string& sql : sqls) {
    prepared.push_back(PreparedStatement(*this, std::move(sql)));
    // The PREPARE itself compiles server-side unless the plan was cached.
    if (!db_->plan_cache().enabled() || executor_.last_prepare_parsed()) {
      ++compiles;
    }
  }
  SQLOOP_TIME_SECONDS(recorder_, "dbc.prepare_seconds",
                      prepare_watch.ElapsedSeconds());
  PayCompile(compiles);
  return prepared;
}

PreparedStatement::PreparedStatement(Connection& conn, std::string sql)
    : conn_(&conn), sql_(std::move(sql)) {
  if (conn_->db_->plan_cache().enabled()) {
    plan_ = conn_->executor_.Prepare(sql_, /*pin=*/true);
    param_count_ = plan_->param_count;
  } else {
    // Cache disabled (`--no-plan-cache`): compile locally; EnsureFresh
    // re-parses on every execute to model the unprepared world.
    Recompile();
  }
  binds_.resize(static_cast<size_t>(param_count_));
  has_bind_.assign(static_cast<size_t>(param_count_), 0);
}

void PreparedStatement::Recompile() {
  SQLOOP_COUNT(conn_->recorder_, "sql.parse_count", 1);
  const Stopwatch parse_watch;
  parsed_ = sql::ParseStatement(sql_);
  SQLOOP_TIME_SECONDS(conn_->recorder_, "sql.parse_seconds",
                      parse_watch.ElapsedSeconds());
  int max_param = -1;
  sql::VisitStatementExprs(*parsed_, [&max_param](const sql::Expr& expr) {
    if (expr.kind == sql::ExprKind::kParameter) {
      max_param = std::max(max_param, expr.param_index);
    }
  });
  param_count_ = max_param + 1;
}

void PreparedStatement::CheckIndex(int index) const {
  if (index < 1 || index > param_count_) {
    throw UsageError("parameter index " + std::to_string(index) +
                     " out of range: statement has " +
                     std::to_string(param_count_) + " parameter(s)");
  }
}

void PreparedStatement::SetInt64(int index, int64_t value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(value);
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetDouble(int index, double value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(value);
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetText(int index, std::string value) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value(std::move(value));
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::SetNull(int index) {
  CheckIndex(index);
  binds_[static_cast<size_t>(index - 1)] = Value::Null();
  has_bind_[static_cast<size_t>(index - 1)] = 1;
}

void PreparedStatement::ClearParameters() {
  binds_.assign(static_cast<size_t>(param_count_), Value::Null());
  has_bind_.assign(static_cast<size_t>(param_count_), 0);
}

void PreparedStatement::RequireAllBound() const {
  for (int i = 0; i < param_count_; ++i) {
    if (!has_bind_[static_cast<size_t>(i)]) {
      throw UsageError("parameter ?" + std::to_string(i + 1) +
                       " is unbound — call Set* before executing");
    }
  }
}

bool PreparedStatement::EnsureFresh() {
  minidb::Database& db = *conn_->db_;
  if (!db.plan_cache().enabled()) {
    // Ablation path. Also covers the cache being switched off after this
    // handle was prepared: drop the stale server-side plan.
    plan_ = nullptr;
    Recompile();
    return true;
  }
  if (plan_ == nullptr) {
    // Prepared while the cache was off, or first execute after re-enable.
    plan_ = conn_->executor_.Prepare(sql_, /*pin=*/true);
    return conn_->executor_.last_prepare_parsed();
  }
  if (plan_->bound_version != db.catalog_version()) {
    // DDL happened since the plan was bound. Prepare() reuses the cached
    // AST and only re-binds the lock plan — no re-parse.
    plan_ = conn_->executor_.Prepare(sql_, /*pin=*/true);
    return conn_->executor_.last_prepare_parsed();
  }
  return false;
}

ResultSet PreparedStatement::Submit(const std::vector<Value>& values) {
  const sql::StatementPtr bound =
      (plan_ != nullptr ? *plan_->ast : *parsed_).Clone();
  sql::VisitStatementExprsMutable(*bound, [&values](sql::Expr& expr) {
    if (expr.kind == sql::ExprKind::kParameter) {
      expr.kind = sql::ExprKind::kLiteral;
      expr.literal = values[static_cast<size_t>(expr.param_index)];
    }
  });
  return plan_ != nullptr
             ? conn_->executor_.ExecuteWithPlan(*bound, *plan_->locks,
                                                plan_->access.get(),
                                                &conn_->session_)
             : conn_->executor_.Execute(*bound, &conn_->session_);
}

ResultSet PreparedStatement::Execute() {
  RequireAllBound();
  conn_->EnsureOpen();
  // Same fault and cancellation exposure as Connection::Execute: a failure
  // strikes before the engine applies anything, so the caller may retry
  // the handle, and a superseded task stops at this statement boundary.
  conn_->ThrowIfSuperseded();
  conn_->ThrowIfCancelled();
  conn_->MaybeInjectFault();
  conn_->ThrowIfSuperseded();
  conn_->ThrowIfCancelled();
  conn_->PayRoundTrip();
  ++conn_->stats_.statements;
  ++conn_->stats_.prepared_executions;
  SQLOOP_COUNT(conn_->recorder_, "dbc.statements", 1);
  SQLOOP_COUNT(conn_->recorder_, "dbc.prepared_executions", 1);
  conn_->EnsureTransactionIfNeeded();
  if (EnsureFresh()) conn_->PayCompile();
  const Stopwatch execute_watch;
  conn_->ArmStatementDeadline();
  ResultSet result;
  try {
    result = Submit(binds_);
  } catch (...) {
    conn_->executor_.clear_statement_deadline();
    throw;
  }
  conn_->executor_.clear_statement_deadline();
  SQLOOP_TIME_SECONDS(conn_->recorder_, "dbc.execute_seconds",
                      execute_watch.ElapsedSeconds());
  conn_->PayServerWork(result.rows_examined);
  return result;
}

void PreparedStatement::AddBatch() {
  RequireAllBound();
  batch_.push_back(binds_);
}

std::vector<size_t> PreparedStatement::ExecuteBatch() {
  conn_->EnsureOpen();
  // Mirrors Connection::ExecuteBatch: one fault decision and one round
  // trip for the whole batch; the queue survives a pre-engine failure.
  conn_->ThrowIfSuperseded();
  conn_->ThrowIfCancelled();
  conn_->MaybeInjectFault();
  conn_->ThrowIfSuperseded();
  conn_->ThrowIfCancelled();
  conn_->PayRoundTrip();
  SQLOOP_COUNT(conn_->recorder_, "dbc.batches", 1);
  SQLOOP_COUNT(conn_->recorder_, "dbc.batch_statements", batch_.size());
  conn_->EnsureTransactionIfNeeded();
  // One statement, one compile decision for the whole batch.
  if (EnsureFresh()) conn_->PayCompile();
  std::vector<size_t> affected;
  affected.reserve(batch_.size());
  size_t rows_examined = 0;
  for (const std::vector<Value>& values : batch_) {
    ++conn_->stats_.statements;
    ++conn_->stats_.prepared_executions;
    SQLOOP_COUNT(conn_->recorder_, "dbc.statements", 1);
    SQLOOP_COUNT(conn_->recorder_, "dbc.prepared_executions", 1);
    ResultSet result = Submit(values);
    rows_examined += result.rows_examined;
    affected.push_back(result.affected_rows);
  }
  batch_.clear();
  conn_->PayServerWork(rows_examined);
  return affected;
}

}  // namespace sqloop::dbc

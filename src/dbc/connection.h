// Connection / statement API in the JDBC style the paper depends on:
// execute, executeQuery, executeUpdate, addBatch/executeBatch, transaction
// control, and isolation levels.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/memory_tracker.h"
#include "minidb/database.h"
#include "minidb/executor.h"
#include "telemetry/recorder.h"

namespace sqloop::dbc {

using ResultSet = minidb::ResultSet;

enum class IsolationLevel {
  kReadCommitted,  // statement-level isolation (minidb's native behaviour)
  kSerializable,   // accepted and recorded; see DESIGN.md for scope
};

/// Round-trip / statement counters, exposed so tests and benches can verify
/// communication-cost claims (e.g. that batching collapses round trips).
struct ConnectionStats {
  uint64_t round_trips = 0;
  uint64_t statements = 0;            // includes prepared executions
  uint64_t prepared_statements = 0;   // Prepare() calls (handles created)
  uint64_t prepared_executions = 0;   // executes that went through a handle

  void Reset() noexcept { *this = {}; }
};

class PreparedStatement;

/// One client connection to a database. Not thread-safe — use one
/// connection per thread, exactly as SQLoop does (paper §V-B).
class Connection {
 public:
  /// `memory_limit_bytes` caps this connection's transient working sets
  /// (0 = unlimited); `cancel_check_rows` sets the engine's governor check
  /// interval (<=0 = engine default). Both come from the URL knobs of the
  /// same name.
  Connection(std::shared_ptr<minidb::Database> db, int64_t latency_us,
             int64_t row_cost_ns = 0,
             std::shared_ptr<FaultInjector> fault_injector = nullptr,
             int64_t compile_us = 0, int64_t memory_limit_bytes = 0,
             int64_t cancel_check_rows = 0);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Executes one statement of any kind; pays one round trip.
  ResultSet Execute(std::string_view sql);

  /// Executes a statement expected to produce rows.
  ResultSet ExecuteQuery(std::string_view sql) { return Execute(sql); }

  /// Executes DML; returns the affected-row count.
  size_t ExecuteUpdate(std::string_view sql);

  /// Compiles `sql` (with optional `?` placeholders) into a reusable
  /// handle — JDBC prepareStatement. Pays one round trip now; each
  /// execution afterwards pays exactly one round trip and zero parses.
  /// The handle stays valid across DDL (the plan re-binds transparently)
  /// and across Close/Reopen of this connection.
  PreparedStatement Prepare(std::string sql);

  /// Prepares several statements in one round trip (a pipelined PREPARE):
  /// the handles, and the compile each uncached text pays, are exactly
  /// what one Prepare per text would give. A fault strikes before any of
  /// them is compiled, so the whole call is the retry unit.
  std::vector<PreparedStatement> PrepareAll(std::vector<std::string> sqls);

  /// Queues a statement for ExecuteBatch.
  void AddBatch(std::string sql);

  /// Discards queued batch statements without executing them (JDBC's
  /// Statement.clearBatch). A fatal mid-batch error (e.g. IntegrityError)
  /// abandons the queue; a caller reusing the connection must drain it or
  /// the stale statements would run ahead of its own.
  void ClearBatch() noexcept { batch_.clear(); }

  /// Runs all queued statements in order, paying a single round trip
  /// (JDBC's Statement.executeBatch). Returns per-statement affected rows.
  std::vector<size_t> ExecuteBatch();

  size_t batch_size() const noexcept { return batch_.size(); }

  // --- transactions ----------------------------------------------------
  /// With autocommit off, the first subsequent statement opens a
  /// transaction that lasts until Commit/Rollback (JDBC semantics).
  void SetAutoCommit(bool autocommit);
  bool auto_commit() const noexcept { return autocommit_; }
  void Commit();
  void Rollback();

  void SetTransactionIsolation(IsolationLevel level) noexcept {
    isolation_ = level;
  }
  IsolationLevel transaction_isolation() const noexcept { return isolation_; }

  // --- introspection ---------------------------------------------------
  const minidb::EngineProfile& profile() const { return db_->profile(); }
  Dialect dialect() const { return db_->profile().dialect; }
  const std::string& database_name() const { return db_->name(); }
  const ConnectionStats& stats() const noexcept { return stats_; }
  /// Zeroes the lifetime counters, e.g. between benchmark phases.
  void ResetStats() noexcept { stats_.Reset(); }

  /// Attributes this connection's work (round trips, statements, batches,
  /// plus the engine's rows-examined / lock-wait costs) to a telemetry
  /// recorder. Null detaches. The recorder must outlive the attachment;
  /// SqLoop attaches one per run and detaches it when the run ends.
  void set_recorder(telemetry::Recorder* recorder) noexcept;
  telemetry::Recorder* recorder() const noexcept { return recorder_; }

  bool closed() const noexcept { return closed_; }
  void Close();

  /// Re-arms a closed connection against the same database (the JDBC
  /// pattern of replacing a dropped connection, without re-threading the
  /// URL). Pays one handshake round trip; a configured fault injector may
  /// refuse the attempt with ConnectionLostError, leaving the connection
  /// closed. Queued batch statements survive — the whole batch is a single
  /// client-visible submission that never reached the engine, so the
  /// retrier resubmits it after the reopen. No-op on an open connection.
  void Reopen();

  // --- resilience hooks -------------------------------------------------
  /// Shared fault decision source; null disables injection. Shell and
  /// server hooks can attach one mid-session.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) noexcept {
    fault_ = std::move(injector);
  }
  const std::shared_ptr<FaultInjector>& fault_injector() const noexcept {
    return fault_;
  }

  /// Cooperative cancellation for straggler speculation: once the shared
  /// flag flips to true, the next statement (or batch) this connection
  /// would submit fails with TaskSupersededError *before* it reaches the
  /// engine, and an in-progress injected slow sleep is cut short the same
  /// way. A statement already inside the engine always completes, so a
  /// cancelled task's finished pieces remain exactly-once. Null disables.
  void set_cancel_flag(std::shared_ptr<std::atomic<bool>> flag) noexcept {
    cancel_ = std::move(flag);
  }

  /// Deadline for a single statement (or batch); 0 disables. Enforced at
  /// two points: the injection point (an injected slow statement whose
  /// delay would blow the deadline sleeps only up to the deadline, then
  /// fails with TimeoutError *before* the engine applies it), and — since
  /// the governance work — inside the engine, where the executor's
  /// governor checks the armed deadline every `cancel_check_rows` rows
  /// during read/build phases. Both surfaces throw TimeoutError
  /// (transient): the checks sit before any write applies, so retry is
  /// safe either way.
  void set_statement_timeout_ms(int64_t timeout_ms) noexcept {
    statement_timeout_ms_ = timeout_ms;
  }
  int64_t statement_timeout_ms() const noexcept {
    return statement_timeout_ms_;
  }

  // --- resource governance ----------------------------------------------
  /// Cancellation token observed before each statement AND mid-statement
  /// by the engine's governor (unlike the straggler cancel flag, which is
  /// strictly pre-engine — see set_cancel_flag). Null detaches.
  void set_cancel_token(const CancelToken* token) noexcept {
    token_ = token;
    executor_.set_cancel_token(token);
  }

  /// Redirects this connection's transient-memory charges to `tracker`
  /// (the job server lends each job's scope); null restores the
  /// connection's own scope.
  void set_memory_tracker(MemoryTracker* tracker) noexcept {
    executor_.set_memory_tracker(tracker != nullptr ? tracker : &tracker_);
  }

  /// Rows between the engine governor's cancel/deadline checks; values
  /// < 1 restore the engine default.
  void set_cancel_check_rows(int64_t rows) noexcept {
    executor_.set_cancel_check_rows(rows);
  }

  /// This connection's own memory scope (parented on the database scope,
  /// limited by the `memory_limit_bytes` URL knob).
  MemoryTracker& memory_tracker() noexcept { return tracker_; }

  // Current governance attachments — runners save these before lending a
  // job scope to a borrowed master connection and restore them after.
  const CancelToken* cancel_token() const noexcept { return token_; }
  MemoryTracker* active_memory_tracker() const noexcept {
    return executor_.memory_tracker();
  }
  int64_t cancel_check_rows() const noexcept {
    return executor_.cancel_check_rows();
  }

  /// Direct handle for test fixtures; production code goes through SQL.
  minidb::Database& database() { return *db_; }

 private:
  friend class PreparedStatement;

  void PayRoundTrip();
  void PayServerWork(size_t rows_examined);
  /// Simulated server-side parse+plan cost, paid only when the engine
  /// actually compiled the statement (cache miss or ablation) — prepared
  /// and plan-cached executions skip it, like a server-side PREPARE.
  void PayCompile(size_t statements = 1);
  void EnsureOpen() const;
  void EnsureTransactionIfNeeded();
  /// Consults the injector before a statement/batch touches the engine.
  /// Throws ConnectionLostError (after dropping the connection),
  /// TransientError, or TimeoutError; sleeps for kSlow.
  void MaybeInjectFault();
  /// Marks the connection dropped, as a mid-statement network failure
  /// would: open transaction rolled back server-side, handle unusable.
  void DropNow();
  /// Throws TaskSupersededError iff the cancel flag is set.
  void ThrowIfSuperseded() const;
  /// Throws the token's error iff cancellation was requested (cheap
  /// pre-statement check; the engine governor covers mid-statement).
  void ThrowIfCancelled() const;
  /// Arms the executor's mid-statement deadline from
  /// statement_timeout_ms_; no-op when the timeout is disabled.
  void ArmStatementDeadline();
  /// Sleeps `delay_us` in small slices so a cancel request interrupts an
  /// injected slow statement instead of waiting it out.
  void InterruptibleSleep(int64_t delay_us) const;

  std::shared_ptr<minidb::Database> db_;
  minidb::Executor executor_;
  // The connection's own memory scope: parented on the database tracker
  // (so charges roll up to the server watermark), capped by the
  // memory_limit_bytes URL knob. The executor charges here unless a job
  // scope was lent via set_memory_tracker.
  MemoryTracker tracker_;
  const CancelToken* token_ = nullptr;
  minidb::Session session_;
  std::vector<std::string> batch_;
  int64_t latency_us_;
  int64_t row_cost_ns_;
  int64_t compile_us_;
  std::shared_ptr<FaultInjector> fault_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  int64_t statement_timeout_ms_ = 0;
  bool autocommit_ = true;
  bool in_explicit_txn_ = false;
  bool closed_ = false;
  IsolationLevel isolation_ = IsolationLevel::kReadCommitted;
  ConnectionStats stats_;
  telemetry::Recorder* recorder_ = nullptr;
};

}  // namespace sqloop::dbc

// Statement execution against a Database: the SELECT pipeline (scans,
// joins, grouping, set operations), DML, DDL, recursive CTEs via
// semi-naive evaluation, and weak transactions (table-snapshot rollback).
//
// Concurrency model: each statement collects every base table it touches,
// sorts them by name, and takes table-level locks up front (shared for
// reads, exclusive for writes) — the global ordering makes deadlock
// impossible. This mirrors the table-lock engines the paper runs on and is
// exactly the overhead SQLoop's per-partition tables + message tables are
// designed to avoid (paper §V-C).
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/function_ref.h"
#include "minidb/batch.h"
#include "minidb/database.h"
#include "minidb/evaluator.h"
#include "telemetry/recorder.h"

namespace sqloop::minidb {

// Push-pipeline callback types. Sinks and sources are lambdas passed down
// the call stack (FunctionRef is non-owning).
using RowSink = FunctionRef<void(const Row&)>;   // consumes borrowed rows
using InputSink = FunctionRef<void(const RowRef&)>;  // flat or join rows
using InputSource = FunctionRef<void(const InputSink&)>;  // pushes rows once
// Consumes one join row as its parts (one base-row pointer per join input,
// null = NULL-padded); the parts array is only valid during the call.
using JoinSink = FunctionRef<void(const Row* const* parts)>;

/// Per-connection state: an open transaction's table backups. minidb
/// transactions give statement-level isolation with all-or-nothing
/// rollback of DML (DDL is not transactional; see DESIGN.md).
class Session {
 public:
  bool in_transaction() const noexcept { return in_transaction_; }

 private:
  friend class Executor;
  bool in_transaction_ = false;
  std::unordered_map<std::string, std::vector<Row>> backups_;
};

class Executor {
 public:
  explicit Executor(Database& db) : db_(db) {}

  /// Executes one parsed statement. `session` carries transaction state
  /// and may be null for autocommit execution.
  ResultSet Execute(const sql::Statement& stmt, Session* session = nullptr);

  /// Executes a statement with a precomputed lock plan (from Prepare or a
  /// cached plan), skipping the per-statement table-collection walk.
  ResultSet ExecuteWithPlan(const sql::Statement& stmt, const LockPlan& plan,
                            Session* session = nullptr);

  /// Same, additionally supplying the cached per-core access paths so the
  /// fused pipeline skips its scan/index-probe analysis. `access` may be
  /// null (ad-hoc execution); cached paths are re-validated against the
  /// live catalog before use.
  ResultSet ExecuteWithPlan(const sql::Statement& stmt, const LockPlan& plan,
                            const AccessPlan* access, Session* session);

  /// Executes exactly one statement of SQL text. Consults the database's
  /// plan cache first: repeated text skips the parse entirely, and a
  /// catalog change since the plan was bound re-binds without re-parsing.
  ResultSet ExecuteSql(std::string_view text, Session* session = nullptr);

  /// Compile-once entry point: returns the cached plan for `text`, parsing
  /// on a cache miss and re-binding the lock plan if DDL happened since it
  /// was bound. The handle stays valid after eviction and across Reopen.
  /// `pin` declares the text reusable (an explicit PREPARE): it enters the
  /// shared cache on first compile instead of waiting for a second sighting.
  /// Throws UsageError when the plan cache is disabled.
  std::shared_ptr<const CachedPlan> Prepare(std::string_view text,
                                            bool pin = false);

  /// Whether the most recent Prepare call actually parsed (cache miss) as
  /// opposed to serving a cached plan. Feeds the dbc compile-cost model.
  bool last_prepare_parsed() const noexcept { return last_prepare_parsed_; }

  /// Computes the lock plan (base tables to lock, views expanded) for a
  /// statement under the current catalog.
  LockPlan BuildLockPlan(const sql::Statement& stmt) const;

  /// Computes the per-core access paths (single-base-table detection and
  /// index-probe choice) for a statement under the current catalog. Cached
  /// alongside the lock plan; rebuilt on every re-bind.
  AccessPlan BuildAccessPlan(const sql::Statement& stmt) const;

  /// Scan/materialization accounting for the most recent statement this
  /// executor ran (reset per statement; also flushed to the recorder as
  /// `minidb.*` counters).
  struct EngineCounters {
    size_t rows_materialized = 0;  // rows deep-copied into intermediates
    size_t rows_borrowed = 0;      // rows served zero-copy from storage
    size_t index_scans = 0;        // scans narrowed by an index probe
    size_t full_scans = 0;         // scans that visited every live row
    size_t pushed_predicates = 0;  // WHERE conjuncts evaluated during scans
    size_t fused_cores = 0;        // SELECT cores run on the fused path
    size_t batches_produced = 0;   // RowBatches emitted by batched scans
    size_t vectorized_cores = 0;   // SELECT cores run on the batch plane
    size_t scalar_fallbacks = 0;   // conjuncts/aggregates/projection slots
                                   // evaluated per-lane instead of kernelized
    size_t int_key_tables = 0;     // INT64 flat key tables started (hash
                                   // join build, GROUP BY, UPDATE merge)
    size_t key_fallbacks = 0;      // of those, migrated to the generic table
    size_t index_merges = 0;       // UPDATE ... FROM merges that probed the
                                   // target's key index instead of scanning
    size_t derived_rows = 0;       // rows FROM-clause subqueries produced
  };
  const EngineCounters& last_engine_counters() const noexcept {
    return counters_;
  }

  /// Iteration cap for recursive CTE evaluation (safety net against
  /// non-terminating recursion).
  static constexpr int64_t kMaxRecursions = 100000;

  /// Attributes server-side costs (rows examined, lock-wait time) to a
  /// telemetry recorder; null detaches. Only consulted in telemetry-enabled
  /// builds — the counting hooks compile out otherwise.
  void set_recorder(telemetry::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

  // --- resource governance ----------------------------------------------
  // The statement governor: scan/join/build loops tick a countdown; every
  // `cancel_check_rows` rows the slow path consults the cancel token and
  // the statement deadline, so Cancel(), a blown deadline, or a quota
  // breach preempts a long cross join mid-statement. Byte charges for
  // transient working sets (materialized rows, join builds, GROUP BY
  // state) batch locally and flush into the attached tracker chain, which
  // throws QuotaExceededError on breach. Ticks and charges live only in
  // read/build phases — never in write-apply loops — and each read phase
  // ends with a flush, so every byte charged is checked before anything
  // is written and a mid-statement abort always leaves tables untouched.

  /// Default rows between governor checks (see `cancel_check_rows` URL
  /// parameter).
  static constexpr int64_t kDefaultCancelCheckRows = 1024;

  /// Cancellation token observed mid-statement; null detaches.
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }
  /// Memory scope charged for this executor's transient working sets;
  /// null detaches (accounting off).
  void set_memory_tracker(MemoryTracker* tracker) noexcept {
    memory_ = tracker;
  }
  /// Rows between governor checks; values < 1 restore the default.
  void set_cancel_check_rows(int64_t rows) noexcept {
    check_rows_ = rows >= 1 ? rows : kDefaultCancelCheckRows;
  }
  /// Arms a mid-statement deadline: once passed, the next governor check
  /// throws TimeoutError (transient — ticks sit in read loops only, so the
  /// statement never reached a write and retry is safe).
  void set_statement_deadline(
      std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void clear_statement_deadline() noexcept { has_deadline_ = false; }

  // Current governance attachments, so callers that lend a scope (runner,
  // job server) can save and restore what was there before.
  const CancelToken* cancel_token() const noexcept { return cancel_; }
  MemoryTracker* memory_tracker() const noexcept { return memory_; }
  int64_t cancel_check_rows() const noexcept { return check_rows_; }

 private:
  struct ExecContext {
    // CTE name (folded) -> materialized relation visible to the query.
    std::unordered_map<std::string, const Relation*> cte_bindings;
  };

  struct JoinState;

  /// One join input as rows of base-row pointers, `width` parts per row.
  /// A leaf input (scan, CTE, view, subquery, or a join the reference
  /// pipeline materialized) has width 1 and points into `rel`; a nested
  /// join evaluated by the fused pipeline keeps its output as views into
  /// the relations its own state (`nested`) owns, so nothing is copied.
  struct JoinInput {
    Relation rel;                         // leaf rows (owned or borrowed)
    std::unique_ptr<JoinState> nested;    // owner of a nested join's inputs
    std::vector<const Row*> parts;        // row i: parts[i * width, +width)
    size_t width = 1;
    std::vector<ColumnSlot> slots;        // column -> (part, offset)

    size_t row_count() const noexcept { return parts.size() / width; }
    const Row* const* row(size_t i) const noexcept {
      return parts.data() + i * width;
    }
    const Value& at(size_t i, size_t column) const noexcept {
      return JoinRowView{row(i), slots.data()}[column];
    }
  };

  /// Everything PrepareJoin resolves before a join runs: evaluated (or
  /// schema-only, for index-nested-loop candidates) inputs, the combined
  /// output bindings and their slots, and the classified ON condition.
  /// RunJoin streams the combined rows from this state into a sink as
  /// views; the state owns everything those views point into.
  struct JoinState {
    const sql::TableRef* join = nullptr;
    // Fused pipeline: nested joins stay views and single-INT64 keys use
    // flat tables. Reference pipeline: materialized inputs, generic keys.
    bool fused = false;
    JoinInput left;
    std::shared_ptr<Table> right_table;  // set when right is a base table
    JoinInput right;                     // evaluated right (when needed)
    bool right_materialized = false;
    std::vector<ColumnBinding> right_columns;
    std::vector<ColumnBinding> columns;  // combined output bindings
    std::vector<ColumnSlot> slots;       // combined column -> (part, offset)
    size_t width = 1;                    // parts per combined row
    std::vector<std::pair<int, int>> equi;  // (left index, right index)
    std::vector<const sql::Expr*> residual;  // non-equi ON conjuncts
    // Index-nested-loop right rows copied out of a spill-enabled table for
    // a retained result (a view must never outlive its page pin).
    std::deque<Row> pinned_copies;
  };

  // --- SELECT pipeline -------------------------------------------------
  // For single-core statements the ORDER BY keys are computed inside the
  // core evaluation, where both the projected output and the pre-projection
  // input are visible (SQL allows ordering by either). `order_by` and
  // `sort_keys` are null for UNION arms.
  //
  // Operator outputs (ProjectCore/AggregateCore) are always owned
  // relations; scans and CTE bindings flow through as borrowed row views
  // when the fused pipeline is enabled (see Relation).
  ResultSet EvalSelect(const sql::SelectStmt& stmt, ExecContext& ctx,
                       const std::vector<CoreAccessPath>* paths = nullptr);
  Relation EvalCore(const sql::SelectCore& core, ExecContext& ctx,
                    const std::vector<sql::OrderItem>* order_by = nullptr,
                    std::vector<Row>* sort_keys = nullptr,
                    const CoreAccessPath* path = nullptr);
  /// The materializing pipeline (pre-fusion behavior, kept verbatim): the
  /// fallback for shapes the fused path declines, and the whole pipeline
  /// when fusion is disabled. Error reporting for missing relations and
  /// unresolvable columns lives here.
  Relation EvalCoreReference(const sql::SelectCore& core, ExecContext& ctx,
                             bool aggregate_mode,
                             const std::vector<sql::OrderItem>* order_by,
                             std::vector<Row>* sort_keys);
  /// Fused path for cores whose FROM is a base table or a join tree:
  /// predicates push into the scans, and rows stream from scan/join
  /// straight into projection or aggregation with no intermediate
  /// Relation. Returns false (leaving `out` untouched) for shapes it does
  /// not cover — the caller falls back to the reference materializing
  /// path, which also owns error reporting for missing relations.
  bool TryFusedCore(const sql::SelectCore& core, ExecContext& ctx,
                    bool aggregate_mode,
                    const std::vector<sql::OrderItem>* order_by,
                    std::vector<Row>* sort_keys, const CoreAccessPath* path,
                    Relation* out);
  /// Vectorized counterpart to TryFusedCore for single-base-table cores:
  /// batched scans, compiled predicate kernels that shrink the selection
  /// vector, and typed aggregate reductions (see minidb/batch.h). Returns
  /// false (leaving `out` untouched) for shapes it does not cover, or when
  /// mixing batch-wise kernels with throw-capable per-lane work could
  /// surface a different first error than the row path — the caller falls
  /// through to the row-at-a-time fused path.
  bool TryVectorizedCore(const sql::SelectCore& core, ExecContext& ctx,
                         bool aggregate_mode,
                         const std::vector<sql::OrderItem>* order_by,
                         std::vector<Row>* sort_keys,
                         const CoreAccessPath* path, Relation* out);
  /// Batched counterpart to ScanPush: identical visiting order, counters,
  /// rows_examined accounting, and governance cadence (GovTickRows per
  /// batch), pushing filtered RowBatches into `sink`. `kernels[i]` applies
  /// when `compiled[i]` is set; other conjuncts are evaluated per lane,
  /// row-major, over every visited lane — reproducing the row path's
  /// evaluation count and first error exactly.
  void ScanBatched(const Table& table,
                   const std::vector<ColumnBinding>& columns,
                   const std::vector<const sql::Expr*>& pushed,
                   const std::vector<PredicateKernel>& kernels,
                   const std::vector<uint8_t>& compiled, int probe_conjunct,
                   const std::string& probe_column, const BatchSink& sink);
  Relation EvalTableRef(const sql::TableRef& ref, ExecContext& ctx);
  /// Materializing join: the combined rows copied into an owned relation
  /// (the reference pipeline, UPDATE ... FROM a join, and FROM trees the
  /// fused path declines).
  Relation EvalJoin(const sql::TableRef& join, ExecContext& ctx);
  /// Evaluates one join input. When `pending` is non-null, WHERE conjuncts
  /// that resolve entirely against a base-table input are removed from it
  /// and evaluated during that input's scan (predicate pushdown). On the
  /// fused pipeline a nested join input recurses and keeps its output as
  /// views; the reference pipeline materializes it.
  JoinInput EvalJoinInput(const sql::TableRef& ref, ExecContext& ctx,
                          std::vector<const sql::Expr*>* pending, bool fused);
  /// Wraps a leaf relation as a width-1 join input (charging the pointer
  /// list when the rows are owned; borrowed views move over as they are).
  JoinInput LeafInput(Relation rel);
  JoinState PrepareJoin(const sql::TableRef& join, ExecContext& ctx,
                        std::vector<const sql::Expr*>* pending, bool fused);
  /// Streams the join's combined rows into `sink` as parts arrays (read
  /// them through `state.slots`). Strategy per engine profile, as before:
  /// index nested loop, hash, or plain nested loop, with LEFT JOIN
  /// NULL-padding. `retain` declares that the sink keeps the part pointers
  /// past the call (a nested join's view list), which makes index-nested-
  /// loop rows from spill-enabled tables copy out of their pinned page.
  void RunJoin(JoinState& state, bool retain, const JoinSink& sink);
  Relation ScanTable(const Table& table, const std::string& alias);
  /// Streams `table`'s live rows matching all of `pushed` into `sink`
  /// without copying. `probe_conjunct` >= 0 selects pushed[probe_conjunct]
  /// as an equality index probe on `probe_column` (visiting only matching
  /// rows, in scan order); the probe conjunct is still re-evaluated like
  /// any other pushed predicate, preserving SQL `=` semantics.
  void ScanPush(const Table& table, const std::vector<ColumnBinding>& columns,
                const std::vector<const sql::Expr*>& pushed,
                int probe_conjunct, const std::string& probe_column,
                const RowSink& sink);
  /// Borrowed-relation form of ScanPush (join inputs): the matching rows'
  /// views, with an index probe chosen from `pushed` when available.
  Relation ScanFiltered(const Table& table, const std::string& alias,
                        const std::vector<const sql::Expr*>& pushed);
  /// Per-core access analysis shared by BuildAccessPlan (bind time) and
  /// the fused path (runtime, when no cached path applies).
  CoreAccessPath AnalyzeCore(const sql::SelectCore& core,
                             const std::unordered_set<std::string>& ctes)
      const;
  /// Collects the full FROM-tree output bindings without evaluating
  /// anything; returns false when they cannot be precomputed (views,
  /// subqueries), which disables join predicate pushdown for the core.
  bool TryCollectTreeBindings(const sql::TableRef& ref, ExecContext& ctx,
                              std::vector<ColumnBinding>& out) const;
  Relation ProjectCore(const sql::SelectCore& core,
                       const std::vector<ColumnBinding>& input_columns,
                       const InputSource& input,
                       const std::vector<sql::OrderItem>* order_by,
                       std::vector<Row>* sort_keys);
  /// GROUP BY and aggregation. With `fused`, a single GROUP BY expression
  /// under hash grouping keys its groups in an IntKeyTable while the keys
  /// stay INT64 (migrating to the generic table on the first other key);
  /// the reference pipeline always uses the generic table.
  Relation AggregateCore(const sql::SelectCore& core,
                         const std::vector<ColumnBinding>& input_columns,
                         const InputSource& input,
                         const std::vector<sql::OrderItem>* order_by,
                         std::vector<Row>* sort_keys, bool fused);

  // --- statements -------------------------------------------------------
  ResultSet ExecuteInternal(const sql::Statement& stmt, const LockPlan& plan,
                            Session* session);
  ResultSet ExecWith(const sql::Statement& stmt, ExecContext& ctx);
  ResultSet ExecCreateTable(const sql::Statement& stmt);
  ResultSet ExecInsert(const sql::Statement& stmt, Session* session);
  ResultSet ExecUpdate(const sql::Statement& stmt, Session* session,
                       ExecContext& ctx);
  ResultSet ExecDelete(const sql::Statement& stmt, Session* session);
  ResultSet ExecTransaction(const sql::Statement& stmt, Session* session);

  void CheckDialect(const sql::Statement& stmt) const;
  void BackupForTransaction(Session* session, Table& table);

  // --- governor hot path -------------------------------------------------
  // GovTick compiles to a decrement and a predictable branch; GovSync and
  // GovFlush are the cold slow paths. GovCharge accumulates locally and
  // flushes every kChargeFlushBytes so the atomic tracker chain stays off
  // the per-row path.
  static constexpr int64_t kChargeFlushBytes = 32 * 1024;
  void GovTick() {
    if (--gov_countdown_ <= 0) GovSync();
  }
  /// Batched form of GovTick: one countdown update covers `rows` rows, so
  /// the governor still syncs every `cancel_check_rows` rows — i.e. every
  /// ⌈cancel_check_rows / batch_size⌉ batches on the vectorized path.
  void GovTickRows(int64_t rows) {
    gov_countdown_ -= rows;
    if (gov_countdown_ <= 0) GovSync();
  }
  void GovCharge(int64_t bytes) {
    pending_bytes_ += bytes;
    if (pending_bytes_ >= kChargeFlushBytes) GovFlush();
  }
  void GovSync();
  void GovFlush();
  void GovBeginStatement() noexcept;
  void GovEndStatement() noexcept;

  /// Recomputes the bind layer (lock set, view expansion) of a stale plan
  /// under `version`; the parsed AST is shared, never re-parsed.
  std::shared_ptr<const CachedPlan> Rebind(const CachedPlan& stale,
                                           uint64_t version);

  Database& db_;
  // Connection-local plan map (L1 in front of the shared PlanCache),
  // keyed by raw statement text. Iterative runs re-execute the same
  // statements every round from every worker; serving those from here —
  // and re-binding locally after DDL — keeps the shared cache mutex off
  // the hot path entirely. Capped: unique per-round message-table SQL
  // would otherwise grow it without bound.
  static constexpr size_t kLocalPlanCapacity = 256;
  std::unordered_map<std::string, std::shared_ptr<const CachedPlan>>
      local_plans_;
  // Keys this connection has compiled exactly once. Ad-hoc text only
  // enters the shared cache on its second compile, so single-use
  // statements (unique message-table names minted every round) never
  // churn the shared LRU or its mutex.
  std::unordered_set<std::string> first_misses_;
  bool last_prepare_parsed_ = false;
  // Scan-volume accounting for the statement currently executing (each
  // connection owns its Executor, so no synchronization is needed).
  size_t rows_examined_ = 0;
  EngineCounters counters_;
  // Access paths of the statement currently executing (null for ad-hoc
  // execution); set by ExecuteWithPlan, read by the SELECT pipeline.
  const AccessPlan* access_ = nullptr;
  // Scratch buffer for index probes, reused across probes and statements
  // so the steady-state fused path allocates nothing per probe.
  std::vector<size_t> probe_ids_;
  // Batch-pipeline scratch (lanes, aggregate-feed buffers, per-lane
  // fallback bytemap), reused across batches and statements so the
  // steady-state vectorized path allocates nothing per batch.
  RowBatch batch_;
  ColumnVector gather_;
  std::vector<uint8_t> lane_pass_;
  // Last-seen cumulative buffer-pool counters, so each statement flushes
  // its delta to telemetry (the pool's counters are pool-lifetime).
  struct PoolCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t pages_evicted = 0;
    uint64_t bytes_spilled = 0;
  };
  PoolCounters pool_last_;
  telemetry::Recorder* recorder_ = nullptr;
  // Governor state (see the public resource-governance section).
  const CancelToken* cancel_ = nullptr;
  MemoryTracker* memory_ = nullptr;
  int64_t check_rows_ = kDefaultCancelCheckRows;
  int64_t gov_countdown_ = kDefaultCancelCheckRows;
  int64_t pending_bytes_ = 0;    // charged locally, not yet in the tracker
  int64_t statement_bytes_ = 0;  // flushed total, released at statement end
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace sqloop::minidb

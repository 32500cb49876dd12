#include "core/single_thread.h"

#include <algorithm>

#include "common/error.h"
#include "common/stopwatch.h"
#include "core/analysis.h"
#include "core/checkpoint.h"
#include "core/resilience.h"
#include "core/schema_infer.h"
#include "core/termination.h"
#include "core/translator.h"
#include "dbc/prepared_statement.h"
#include "minidb/schema.h"
#include "sql/parser.h"
#include "sql/value.h"
#include "telemetry/hooks.h"

namespace sqloop::core {
namespace {

using minidb::FoldIdentifier;

/// Statement-level resilience for the single-threaded loops: every
/// statement is one retry unit. Faults are injected before the engine
/// applies a statement (see DESIGN.md "Failure model & resilience"), so
/// re-running a failed statement never double-applies work, and the loop's
/// own progress (which statement comes next) is naturally preserved.
/// Also scopes the policy's statement timeout to the run.
class ResilientConn {
 public:
  ResilientConn(dbc::Connection& conn, const ExecutionContext& ctx)
      : conn_(conn),
        retrier_(ctx.options.retry, ctx.recorder, ctx.observer),
        stats_(ctx.stats),
        saved_timeout_ms_(conn.statement_timeout_ms()),
        saved_token_(conn.cancel_token()),
        saved_tracker_(conn.active_memory_tracker()),
        saved_check_rows_(conn.cancel_check_rows()) {
    conn_.set_statement_timeout_ms(ctx.options.retry.statement_timeout_ms);
    // Scope the run's governance hooks (cancel token, job memory budget,
    // governor interval) to the lent master for the run's duration.
    retrier_.set_cancel_token(ctx.cancel);
    retrier_.set_memory_tracker(ctx.memory);
    retrier_.set_cancel_check_rows(ctx.options.cancel_check_rows);
    retrier_.ApplyGovernance(conn_);
  }
  ~ResilientConn() {
    conn_.set_statement_timeout_ms(saved_timeout_ms_);
    conn_.set_cancel_token(saved_token_);
    conn_.set_memory_tracker(saved_tracker_);
    conn_.set_cancel_check_rows(saved_check_rows_);
    // Flush on every exit path: partial counters still tell the story
    // when the run aborts.
    // += so counts from a setup-phase Retrier (sqloop.cpp) survive when
    // the parallel path falls back here mid-setup.
    stats_.retries += retrier_.retries();
    stats_.reopened_connections += retrier_.reopened_connections();
    stats_.timeouts += retrier_.timeouts();
  }

  void Execute(const std::string& sql) {
    retrier_.Run(conn_, "statement", -1, [&] {
      conn_.Execute(sql);
      return 0;
    });
  }
  size_t ExecuteUpdate(const std::string& sql) {
    return retrier_.Run(conn_, "statement", -1,
                        [&] { return conn_.ExecuteUpdate(sql); });
  }
  dbc::ResultSet ExecuteQuery(const std::string& sql) {
    return retrier_.Run(conn_, "query", -1,
                        [&] { return conn_.ExecuteQuery(sql); });
  }

  // --- prepared path ---------------------------------------------------
  // A handle's compiled state lives with the database, so it survives the
  // Reopen a retry performs; re-running a failed execute is the same safe
  // retry unit as a raw statement.
  dbc::PreparedStatement Prepare(std::string sql) {
    return retrier_.Run(conn_, "prepare", -1,
                        [&] { return conn_.Prepare(sql); });
  }
  dbc::ResultSet Execute(dbc::PreparedStatement& stmt) {
    return retrier_.Run(conn_, "statement", -1,
                        [&] { return stmt.Execute(); });
  }
  size_t ExecuteUpdate(dbc::PreparedStatement& stmt) {
    return retrier_.Run(conn_, "statement", -1,
                        [&] { return stmt.ExecuteUpdate(); });
  }

  Retrier& retrier() { return retrier_; }

 private:
  dbc::Connection& conn_;
  Retrier retrier_;
  RunStats& stats_;
  int64_t saved_timeout_ms_;
  const CancelToken* saved_token_;
  MemoryTracker* saved_tracker_;
  int64_t saved_check_rows_;
};

/// Builds `UPDATE <target> SET c1 = <alias>.c1, ... FROM <source> AS
/// <alias> WHERE <target>.<key> = <alias>.<key>` — the Rid ∩ Rtmp_id merge
/// of §III-A.
std::string BuildMergeSql(const Translator& translator,
                          const std::string& target,
                          const std::string& source,
                          const std::vector<sql::ColumnDef>& schema) {
  static constexpr const char* kAlias = "sqloop_tmp";
  sql::Statement update;
  update.kind = sql::StatementKind::kUpdate;
  update.table_name = target;
  for (size_t i = 1; i < schema.size(); ++i) {
    update.set_items.emplace_back(schema[i].name,
                                  sql::MakeColumnRef(kAlias, schema[i].name));
  }
  update.update_from = sql::MakeBaseTable(source, kAlias);
  update.where =
      sql::MakeBinary(sql::BinaryOp::kEq,
                      sql::MakeColumnRef(target, schema[0].name),
                      sql::MakeColumnRef(kAlias, schema[0].name));
  return translator.Render(update);
}

/// 1 exactly when Value::KeyEquals(a, b), the equality the merge's
/// changed-row test uses (NULLs equal, 1 = 1.0, -0.0 = 0.0), else 0;
/// never a type error: `CASE WHEN a IS NULL THEN b IS NULL ELSE CASE a
/// WHEN b THEN 1 ELSE 0 END END`.
sql::ExprPtr KeyEqualsExpr(const sql::Expr& a, const sql::Expr& b) {
  auto simple = std::make_unique<sql::Expr>();
  simple->kind = sql::ExprKind::kCase;
  simple->case_operand = a.Clone();
  simple->whens.push_back({b.Clone(), sql::MakeLiteral(Value(int64_t{1}))});
  simple->else_expr = sql::MakeLiteral(Value(int64_t{0}));
  auto searched = std::make_unique<sql::Expr>();
  searched->kind = sql::ExprKind::kCase;
  searched->whens.push_back({sql::MakeIsNull(a.Clone(), false),
                             sql::MakeIsNull(b.Clone(), false)});
  searched->else_expr = std::move(simple);
  return searched;
}

/// The MIN/MAX step with `HAVING NOT (same(out_1, R.c_1) AND ...)`: it
/// keeps only the rows the merge would change (DESIGN.md "Frontier
/// rounds").
sql::SelectPtr KeepChangedRows(const sql::SelectStmt& step,
                               const CteAnalysis& analysis,
                               const std::vector<sql::ColumnDef>& schema) {
  auto out = step.Clone();
  sql::SelectCore& core = out->cores[0];
  sql::ExprPtr same;
  for (size_t i = 1; i < schema.size(); ++i) {
    same = sql::AndTogether(
        std::move(same),
        KeyEqualsExpr(*core.items[i].expr,
                      *sql::MakeColumnRef(analysis.primary_alias,
                                          schema[i].name)));
  }
  core.having =
      sql::AndTogether(std::move(core.having),
                       sql::MakeUnary(sql::UnaryOp::kNot, std::move(same)));
  return out;
}

/// `step` driven by `(SELECT key FROM prev UNION SELECT M.to FROM prev JOIN
/// mid AS M ON M.from = prev.key) AS sqloop_frontier JOIN R ON R.key =
/// sqloop_frontier.key`, R being its leftmost input: the keys that changed
/// last round and the keys their `mid` rows point at, the only keys whose
/// inputs can have changed.
std::string FrontierStepSql(const Translator& translator,
                            const sql::SelectStmt& step,
                            const CteAnalysis& analysis,
                            const std::string& prev) {
  static constexpr const char* kFrontier = "sqloop_frontier";
  const std::string p = translator.Quote(prev);
  const std::string key = translator.Quote(analysis.key_column);
  auto driver = sql::ParseSelect(
      "SELECT sqloop_prev." + key + " FROM " + p +
      " AS sqloop_prev UNION SELECT sqloop_mid." +
      translator.Quote(analysis.mid_to_key) + " FROM " + p +
      " AS sqloop_prev JOIN " + translator.Quote(analysis.mid_table) +
      " AS sqloop_mid ON sqloop_mid." +
      translator.Quote(analysis.mid_from_key) + " = sqloop_prev." + key);
  auto out = step.Clone();
  sql::TableRefPtr* leftmost = &out->cores[0].from;
  while ((*leftmost)->kind == sql::TableRefKind::kJoin) {
    leftmost = &(*leftmost)->left;
  }
  auto on = sql::MakeBinary(
      sql::BinaryOp::kEq,
      sql::MakeColumnRef(analysis.primary_alias, analysis.key_column),
      sql::MakeColumnRef(kFrontier, analysis.key_column));
  *leftmost = sql::MakeJoin(sql::JoinKind::kInner,
                            sql::MakeSubquery(std::move(driver), kFrontier),
                            std::move(*leftmost), std::move(on));
  return translator.Render(*out);
}

/// Records one round of a single-threaded loop: the whole body counts as
/// one Compute-side task, plus a span so traces stay uniform across modes.
void RecordRound(const ExecutionContext& ctx, const Stopwatch& run_watch,
                 int64_t round, uint64_t updates, uint64_t keys_driven,
                 double body_start, telemetry::SpanKind kind) {
  telemetry::IterationStats it;
  it.round = round;
  it.updates = updates;
  it.keys_driven = keys_driven;
  it.compute_tasks = 1;
  it.seconds = run_watch.ElapsedSeconds() - body_start;
  it.compute_seconds = it.seconds;
  if (ctx.recorder != nullptr) ctx.recorder->RecordIteration(it);
  if (ctx.recorder != nullptr || ctx.observer != nullptr) {
    telemetry::TaskSpan span;
    span.kind = kind;
    span.round = round;
    span.thread_id = telemetry::Recorder::ThisThreadId();
    span.start_seconds = body_start;
    span.duration_seconds = it.seconds;
    span.updates = updates;
    if (ctx.recorder != nullptr) ctx.recorder->RecordSpan(span);
    if (ctx.observer != nullptr) ctx.observer->OnTaskComplete(span);
  }
  if (ctx.observer != nullptr) ctx.observer->OnRoundEnd(it);
}

/// Emits one kCheckpoint / kRestore span so traces attribute durability
/// cost the same way they attribute Compute/Gather work.
void RecordDurabilitySpan(const ExecutionContext& ctx,
                          telemetry::SpanKind kind, int64_t round,
                          double start_seconds, double duration_seconds) {
  if (ctx.recorder != nullptr || ctx.observer != nullptr) {
    telemetry::TaskSpan span;
    span.kind = kind;
    span.round = round;
    span.thread_id = telemetry::Recorder::ThisThreadId();
    span.start_seconds = start_seconds;
    span.duration_seconds = duration_seconds;
    if (ctx.recorder != nullptr) ctx.recorder->RecordSpan(span);
    if (ctx.observer != nullptr) ctx.observer->OnTaskComplete(span);
  }
}

/// One round's slot in the cross-job scheduler (service runs); see
/// RoundGate. A null gate makes both calls no-ops, so standalone runs pay
/// nothing.
struct RoundLease {
  RoundGate* gate;
  int64_t round;
  RoundLease(RoundGate* g, int64_t r) : gate(g), round(r) {
    if (gate != nullptr) gate->BeginRound(round);
  }
  ~RoundLease() {
    if (gate != nullptr) gate->EndRound(round);
  }
};

}  // namespace

dbc::ResultSet RunIterativeSingleThread(dbc::Connection& connection,
                                        const sql::WithClause& with,
                                        const ExecutionContext& ctx) {
  const SqloopOptions& options = ctx.options;
  RunStats& stats = ctx.stats;
  const Stopwatch watch;
  const Translator translator = Translator::For(connection);
  const std::string table = FoldIdentifier(with.name);
  // Two scratch tables persist for the job: round i writes its step
  // output into scratch[i % 2] while scratch[(i + 1) % 2] still holds the
  // previous round's changed rows (frontier rounds read them).
  const std::string scratch[2] = {table + "_tmp0", table + "_tmp1"};
  ResilientConn rc(connection, ctx);

  // Schema inference only issues read-only probes, so the whole call is a
  // safe retry unit.
  const auto schema = rc.retrier().Run(connection, "setup", -1, [&] {
    return InferSchemaFromSelect(connection, translator, *with.seed,
                                 with.columns,
                                 /*widen_non_key=*/true);
  });
  if (schema.size() < 2) {
    throw AnalysisError("an iterative CTE needs a key column plus at least "
                        "one value column");
  }
  const TerminationChecker checker(with.termination, translator, table);
  // MIN/MAX steps of the analyzable shape run frontier rounds: exact,
  // because key k's output reads only row k and the rows its `mid` rows
  // point at, and `mid` stays constant for the job (DESIGN.md "Frontier
  // rounds").
  const CteAnalysis analysis = AnalyzeIterativeCte(with);
  const bool frontier = analysis.parallelizable && analysis.IsMinMax() &&
                        analysis.primary_leftmost;

  // --- checkpointing / recovery ----------------------------------------
  // Identity ties checkpoints to the exact job (query text + mode): a
  // resumed run replays the same statements, so only state from the very
  // same job makes the restored table meaningful.
  const bool want_checkpoints = options.checkpoint_every > 0;
  std::unique_ptr<CheckpointManager> ckpt;
  std::optional<CheckpointManifest> resume_from;
  if (want_checkpoints || options.resume) {
    const std::string job_id = CheckpointManager::JobId(
        table + '|' + translator.Render(*with.seed) + '|' +
        translator.Render(*with.step) + '|' +
        translator.Render(*with.final_query) + '|' +
        ExecutionModeName(ExecutionMode::kSingleThread) + "|0");
    if (options.resume) {
      resume_from =
          RecoveryManager(options.checkpoint_dir, job_id).FindLatestValid();
      if (resume_from != std::nullopt &&
          resume_from->mode !=
              ExecutionModeName(ExecutionMode::kSingleThread)) {
        resume_from.reset();
      }
    }
    if (want_checkpoints) {
      ckpt = std::make_unique<CheckpointManager>(options.checkpoint_dir,
                                                 job_id,
                                                 options.checkpoint_keep,
                                                 options.verify_checkpoints);
    }
  }

  // CREATE TABLE R; INSERT INTO R R0 (paper §IV-B) — or, when resuming,
  // R restored from the newest valid checkpoint.
  rc.Execute(translator.DropTableSql(table));
  for (const auto& name : scratch) rc.Execute(translator.DropTableSql(name));
  rc.Execute(translator.DropTableSql(checker.delta_table()));
  int64_t start_iteration = 1;
  size_t table_rows = 0;  // the merge only updates, so R's size is fixed
  if (resume_from != std::nullopt) {
    // The dump stores doubles as raw bit patterns and the restore reinserts
    // rows in dump order, so the resumed table is indistinguishable from
    // the one the killed run held after this round.
    const double restore_start = watch.ElapsedSeconds();
    table_rows = rc.ExecuteUpdate(
        "RESTORE TABLE " + translator.Quote(table) + " FROM " +
        Value(resume_from->table_file).ToSqlLiteral());
    start_iteration = resume_from->round + 1;
    stats.resumed_from_round = resume_from->round;
    SQLOOP_COUNT(ctx.recorder, "checkpoint.restores", 1);
    RecordDurabilitySpan(ctx, telemetry::SpanKind::kRestore,
                         resume_from->round, restore_start,
                         watch.ElapsedSeconds() - restore_start);
  } else {
    rc.Execute(
        translator.CreateTableSql(table, schema, /*primary_key_index=*/0));
    table_rows = rc.ExecuteUpdate("INSERT INTO " + translator.Quote(table) +
                                  " " + translator.Render(*with.seed));
  }

  // Every statement the loop repeats is prepared exactly once here; the
  // iterations below only execute the handles. A round is TRUNCATE next;
  // INSERT INTO next <step>; UPDATE R ... FROM next. The first round (also
  // after a resume or a repair, whose setup starts from empty scratch
  // tables) drives the step from all of R; later frontier rounds drive it
  // from the previous round's changed keys. Without frontier rounds one
  // scratch table serves every round.
  const int scratch_count = frontier ? 2 : 1;
  const sql::SelectPtr step =
      frontier ? KeepChangedRows(*with.step, analysis, schema)
               : with.step->Clone();
  const std::string full_step = translator.Render(*step);
  std::vector<dbc::PreparedStatement> truncate_stmts;
  std::vector<dbc::PreparedStatement> step_stmts;      // full driver
  std::vector<dbc::PreparedStatement> frontier_stmts;  // previous' keys
  std::vector<dbc::PreparedStatement> merge_stmts;
  for (int k = 0; k < scratch_count; ++k) {
    const std::string& next = scratch[k];
    rc.Execute(
        translator.CreateTableSql(next, schema, /*primary_key_index=*/0));
    truncate_stmts.push_back(rc.Prepare("TRUNCATE TABLE " +
                                        translator.Quote(next)));
    const std::string insert = "INSERT INTO " + translator.Quote(next) + " ";
    step_stmts.push_back(rc.Prepare(insert + full_step));
    if (frontier) {
      frontier_stmts.push_back(
          rc.Prepare(insert + FrontierStepSql(translator, *step, analysis,
                                              scratch[1 - k])));
    }
    merge_stmts.push_back(
        rc.Prepare(BuildMergeSql(translator, table, next, schema)));
  }
  std::vector<dbc::PreparedStatement> snapshot_stmts;
  if (checker.needs_delta_snapshot()) {
    for (const auto& sql : checker.SnapshotSql(schema)) {
      snapshot_stmts.push_back(rc.Prepare(sql));
    }
  }

  // Frontier rounds pay off only where the engine drives the step's joins
  // from the small frontier through indexes; an engine that hash-joins
  // scans every input either way and pays for the frontier's own join on
  // top. So each round takes the form predicted to read fewer rows, from
  // the rows_examined the engine reports: the last whole-table step's,
  // against the last frontier step's per key of `prev` times this
  // round's `prev` size. Both forms are exact from any state.
  size_t full_step_rows = 0;
  double frontier_rows_per_key = 0;  // 0 until a frontier round ran
  size_t prev_rows = 0;              // rows the last step wrote to `next`
  for (int64_t iteration = start_iteration;; ++iteration) {
    const RoundLease lease(ctx.gate, iteration);
    if (ctx.observer != nullptr) ctx.observer->OnRoundStart(iteration);
    if (const auto& fault = connection.fault_injector();
        fault != nullptr && fault->ShouldKillAtRound(iteration)) {
      // Simulated hard crash: in-database leftovers are dropped by the
      // next run's setup; checkpoint files survive for a `resume` run.
      throw JobKilledError("fault_kill_at_round fired at round " +
                           std::to_string(iteration));
    }
    const double body_start = watch.ElapsedSeconds();
    for (auto& stmt : snapshot_stmts) rc.Execute(stmt);
    // Rtmp <- Ri(R); R <- merge(R, Rtmp) on matching keys.
    const size_t k = static_cast<size_t>(iteration % scratch_count);
    const bool from_frontier =
        frontier && iteration > start_iteration &&
        frontier_rows_per_key * static_cast<double>(prev_rows) <
            static_cast<double>(full_step_rows);
    rc.Execute(truncate_stmts[k]);
    const dbc::ResultSet stepped =
        rc.Execute(from_frontier ? frontier_stmts[k] : step_stmts[k]);
    if (from_frontier) {
      frontier_rows_per_key =
          static_cast<double>(stepped.rows_examined) /
          static_cast<double>(std::max<size_t>(prev_rows, 1));
    } else {
      full_step_rows = stepped.rows_examined;
    }
    prev_rows = stepped.affected_rows;
    const size_t updates = rc.ExecuteUpdate(merge_stmts[k]);

    stats.iterations = iteration;
    stats.total_updates += updates;
    RecordRound(ctx, watch, iteration, updates,
                from_frontier ? stepped.derived_rows : table_rows, body_start,
                telemetry::SpanKind::kMerge);
    const bool satisfied = rc.retrier().Run(connection, "termination", -1, [&] {
      return checker.Satisfied(connection, iteration, updates);
    });
    if (satisfied) break;
    if (options.scrub_every > 0 && iteration % options.scrub_every == 0) {
      // Scrub BEFORE the checkpoint: corrupt state must never be sealed
      // into a checkpoint it would later be "repaired" from. A mismatch
      // throws IntegrityError; the repair ladder in execute.cpp catches it
      // and restarts from the newest valid (pre-corruption) checkpoint.
      rc.Execute("CHECK TABLE " + translator.Quote(table));
      ++stats.scrub_passes;
      SQLOOP_COUNT(ctx.recorder, "minidb.scrub_passes", 1);
    }
    if (ckpt != nullptr && iteration % options.checkpoint_every == 0) {
      // End-of-round capture: the merge committed and UNTIL said "keep
      // going", so this round's table state is exactly what round N+1
      // starts from.
      const double ckpt_start = watch.ElapsedSeconds();
      ckpt->BeginRound(iteration);
      CheckpointManifest m;
      m.round = iteration;
      m.mode = ExecutionModeName(ExecutionMode::kSingleThread);
      m.table_file = "table.dump";
      // O(1) unchanged-table probe: CHECKSUM TABLE reports the maintained
      // content checksum without scanning. When it matches what the last
      // sealed checkpoint dumped, the sealed bytes are republished instead
      // of re-serializing the whole table.
      const std::string checksum =
          rc.ExecuteQuery("CHECKSUM TABLE " + translator.Quote(table))
              .rows[0][1]
              .as_text();
      if (ckpt->TryReuseDump(iteration, m.table_file, checksum)) {
        ++stats.checkpoint_dumps_reused;
        SQLOOP_COUNT(ctx.recorder, "checkpoint.dumps_reused", 1);
      } else {
        rc.Execute("DUMP TABLE " + translator.Quote(table) + " TO " +
                   Value(ckpt->FileFor(iteration, m.table_file))
                       .ToSqlLiteral());
        ckpt->RecordDumpChecksum(iteration, m.table_file, checksum);
      }
      ckpt->Commit(std::move(m));
      ++stats.checkpoints_written;
      stats.checkpoints_verified = ckpt->verified_count();
      SQLOOP_COUNT(ctx.recorder, "checkpoint.writes", 1);
      RecordDurabilitySpan(ctx, telemetry::SpanKind::kCheckpoint, iteration,
                           ckpt_start, watch.ElapsedSeconds() - ckpt_start);
    }
    if (iteration >= options.max_iterations_guard) {
      throw ExecutionError("iterative CTE '" + with.name +
                           "' did not satisfy its UNTIL condition within " +
                           std::to_string(options.max_iterations_guard) +
                           " iterations");
    }
  }

  dbc::ResultSet result =
      rc.ExecuteQuery(translator.Render(*with.final_query));

  for (int i = 0; i < scratch_count; ++i) {
    rc.Execute(translator.DropTableSql(scratch[i]));
  }
  if (!options.keep_result_tables) {
    rc.Execute(translator.DropTableSql(table));
    rc.Execute(translator.DropTableSql(checker.delta_table()));
  }
  stats.mode_used = ExecutionMode::kSingleThread;
  stats.seconds = watch.ElapsedSeconds();
  return result;
}

dbc::ResultSet RunRecursiveEmulated(dbc::Connection& connection,
                                    const sql::WithClause& with,
                                    const ExecutionContext& ctx) {
  const SqloopOptions& options = ctx.options;
  RunStats& stats = ctx.stats;
  const Stopwatch watch;
  const Translator translator = Translator::For(connection);
  const std::string table = FoldIdentifier(with.name);
  const std::string work_a = table + "_wa";
  const std::string work_b = table + "_wb";

  ResilientConn rc(connection, ctx);

  // Recursive CTEs append, never mutate — keep sampled types, allow
  // duplicate rows (no primary key).
  const auto schema = rc.retrier().Run(connection, "setup", -1, [&] {
    return InferSchemaFromSelect(connection, translator, *with.seed,
                                 with.columns,
                                 /*widen_non_key=*/false);
  });
  for (const auto& name : {table, work_a, work_b}) {
    rc.Execute(translator.DropTableSql(name));
  }
  rc.Execute(translator.CreateTableSql(table, schema, -1));
  rc.Execute(translator.CreateTableSql(work_a, schema, -1));
  const std::string seed_sql = translator.Render(*with.seed);
  rc.Execute("INSERT INTO " + translator.Quote(table) + " " + seed_sql);
  // Each round drives the step from the previous round's delta.
  size_t driven =
      rc.ExecuteUpdate("INSERT INTO " + translator.Quote(work_a) + " " +
                       seed_sql);

  // Semi-naive loop: the step only ever sees the previous delta.
  std::string current = work_a;
  std::string next = work_b;
  for (int64_t round = 1;; ++round) {
    if (round > options.max_iterations_guard) {
      throw ExecutionError("recursive CTE '" + with.name +
                           "' exceeded the recursion guard");
    }
    const RoundLease lease(ctx.gate, round);
    if (ctx.observer != nullptr) ctx.observer->OnRoundStart(round);
    const double body_start = watch.ElapsedSeconds();
    auto step = with.step->Clone();
    RenameBaseTables(*step, {{table, current}});
    rc.Execute(translator.CreateTableSql(next, schema, -1));
    const size_t produced =
        rc.ExecuteUpdate("INSERT INTO " + translator.Quote(next) + " " +
                         translator.Render(*step));
    stats.iterations = round;
    stats.total_updates += produced;
    if (produced == 0) {
      rc.Execute(translator.DropTableSql(next));
      RecordRound(ctx, watch, round, 0, driven, body_start,
                  telemetry::SpanKind::kMerge);
      break;
    }
    rc.Execute("INSERT INTO " + translator.Quote(table) + " SELECT * FROM " +
               translator.Quote(next));
    rc.Execute(translator.DropTableSql(current));
    std::swap(current, next);
    RecordRound(ctx, watch, round, produced, driven, body_start,
                telemetry::SpanKind::kMerge);
    driven = produced;
  }

  dbc::ResultSet result =
      rc.ExecuteQuery(translator.Render(*with.final_query));
  if (!options.keep_result_tables) {
    rc.Execute(translator.DropTableSql(table));
    rc.Execute(translator.DropTableSql(current));
  }
  stats.mode_used = ExecutionMode::kSingleThread;
  stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace sqloop::core

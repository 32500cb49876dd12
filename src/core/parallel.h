// The parallel execution engine (paper §V): hash-partitions the CTE table,
// re-defines R as a view over the partition union, materializes the
// constant part of the join (Rmjoin), and drives per-partition
// Compute/Gather tasks over a pool of worker connections under the Sync,
// Async, or Prioritized-Async scheduling policies.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/analysis.h"
#include "core/checkpoint.h"
#include "core/observer.h"
#include "core/options.h"
#include "core/resilience.h"
#include "core/termination.h"
#include "core/translator.h"
#include "dbc/connection.h"
#include "dbc/prepared_statement.h"

namespace sqloop::core {

class ParallelRunner {
 public:
  /// `master` drives DDL, termination checks, and the final query; worker
  /// connections are opened against `url` (one per thread, §V-B). `schema`
  /// is the inferred CTE schema (key first, already widened). `ctx` bundles
  /// the per-call options with the stats/telemetry sinks; all referenced
  /// objects must outlive the runner.
  ParallelRunner(std::string url, dbc::Connection& master,
                 const sql::WithClause& with, const CteAnalysis& analysis,
                 std::vector<sql::ColumnDef> schema,
                 const ExecutionContext& ctx);

  dbc::ResultSet Run();

 private:
  /// Cross-attempt progress of one Compute task, so a retry resumes at
  /// the statement that failed and never repeats a completed one: a batch
  /// appended twice, or registered twice, would double-count SUM deltas
  /// (DESIGN.md "Failure model & resilience").
  struct ComputeAttempt {
    bool messages_done = false;  // batch appended and registered
    uint64_t seq = 0;            // the batch's seq; 0 = not yet allocated
    int64_t appended = -1;       // rows the append wrote; -1 = not yet run
  };

  /// Whether a finished Compute/Gather pair re-measures its priority.
  enum class RefreshMode {
    kNone,
    kAlways,        // Async under AsyncP mode: refresh unconditionally
    kIfProductive,  // AsyncP continuous: refresh only if the pair moved data
  };

  /// One unit of schedulable work plus its progress. A spec survives its
  /// worker: when a worker exhausts its retry budget the spec — with the
  /// completed pieces already cleared — moves to `abandoned_` and the
  /// master re-executes only what is left.
  struct TaskSpec {
    size_t partition = 0;
    bool do_gather = false;
    bool do_compute = false;
    RefreshMode refresh = RefreshMode::kNone;
    uint64_t updates = 0;  // accumulated across pieces (feeds kIfProductive)
    int bounces = 0;       // rebalance hops off retired workers (bounded)
    ComputeAttempt compute;
  };

  // --- setup / teardown -------------------------------------------------
  void DropLeftovers();
  void CreatePartitions();
  /// One persistent message table per producing partition (§V-C), created
  /// once here — or already re-created by RestoreFromCheckpoint — and
  /// indexed on target_pt. Dropped once, in Cleanup.
  void CreateMessageTables(bool restored);
  void CreateUnionView();
  void MaterializeConstantJoins();  // Rmjoin (§V-B)
  void BuildTaskSql();
  void Cleanup();

  // --- checkpointing / recovery (DESIGN.md "Checkpointing & recovery") ---
  /// Derives the job id and, under `resume`, probes for the newest valid
  /// checkpoint of this exact job (same query, mode, partition count).
  void SetupCheckpointing();
  /// Re-creates the partition and message tables from the resume
  /// checkpoint and reloads the registry / priority / scheduler state.
  /// Returns false (fresh start) when there is nothing to resume.
  bool RestoreFromCheckpoint();
  /// Dumps every partition and message table plus the registry of
  /// unreclaimed batches and seals the round's manifest. Runs at a round
  /// border (pool idle), so the captured state is exactly what the next
  /// round starts from.
  void WriteCheckpoint(int64_t round, uint64_t dispatch_seq,
                       const std::vector<uint64_t>& last_dispatch);
  /// CHECK TABLE over every partition table (batched on the master), at
  /// the scrub cadence point just before the checkpoint write. A content
  /// checksum mismatch surfaces as IntegrityError.
  void ScrubPartitions();

  // --- resilience (DESIGN.md "Failure model & resilience") ---------------
  /// master_.Execute / master_.ExecuteBatch under the retry policy.
  void MasterExecute(const std::string& sql);
  void MasterExecuteBatch();
  /// Runs the spec's remaining pieces on `conn`, each piece under the
  /// retry policy, clearing piece flags as they complete. Worker threads
  /// and the master (DrainAbandoned) both use it.
  void RunSpec(dbc::Connection& conn, TaskSpec& spec);
  void AbandonTask(TaskSpec spec);
  /// Master-side: re-executes every abandoned spec on the master
  /// connection. Called only while the pool is idle (phase/round borders).
  void DrainAbandoned();
  void FlushResilienceStats();

  // --- tasks (§V-C) -----------------------------------------------------
  /// Every fixed-shape statement a task for `partition` runs, indexed by
  /// TaskStatement and prepared on `conn` (one round trip for the group)
  /// the first time a task for that partition lands on that connection.
  /// The handles survive Reopen; the connection's thread is their only user.
  enum TaskStatement {
    kAppend,    // INSERT the Compute's batch, seq bound
    kTruncate,  // reclaim a fully consumed message table
    kReclaim,   // DELETE the consumed batches below a seq
    kGather,    // UPDATE ... FROM every source's rows in the unread range
    kUpdate,    // own columns + delta reset
    kTargets,   // AsyncP: the partitions a batch addresses
    kPriority,  // AsyncP with a priority query
  };
  std::vector<dbc::PreparedStatement>& StatementsFor(dbc::Connection& conn,
                                                     size_t partition);
  /// Frees the owner's consumed batches at the start of its Compute.
  void ReclaimMessages(size_t partition,
                       std::vector<dbc::PreparedStatement>& stmts);
  uint64_t RunCompute(size_t partition, dbc::Connection& conn,
                      ComputeAttempt& attempt);
  uint64_t RunGather(size_t partition, dbc::Connection& conn);
  /// Task wrappers: time the task into the per-round accumulators and emit
  /// a TaskSpan (telemetry-enabled builds only).
  uint64_t TimedCompute(size_t partition, dbc::Connection& conn,
                        ComputeAttempt& attempt);
  uint64_t TimedGather(size_t partition, dbc::Connection& conn);

  // --- telemetry ----------------------------------------------------------
  /// Records one attributed unit of work; no-op without recorder/observer.
  void EmitSpan(telemetry::SpanKind kind, int64_t partition, double start,
                double duration, uint64_t updates);
  /// Closes the round's accounting window: turns the accumulated task
  /// counters into an IterationStats delta, records it, and fires the
  /// observer. Runs on the master thread while the pool is idle.
  void FinishRound(int64_t round, uint64_t updates, double round_start,
                   double barrier_wait);

  // --- message registry (the paper's "global data structure") ------------
  // Each non-empty Compute output is a MessageBatch: rows of the producing
  // partition's message table tagged with one seq. The registry holds
  // only metadata — the rows stay in the tables.
  /// What a Gather of one partition reads: the batches with a seq in
  /// (lo, hi], from every source table.
  struct UnreadMessages {
    uint64_t lo = 0;
    uint64_t hi = 0;
    size_t batches = 0;  // unread batches addressed to the partition
  };
  /// Hands out the seq of a Compute's batch. Until ResolveBatch the seq is
  /// unregistered, and every Gather reads only below it.
  uint64_t AllocateSeq();
  /// Registers the batch appended under `batch.seq`, or only retires the
  /// seq when the append wrote no rows.
  void ResolveBatch(MessageBatch batch, bool appended);
  UnreadMessages Unread(size_t partition);
  bool ConsumedByAllTargets(const MessageBatch& batch) const;  // holds lock
  void MarkConsumed(size_t partition, uint64_t upto);

  // --- scheduling (§V-E) --------------------------------------------------
  void RunRounds();
  void RefreshPriority(size_t partition, dbc::Connection& conn);
  /// True if the partition currently has productive work: a usable
  /// priority, pending messages addressed to it, or no measurement yet.
  /// Fills `rank` with the dispatch priority (already oriented so larger
  /// runs first).
  bool PartitionEligible(size_t partition, double* rank);

  std::string PartitionTable(size_t k) const;
  std::string MjoinTable(size_t k) const;
  std::string MessageTable(size_t k) const;

  const std::string url_;
  dbc::Connection& master_;
  const sql::WithClause& with_;
  const CteAnalysis& analysis_;
  const SqloopOptions& options_;
  RunStats& stats_;
  telemetry::Recorder* const recorder_;  // may be null
  ExecutionObserver* const observer_;    // may be null
  RoundGate* const gate_;                // may be null (non-service runs)
  ThreadPool* const shared_pool_;        // may be null (private pool)
  const Stopwatch run_watch_;            // span times are offsets from this
  Translator translator_;
  std::vector<sql::ColumnDef> schema_;
  std::vector<sql::ColumnDef> message_schema_;
  TerminationChecker checker_;

  size_t partitions_;
  std::string base_;  // folded CTE name; also the union view's name

  // Pre-rendered per-partition SQL, prepared by StatementsFor; binds are
  // the batch seq (append) and the unread seq range (gather).
  std::vector<std::string> append_sql_;
  std::vector<std::string> gather_sql_;
  // Combined own-column update + delta reset, applied after messaging
  // (one statement, one partition scan).
  std::vector<std::string> update_sql_;

  // Prepared handles, keyed by connection and partition.
  std::mutex statements_mutex_;
  std::map<std::pair<const dbc::Connection*, size_t>,
           std::vector<dbc::PreparedStatement>>
      statements_;

  // Message registry.
  std::mutex registry_mutex_;
  std::map<uint64_t, MessageBatch> batches_;  // not yet reclaimed, by seq
  std::set<uint64_t> unregistered_;  // allocated seqs not yet resolved
  // Per partition: every batch it is addressed by up to this seq was read.
  std::vector<uint64_t> consumed_;
  uint64_t message_seq_ = 0;  // seq high-water mark

  // AsyncP priorities (NaN optional = unknown; nullopt = "no work").
  std::mutex priority_mutex_;
  std::vector<std::optional<double>> priorities_;
  std::vector<bool> priority_known_;

  // Per-round accounting. The `_ns` accumulators hold summed task wall time
  // in nanoseconds; FinishRound() snapshots running totals into `prev_` to
  // produce per-round deltas.
  std::atomic<uint64_t> round_updates_{0};
  std::atomic<uint64_t> compute_tasks_{0};
  std::atomic<uint64_t> gather_tasks_{0};
  std::atomic<uint64_t> message_count_{0};
  std::atomic<uint64_t> messages_consumed_{0};
  std::atomic<uint64_t> compute_ns_{0};
  std::atomic<uint64_t> gather_ns_{0};
  std::atomic<int64_t> current_round_{0};  // read by workers for span.round
  uint64_t prev_compute_tasks_ = 0;
  uint64_t prev_gather_tasks_ = 0;
  uint64_t prev_messages_produced_ = 0;
  uint64_t prev_messages_consumed_ = 0;
  uint64_t prev_compute_ns_ = 0;
  uint64_t prev_gather_ns_ = 0;
  uint64_t prev_skipped_ = 0;

  // First task failure, rethrown on the master thread.
  std::mutex failure_mutex_;
  std::exception_ptr failure_;

  // Resilience state. The retrier is shared by the master and all workers;
  // the degradation ladder tracks retired workers and the tasks they
  // abandoned (drained by the master at phase/round borders).
  Retrier retrier_;
  std::mutex degrade_mutex_;
  std::vector<char> worker_dead_;
  size_t live_workers_ = 0;
  std::vector<TaskSpec> abandoned_;
  std::atomic<uint64_t> workers_retired_{0};
  uint64_t degraded_rounds_ = 0;   // master-thread only
  bool round_degraded_ = false;    // master-thread only, reset per round
  // Tasks bounced off a retired worker onto a surviving one (first bounce
  // per task), and straggler-speculation outcomes (tasks == wins + losses).
  std::atomic<uint64_t> rebalanced_{0};
  std::atomic<uint64_t> speculative_tasks_{0};
  std::atomic<uint64_t> speculative_wins_{0};
  std::atomic<uint64_t> speculative_losses_{0};

  // Checkpoint / recovery state (set up in Run before any DDL).
  std::unique_ptr<CheckpointManager> ckpt_;
  std::optional<CheckpointManifest> resume_from_;
  int64_t resume_round_ = 0;  // 0 = fresh run
  uint64_t resume_dispatch_seq_ = 0;
  std::vector<uint64_t> resume_last_dispatch_;
};

}  // namespace sqloop::core

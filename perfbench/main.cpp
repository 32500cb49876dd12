// perfbench — the end-to-end benchmark of SQLoop.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--commit <id>] [--trace-file <path>]
//   perfbench --list-metrics
//   perfbench --self-test
//
// It drives SQLoop only through its public API (SqLoop::Execute,
// JobServer/Session::Submit/JobHandle, dbc::Connection, graph::LoadEdges),
// times those calls from outside, and reads only the statistics the
// program already exposes (RunStats and its recorder, BufferPool::stats,
// JobServer::Jobs). Every output is checked against an oracle. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. See README.md for the workloads and what each metric
// should move.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "dbc/prepared_statement.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "graph/reference.h"
#include "minidb/server.h"
#include "oracle.h"
#include "server/admission.h"
#include "server/job_server.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace sqloop;

// Modeled costs of every connection: the embedded engine has no network
// and no real optimizer, and SQLoop's batching and prepared statements
// target exactly these two costs. Per-row cost stays off so that the
// engine's real CPU, not a sleep proportional to rows examined, stands in
// for server work.
constexpr int64_t kLatencyUs = 100;
constexpr int64_t kCompileUs = 150;
constexpr int64_t kRowCostNs = 0;

// setup_s is the median of this many full set-ups (database, load,
// warm-up job); the last one is kept for the timed window.
constexpr int kSetupReps = 5;
// Lookups run back to back between two jobs of a single-job workload.
constexpr int kLookupsPerGap = 100;
// tenant-mix: open-loop arrival rate. A job holds one of the JobServer's two
// running slots for ~0.18 s on a 4-core host, so the slots are about a third
// busy and a host that slows down for a while does not build a backlog. 100
// jobs in a 25 s run leave ten beyond the 90th percentile. A constant, never
// derived from the host at run time.
constexpr double kTenantMixJobsPerSecond = 4.0;
// A tenant-mix run is invalid, and prints no numbers, when the generator
// fell this far behind its schedule or this many jobs were still queued
// or running when it stopped.
constexpr double kMaxGeneratorLateSeconds = 0.25;
constexpr size_t kMaxBacklogAtEnd = 16;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;  // which end-to-end metric it should move, where
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"job_s", "s", "lower",
       "median job latency: Execute call to result (single-job workloads), "
       "scheduled arrival to result (tenant-mix)"},
      {"job_p90_s", "s", "lower", "90th percentile of the same job latency"},
      {"lookup_p50_s", "s", "lower",
       "median latency of the reader's point and aggregate SELECTs"},
      {"lookup_p90_s", "s", "lower", "90th percentile of lookup latency"},
      {"setup_s", "s", "lower",
       "median of 5 set-ups: database, graph::LoadEdges, warm-up job(s)"},
      {"peak_rss_mb", "MiB", "lower", "process peak RSS over the run"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"graph.load_s", "s", "lower", "setup_s on all workloads"},
      {"sql.parse_count", "count", "lower", "job_s on pagerank-sync"},
      {"sql.parse_s", "s", "lower", "job_s on pagerank-sync"},
      {"dbc.round_trips", "count", "lower",
       "job_s on pagerank-sync and dq-bounded"},
      {"dbc.server_compiles", "count", "lower",
       "job_s on pagerank-sync and dq-bounded"},
      {"dbc.statements", "count", "lower", "job_s on pagerank-sync"},
      {"dbc.prepared_executions", "count", "higher", "job_s on pagerank-sync"},
      {"dbc.modeled_sleep_s", "s", "lower",
       "job_s on all job workloads (a floor: a sleep can overshoot)"},
      {"minidb.rows_examined", "count", "lower", "job_s on pagerank-single"},
      {"minidb.rows_examined_per_update", "ratio", "lower",
       "job_s on pagerank-single (base: RunStats::total_updates)"},
      {"minidb.rows_materialized", "count", "lower",
       "job_s on pagerank-single"},
      {"minidb.plan_cache_hit_ratio", "ratio", "higher",
       "job_s on pagerank-sync (base: hits + misses)"},
      {"minidb.lock_wait_s", "s", "lower",
       "job_s on pagerank-sync; job_p90_s and lookup_p90_s on tenant-mix"},
      {"minidb.full_scans", "count", "lower", "job_s on pagerank-single"},
      {"minidb.index_scans", "count", "lower", "job_s on pagerank-single"},
      {"minidb.fused_cores", "count", "higher", "job_s on pagerank-single"},
      {"minidb.vectorized_cores", "count", "higher",
       "job_s on pagerank-single"},
      {"minidb.scalar_fallbacks", "count", "lower",
       "job_s on pagerank-single"},
      {"minidb.pool_hit_ratio", "ratio", "higher",
       "job_s on dq-bounded (base: pins)"},
      {"minidb.pool_misses", "count", "lower", "job_s on dq-bounded"},
      {"minidb.pages_evicted", "count", "lower", "job_s on dq-bounded"},
      {"minidb.spill_bytes", "bytes", "lower", "job_s on dq-bounded"},
      {"minidb.pool_resident_peak_bytes", "bytes", "lower",
       "peak_rss_mb on dq-bounded (beside the pool budget)"},
      {"core.rounds", "count", "lower", "must not move"},
      {"core.round_s_p50", "s", "lower", "job_s on all job workloads"},
      {"core.master_self_s", "s", "lower",
       "job_s on all job workloads (job wall minus task-span cover)"},
      {"core.merge_s", "s", "lower", "job_s on pagerank-single and dq-bounded"},
      {"core.compute_s", "s", "lower", "job_s on pagerank-sync"},
      {"core.gather_s", "s", "lower", "job_s on pagerank-sync"},
      {"core.barrier_wait_s", "s", "lower", "job_s on pagerank-sync"},
      {"core.partition_setup_s", "s", "lower", "job_s on pagerank-sync"},
      {"core.task_s_p90", "s", "lower", "job_s on pagerank-sync"},
      {"core.worker_busy_frac", "ratio", "higher",
       "job_s on pagerank-sync (base: workers x wall)"},
      {"core.productive_task_ratio", "ratio", "higher",
       "job_s on pagerank-sync (base: tasks)"},
      {"core.message_tables", "count", "lower", "job_s on pagerank-sync"},
      {"core.priority_s", "s", "lower",
       "job_p90_s on tenant-mix (mean per job, not median)"},
      {"core.partitions_skipped", "count", "higher",
       "job_p90_s on tenant-mix (mean per job, not median)"},
      {"server.submit_s_p90", "s", "lower", "job_p90_s on tenant-mix"},
      {"server.queue_wait_s_p50", "s", "lower", "job_p90_s on tenant-mix"},
      {"server.queue_wait_s_p90", "s", "lower", "job_p90_s on tenant-mix"},
      {"server.run_s_p50", "s", "lower", "job_s on tenant-mix"},
      {"server.rejected", "count", "lower", "failed on tenant-mix"},
      {"server.backlog_end", "count", "lower",
       "marks a tenant-mix run valid or invalid"},
      {"bench.gen_late_s_p90", "s", "lower",
       "marks a tenant-mix run valid or invalid"},
      {"bench.gen_late_s_max", "s", "lower",
       "marks a tenant-mix run valid or invalid"},
      {"bench.trace_overhead_frac", "ratio", "lower",
       "traced job_s over untraced job_s, minus one"},
  };
  return kMetrics;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Workloads

/// One kind of iterative job: its SQL, options and oracle.
struct JobKind {
  std::string label;
  std::string sql;
  core::SqloopOptions options;
  std::function<std::string(const dbc::ResultSet&)> check;
};

/// Expected answers of the reader's lookups, computed from the graph.
struct LookupOracle {
  std::vector<int64_t> nodes;
  std::unordered_map<int64_t, std::vector<int64_t>> out_neighbors;  // sorted
  std::unordered_map<int64_t, std::pair<int64_t, double>> in_stats;
};

struct Workload {
  std::string engine;
  std::string graph_kind;
  graph::Graph graph;
  int64_t pool_bytes = 0;   // buffer-pool budget; 0 = unbounded
  bool open_loop = false;   // tenant-mix
  std::vector<JobKind> kinds;
  LookupOracle lookups;
};

core::SqloopOptions Options(core::ExecutionMode mode, int threads,
                            int partitions) {
  core::SqloopOptions options;
  options.mode = mode;
  options.threads = threads;
  options.partitions = partitions;
  return options;
}

JobKind PageRankKind(const graph::Graph& g, int iterations,
                     core::SqloopOptions options) {
  auto expected = std::make_shared<std::unordered_map<int64_t, double>>(
      graph::PageRankReference(g, iterations).rank);
  return {"pagerank", core::workloads::PageRankQuery(iterations), options,
          [expected](const dbc::ResultSet& result) {
            return CheckNodeValues(result, *expected, kFloatTolerance);
          }};
}

JobKind SsspKind(const graph::Graph& g, int64_t source,
                 core::SqloopOptions options) {
  auto expected = std::make_shared<std::unordered_map<int64_t, double>>(
      graph::Dijkstra(g, source));
  return {"sssp", core::workloads::SsspAllQuery(source), options,
          [expected](const dbc::ResultSet& result) {
            return CheckNodeValues(result, *expected, kFloatTolerance);
          }};
}

/// The Descendant Query from `source`; `max_rounds` > 0 bounds it to that
/// many iterations, which discover the nodes up to `max_rounds` hops away.
JobKind DescendantKind(const graph::Graph& g, int64_t source,
                       int64_t max_rounds, core::SqloopOptions options) {
  auto expected = std::make_shared<std::unordered_map<int64_t, int64_t>>(
      graph::BfsHops(g, source));
  if (max_rounds > 0) {
    std::erase_if(*expected,
                  [&](const auto& entry) { return entry.second > max_rounds; });
  }
  return {"dq",
          max_rounds > 0
              ? core::workloads::DescendantQueryBounded(source, max_rounds)
              : core::workloads::DescendantQuery(source),
          options, [expected](const dbc::ResultSet& result) {
            return CheckNodeValues(result, *expected);
          }};
}

LookupOracle MakeLookupOracle(const graph::Graph& g) {
  LookupOracle oracle;
  oracle.nodes = g.Nodes();
  for (const auto& edge : g.edges()) {
    oracle.out_neighbors[edge.src].push_back(edge.dst);
    auto& [count, weight] = oracle.in_stats[edge.dst];
    ++count;
    weight += edge.weight;
  }
  for (auto& [node, neighbors] : oracle.out_neighbors) {
    std::sort(neighbors.begin(), neighbors.end());
  }
  return oracle;
}

/// Of the `candidates` newest pages of a web graph, the one that reaches
/// the most nodes (ties: the newest). Traversals from it cover most of the
/// graph whatever the seed, which keeps their cost steady across seeds.
int64_t WidestSource(const graph::Graph& g, int64_t nodes, int64_t candidates) {
  int64_t best = nodes;
  size_t reach = 0;
  for (int64_t v = nodes; v > std::max<int64_t>(0, nodes - candidates); --v) {
    const size_t r = graph::BfsHops(g, v).size();
    if (r > reach) {
      reach = r;
      best = v;
    }
  }
  return best;
}

/// Builds a workload's inputs from `seed`. `smoke` shrinks every size so
/// that a run finishes in seconds (the benchmark's own tests use it).
Workload MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  Workload w;
  if (name == "pagerank-single" || name == "pagerank-sync") {
    const int64_t nodes = smoke ? 300 : 2500;
    const int iterations = smoke ? 3 : 10;
    w.engine = "postgres";
    w.graph_kind = "web(" + std::to_string(nodes) + ",4)";
    w.graph = graph::MakeWebGraph(nodes, 4, seed);
    w.kinds.push_back(PageRankKind(
        w.graph, iterations,
        name == "pagerank-single"
            ? Options(core::ExecutionMode::kSingleThread, 1, 1)
            : Options(core::ExecutionMode::kSync, 3, 16)));
  } else if (name == "dq-bounded") {
    const int64_t hosts = smoke ? 40 : 300;
    const int64_t backbone = smoke ? 10 : 100;
    w.engine = "mysql";
    w.graph_kind = "host(" + std::to_string(hosts) + ",8," +
                   std::to_string(backbone) + ")";
    w.graph = graph::MakeHostGraph(hosts, 8, backbone, seed);
    // About a quarter of the edges table at the full size. A fixed byte
    // budget, not a share of the measured table: a change that shrinks
    // the table should show up as fewer misses.
    w.pool_bytes = smoke ? (64 << 10) : (288 << 10);
    w.kinds.push_back(DescendantKind(
        w.graph, 0, 0, Options(core::ExecutionMode::kSingleThread, 1, 1)));
  } else if (name == "tenant-mix") {
    const int64_t nodes = smoke ? 200 : 2000;
    w.engine = "postgres";
    w.graph_kind = "web(" + std::to_string(nodes) + ",4)";
    w.graph = graph::MakeWebGraph(nodes, 4, seed);
    w.open_loop = true;
    w.kinds.push_back(PageRankKind(
        w.graph, 6, Options(core::ExecutionMode::kSync, 2, 8)));
    auto asyncp = Options(core::ExecutionMode::kAsyncPriority, 2, 8);
    asyncp.priority_query = core::workloads::SsspPriorityQuery();
    asyncp.priority_descending = false;
    const int64_t source = WidestSource(w.graph, nodes, 20);
    w.kinds.push_back(SsspKind(w.graph, source, asyncp));
    w.kinds.push_back(DescendantKind(
        w.graph, source, 6, Options(core::ExecutionMode::kSync, 2, 8)));
  } else {
    throw UsageError("unknown workload '" + name + "'");
  }
  w.lookups = MakeLookupOracle(w.graph);
  return w;
}

// ---------------------------------------------------------------------------
// One deployment: a server with the workload's database, loaded.

std::string Url(const std::string& host, const std::string& engine) {
  return "minidb://" + host + "/" + engine +
         "?latency_us=" + std::to_string(kLatencyUs) +
         "&compile_us=" + std::to_string(kCompileUs) +
         "&row_cost_ns=" + std::to_string(kRowCostNs);
}

/// The reader: one connection running short point and aggregate SELECTs
/// on `edges` through prepared statements, checked against the graph.
class Reader {
 public:
  Reader(const std::string& url, const LookupOracle& oracle, uint64_t seed)
      : conn_(dbc::DriverManager::GetConnection(url)),
        oracle_(oracle),
        rng_(seed) {
    point_.emplace(conn_->Prepare("SELECT dst FROM edges WHERE src = ?"));
    aggregate_.emplace(conn_->Prepare(
        "SELECT COUNT(*), SUM(weight) FROM edges WHERE dst = ?"));
  }

  /// Runs one lookup; returns an empty string or why its answer is wrong.
  /// Throws what the connection throws.
  std::string RunOne() {
    const int64_t node =
        oracle_.nodes[std::uniform_int_distribution<size_t>(
            0, oracle_.nodes.size() - 1)(rng_)];
    const bool point = (count_++ % 2) == 0;
    auto& statement = point ? *point_ : *aggregate_;
    statement.SetInt64(1, node);
    const dbc::ResultSet result = statement.ExecuteQuery();
    return point ? CheckPoint(node, result) : CheckAggregate(node, result);
  }

 private:
  std::string CheckPoint(int64_t node, const dbc::ResultSet& result) const {
    std::vector<int64_t> got;
    for (const auto& row : result.rows) {
      if (row.size() != 1 || !row[0].is_numeric()) return "malformed row";
      got.push_back(static_cast<int64_t>(row[0].NumericAsDouble()));
    }
    std::sort(got.begin(), got.end());
    const auto it = oracle_.out_neighbors.find(node);
    const std::vector<int64_t> none;
    if (got != (it == oracle_.out_neighbors.end() ? none : it->second)) {
      return "out-neighbours of " + std::to_string(node) + " differ";
    }
    return "";
  }

  std::string CheckAggregate(int64_t node, const dbc::ResultSet& result) const {
    if (result.rows.size() != 1 || result.rows[0].size() != 2 ||
        !result.rows[0][0].is_numeric()) {
      return "malformed aggregate";
    }
    const auto it = oracle_.in_stats.find(node);
    const int64_t count = it == oracle_.in_stats.end() ? 0 : it->second.first;
    const double weight = it == oracle_.in_stats.end() ? 0 : it->second.second;
    const auto& row = result.rows[0];
    const double got_weight =
        row[1].is_numeric() ? row[1].NumericAsDouble() : 0;
    if (static_cast<int64_t>(row[0].NumericAsDouble()) != count ||
        (count > 0 && !row[1].is_numeric()) ||
        std::fabs(got_weight - weight) > kFloatTolerance) {
      return "in-edge aggregate of " + std::to_string(node) + " differs";
    }
    return "";
  }

  std::unique_ptr<dbc::Connection> conn_;
  // Declared after conn_: the statements refer to it.
  std::optional<dbc::PreparedStatement> point_;
  std::optional<dbc::PreparedStatement> aggregate_;
  const LookupOracle& oracle_;
  std::mt19937_64 rng_;
  uint64_t count_ = 0;
};

class Deployment {
 public:
  Deployment(const Workload& w, int rep, Tracer& tracer, uint64_t parent)
      : host_("perfbench" + std::to_string(rep)),
        url_(Url(host_, w.engine)) {
    dbc::DriverManager::RegisterHost(host_, &server_);
    db_ = server_.CreateDatabase(w.engine,
                                 minidb::EngineProfile::ByName(w.engine));
    // The budget must be set before the tables exist.
    if (w.pool_bytes > 0) db_->set_buffer_pool_bytes(w.pool_bytes);
    auto conn = dbc::DriverManager::GetConnection(url_);
    const double start = Now();
    graph::LoadEdges(*conn, w.graph);
    load_seconds_ = Now() - start;
    tracer.Add("graph.load", start, start + load_seconds_, parent);
  }

  ~Deployment() {
    // Everything holding a connection goes before the host is dropped.
    sessions_.clear();
    job_server_.reset();
    reader_.reset();
    db_.reset();
    dbc::DriverManager::RegisterHost(host_, nullptr);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const std::string& url() const { return url_; }
  minidb::Database& db() { return *db_; }
  double load_seconds() const { return load_seconds_; }

  Reader& reader(const LookupOracle& oracle, uint64_t seed) {
    if (!reader_) reader_ = std::make_unique<Reader>(url_, oracle, seed);
    return *reader_;
  }
  server::JobServer& job_server() { return *job_server_; }
  std::vector<server::Session>& sessions() { return sessions_; }

  /// tenant-mix: one shared JobServer (2 shared workers, 2 running jobs)
  /// and four tenants weighted 1:1:2:4.
  void StartJobServer() {
    server::JobServerConfig config;
    config.url = url_;
    config.worker_threads = 2;
    config.max_running_jobs = 2;
    config.queue_capacity = 64;
    config.max_inflight_per_tenant = 16;
    config.history_limit = 16;
    job_server_ = std::make_unique<server::JobServer>(config);
    const double weights[] = {1, 1, 2, 4};
    for (int t = 0; t < 4; ++t) {
      server::SessionOptions options;
      options.weight = weights[t];
      sessions_.push_back(
          job_server_->OpenSession("tenant" + std::to_string(t), options));
    }
  }

 private:
  minidb::Server server_;
  std::string host_;
  std::string url_;
  std::shared_ptr<minidb::Database> db_;
  double load_seconds_ = 0;
  std::unique_ptr<Reader> reader_;
  std::unique_ptr<server::JobServer> job_server_;
  std::vector<server::Session> sessions_;
};

// ---------------------------------------------------------------------------
// Measurements

/// Per-layer values of one job (plus "<name>#base" for each ratio's base).
using LayerValues = std::map<std::string, double>;

void SetRatio(LayerValues& values, const std::string& name, double numerator,
              double base) {
  values[name] = base > 0 ? numerator / base : 0;
  values[name + "#base"] = base;
}

LayerValues JobLayerValues(const core::RunStats& stats, double wall,
                           int workers) {
  LayerValues v;
  const telemetry::Recorder* rec = stats.recorder.get();
  const auto counter = [rec](const char* name) {
    return rec ? static_cast<double>(rec->counter(name)) : 0.0;
  };
  const auto timer = [rec](const char* name) {
    return rec ? rec->timer_seconds(name) : 0.0;
  };
  v["sql.parse_count"] = counter("sql.parse_count");
  v["sql.parse_s"] = timer("sql.parse_seconds");
  v["dbc.round_trips"] = counter("dbc.round_trips");
  v["dbc.server_compiles"] = counter("dbc.server_compiles");
  v["dbc.statements"] = counter("dbc.statements");
  v["dbc.prepared_executions"] = counter("dbc.prepared_executions");
  v["dbc.modeled_sleep_s"] = v["dbc.round_trips"] * kLatencyUs * 1e-6 +
                             v["dbc.server_compiles"] * kCompileUs * 1e-6;
  v["minidb.rows_examined"] = counter("minidb.rows_examined");
  SetRatio(v, "minidb.rows_examined_per_update", v["minidb.rows_examined"],
           static_cast<double>(stats.total_updates));
  v["minidb.rows_materialized"] = counter("minidb.rows_materialized");
  const double hits = counter("minidb.plan_cache_hits");
  SetRatio(v, "minidb.plan_cache_hit_ratio", hits,
           hits + counter("minidb.plan_cache_misses"));
  v["minidb.lock_wait_s"] = timer("minidb.lock_wait_seconds");
  for (const char* name : {"full_scans", "index_scans", "fused_cores",
                           "vectorized_cores", "scalar_fallbacks"}) {
    v[std::string("minidb.") + name] =
        counter((std::string("minidb.") + name).c_str());
  }

  v["core.rounds"] = static_cast<double>(stats.iterations);
  v["core.message_tables"] = static_cast<double>(stats.message_tables);
  v["core.partitions_skipped"] = static_cast<double>(stats.skipped_tasks);
  std::vector<double> rounds;
  double compute = 0, gather = 0, barrier = 0;
  for (const auto& round : stats.per_iteration()) {
    rounds.push_back(round.seconds);
    compute += round.compute_seconds;
    gather += round.gather_seconds;
    barrier += round.barrier_wait_seconds;
  }
  v["core.round_s_p50"] = Median(rounds);
  v["core.compute_s"] = compute;
  v["core.gather_s"] = gather;
  v["core.barrier_wait_s"] = barrier;

  std::vector<std::pair<double, double>> covered;
  std::vector<double> tasks;
  double merge = 0, setup = 0, priority = 0, task_total = 0;
  double productive = 0;
  for (const auto& span : rec ? rec->SpansSnapshot()
                              : std::vector<telemetry::TaskSpan>{}) {
    covered.emplace_back(span.start_seconds,
                         span.start_seconds + span.duration_seconds);
    switch (span.kind) {
      case telemetry::SpanKind::kCompute:
      case telemetry::SpanKind::kGather:
        tasks.push_back(span.duration_seconds);
        task_total += span.duration_seconds;
        if (span.updates > 0) ++productive;
        break;
      case telemetry::SpanKind::kMerge:
        merge += span.duration_seconds;
        break;
      case telemetry::SpanKind::kSetup:
        setup += span.duration_seconds;
        break;
      case telemetry::SpanKind::kPriority:
        priority += span.duration_seconds;
        break;
      default:
        break;
    }
  }
  v["core.master_self_s"] = wall - CoveredLength(covered, 0, wall);
  v["core.merge_s"] = merge;
  v["core.partition_setup_s"] = setup;
  v["core.priority_s"] = priority;
  v["core.task_s_p90"] = Percentile(tasks, 0.9);
  SetRatio(v, "core.worker_busy_frac", task_total,
           stats.parallelized ? workers * wall : 0);
  SetRatio(v, "core.productive_task_ratio", productive,
           static_cast<double>(tasks.size()));
  return v;
}

void SetPoolValues(LayerValues& v, const minidb::BufferPool::Stats& before,
                   const minidb::BufferPool::Stats& after, double jobs) {
  const double hits = static_cast<double>(after.hits - before.hits) / jobs;
  const double misses =
      static_cast<double>(after.misses - before.misses) / jobs;
  SetRatio(v, "minidb.pool_hit_ratio", hits, hits + misses);
  v["minidb.pool_misses"] = misses;
  v["minidb.pages_evicted"] =
      static_cast<double>(after.pages_evicted - before.pages_evicted) / jobs;
  v["minidb.spill_bytes"] =
      static_cast<double>(after.bytes_spilled - before.bytes_spilled) / jobs;
}

struct JobSample {
  double latency = 0;
  bool traced = false;
  LayerValues layer;
};

struct RunResult {
  std::vector<double> setup;
  std::vector<double> load;
  std::vector<JobSample> jobs;
  std::vector<double> lookups;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerValues run_layer;   // run-level per-layer values
  std::string invalid;     // non-empty: the run is invalid
  std::map<std::string, std::string> provenance;
};

void Fail(RunResult& run, const std::string& what, const std::string& why) {
  ++run.failed;
  std::cerr << "FAILED " << what << ": " << why << "\n";
}

/// Runs `count` lookups back to back (closed loop), checking each answer.
void RunLookups(Reader& reader, int count, Tracer& tracer, RunResult& run) {
  for (int i = 0; i < count; ++i) {
    ++run.attempted;
    const double start = Now();
    try {
      const std::string error = reader.RunOne();
      const double end = Now();
      run.lookups.push_back(end - start);
      tracer.Add("dbc.lookup", start, end, 0, 0, 1);
      if (!error.empty()) Fail(run, "lookup", error);
    } catch (const std::exception& e) {
      Fail(run, "lookup", e.what());
    }
  }
}

uint64_t LookupSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 1; }

/// pagerank-single, pagerank-sync, dq-bounded: one job at a time through
/// SqLoop::Execute, lookups between jobs.
void RunSingleJob(const Workload& w, uint64_t seed, double seconds,
                  Tracer& tracer, RunResult& run) {
  const JobKind& kind = w.kinds.front();
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const double start = Now();
    const uint64_t span = tracer.Add("bench.setup", start, start);
    dep = std::make_unique<Deployment>(w, rep, tracer, span);
    const double warm_start = Now();
    ++run.attempted;
    dbc::ResultSet warm;
    std::string error;
    try {
      warm = core::SqLoop(dep->url()).Execute(kind.sql, kind.options);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double end = Now();
    tracer.Add("core.warmup", warm_start, end, span);
    run.setup.push_back(end - start);
    run.load.push_back(dep->load_seconds());
    if (error.empty()) error = kind.check(warm);
    if (!error.empty()) Fail(run, "warm-up job", error);
    tracer.SetEnd(span, end);
  }

  Reader& reader = dep->reader(w.lookups, LookupSeed(seed));
  const int workers = kind.options.ResolveThreads();
  const double window = Now();
  for (int i = 0; Now() - window < seconds || i < 3; ++i) {
    const bool traced = tracer.enabled() && i % 2 == 0;
    const auto pool_before = dep->db().buffer_pool().stats();
    ++run.attempted;
    // A fresh instance per job, connected before the clock starts: one
    // instance reused across jobs gets slower with every job it has run.
    std::optional<core::SqLoop> loop;
    dbc::ResultSet result;
    double start = 0;
    try {
      loop.emplace(dep->url());
      start = Now();
      result = loop->Execute(kind.sql, kind.options);
    } catch (const std::exception& e) {
      Fail(run, "job", e.what());
      continue;
    }
    const double end = Now();
    const auto pool_after = dep->db().buffer_pool().stats();
    const core::RunStats& stats = loop->last_run();
    JobSample sample{end - start, traced,
                     JobLayerValues(stats, end - start, workers)};
    SetPoolValues(sample.layer, pool_before, pool_after, 1);
    if (traced) {
      const uint64_t job = static_cast<uint64_t>(i) + 1;
      const uint64_t span = tracer.Add("core.execute", start, end, 0, job);
      if (stats.recorder) {
        tracer.AddTaskSpans(stats.recorder->SpansSnapshot(), start, span, job);
      }
    }
    run.jobs.push_back(std::move(sample));
    if (const auto error = kind.check(result); !error.empty()) {
      Fail(run, "job", error);
    }
    RunLookups(reader, kLookupsPerGap, tracer, run);
  }
  const auto pool = dep->db().buffer_pool().stats();
  run.run_layer["minidb.pool_resident_peak_bytes"] =
      static_cast<double>(pool.resident_peak);
  run.provenance["pool_budget_bytes"] = std::to_string(pool.budget_bytes);
  if (const auto table = dep->db().FindTable("edges")) {
    run.provenance["edges_table_bytes"] =
        std::to_string(table->tracked_bytes());
  }
}

/// tenant-mix: an open-loop generator submitting to one shared JobServer,
/// beside one closed-loop reader.
void RunTenantMix(const Workload& w, uint64_t seed, double seconds,
                  Tracer& tracer, RunResult& run) {
  std::unique_ptr<Deployment> dep;
  std::vector<std::vector<std::string>> solo;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const double start = Now();
    const uint64_t span = tracer.Add("bench.setup", start, start);
    dep = std::make_unique<Deployment>(w, rep, tracer, span);
    dep->StartJobServer();
    // Warm-up: each job kind once, solo; its answer is the bar every
    // tenant job of that kind must meet bit for bit.
    solo.clear();
    for (const auto& kind : w.kinds) {
      const double warm_start = Now();
      ++run.attempted;
      std::string error;
      try {
        const auto result =
            core::SqLoop(dep->url()).Execute(kind.sql, kind.options);
        error = kind.check(result);
        solo.push_back(Canonical(result));
      } catch (const std::exception& e) {
        error = e.what();
        solo.emplace_back();
      }
      tracer.Add("core.warmup", warm_start, Now(), span);
      if (!error.empty()) Fail(run, "warm-up " + kind.label, error);
    }
    const double end = Now();
    run.setup.push_back(end - start);
    run.load.push_back(dep->load_seconds());
    tracer.SetEnd(span, end);
  }

  // The arrival sequence: cycles of every (tenant, kind) pair, each cycle
  // shuffled by the seed, so every cycle carries the same mix.
  const size_t tenants = dep->sessions().size();
  std::mt19937_64 rng(seed);
  std::vector<std::pair<size_t, size_t>> cycle;
  for (size_t t = 0; t < tenants; ++t) {
    for (size_t k = 0; k < w.kinds.size(); ++k) cycle.emplace_back(t, k);
  }

  // Owned by the generator thread; a waiter only stores `done`.
  struct Arrival {
    size_t kind = 0;
    double scheduled = 0;
    double submit_start = 0;
    double submit_end = 0;
    server::JobHandle handle;  // reset once the job's answer is checked
    std::atomic<double> done{0};
    bool checked = false;
    double queue_s = 0;
    double run_s = 0;
    uint64_t id = 0;
    std::string error;
    core::RunStats stats;
  };
  const double interval = 1.0 / kTenantMixJobsPerSecond;
  const size_t count = static_cast<size_t>(seconds / interval);
  std::vector<Arrival> arrivals(std::max<size_t>(count, 1));
  // Checks the answers of finished jobs and drops their results, so they
  // do not pile up in memory. Runs on the generator thread between
  // arrivals: the waiters only take the time, and allocate nothing.
  const auto collect = [&](size_t end) {
    for (size_t j = 0; j < end; ++j) {
      Arrival& a = arrivals[j];
      if (a.checked || !a.handle.valid() || a.done.load() == 0) continue;
      try {
        const auto result = a.handle.Wait();
        a.error = w.kinds[a.kind].check(result);
        if (a.error.empty() && Canonical(result) != solo[a.kind]) {
          a.error = "differs from its solo answer";
        }
      } catch (const std::exception& e) {
        a.error = e.what();
      }
      a.stats = a.handle.Stats();
      a.queue_s = a.handle.queue_seconds();
      a.run_s = a.handle.run_seconds();
      a.id = a.handle.id();
      a.handle = server::JobHandle();
      a.checked = true;
    }
  };
  std::vector<double> late;
  std::vector<std::thread> waiters;
  waiters.reserve(arrivals.size());
  uint64_t rejected = 0;

  std::atomic<bool> stop_reader{false};
  RunResult reader_run;
  Reader& reader = dep->reader(w.lookups, LookupSeed(seed));
  std::thread reader_thread([&] {
    while (!stop_reader.load()) RunLookups(reader, 1, tracer, reader_run);
  });

  const auto pool_before = dep->db().buffer_pool().stats();
  const double window = Now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (i % cycle.size() == 0) std::shuffle(cycle.begin(), cycle.end(), rng);
    const auto [tenant, kind] = cycle[i % cycle.size()];
    Arrival& a = arrivals[i];
    a.kind = kind;
    a.scheduled = window + static_cast<double>(i) * interval;
    const double wait = a.scheduled - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    a.submit_start = Now();
    late.push_back(a.submit_start - a.scheduled);
    ++run.attempted;
    try {
      a.handle = dep->sessions()[tenant].Submit(w.kinds[kind].sql,
                                                w.kinds[kind].options);
    } catch (const server::AdmissionError& e) {
      ++rejected;
      Fail(run, "submit", e.what());
      continue;
    } catch (const std::exception& e) {
      Fail(run, "submit", e.what());
      continue;
    }
    a.submit_end = Now();
    waiters.emplace_back([&a, handle = a.handle] {
      handle.WaitDone();
      a.done.store(Now());
    });
    collect(i);
  }
  size_t backlog = 0;
  for (const auto& info : dep->job_server().Jobs()) {
    if (!server::IsTerminal(info.state)) ++backlog;
  }
  for (auto& waiter : waiters) waiter.join();
  collect(arrivals.size());
  stop_reader.store(true);
  reader_thread.join();
  run.attempted += reader_run.attempted;
  run.failed += reader_run.failed;
  run.lookups = std::move(reader_run.lookups);

  std::vector<double> submit, queue, run_s;
  const auto pool = dep->db().buffer_pool().stats();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (!a.checked) continue;
    if (!a.error.empty()) {
      Fail(run, w.kinds[a.kind].label + " job", a.error);
      continue;
    }
    const bool traced = tracer.enabled() && i % 2 == 0;
    const double done = a.done.load();
    JobSample sample{done - a.scheduled, traced,
                     JobLayerValues(a.stats, a.run_s,
                                    dep->job_server().config().worker_threads)};
    submit.push_back(a.submit_end - a.submit_start);
    queue.push_back(a.queue_s);
    run_s.push_back(a.run_s);
    if (traced) {
      const int64_t row = 10 + static_cast<int64_t>(i);
      const uint64_t span =
          tracer.Add("server.job", a.submit_start, done, 0, a.id, row);
      tracer.Add("server.submit", a.submit_start, a.submit_end, span, a.id,
                 row);
      tracer.Add("server.queue", a.submit_end, a.submit_end + a.queue_s, span,
                 a.id, row);
      if (a.stats.recorder) {
        tracer.AddTaskSpans(a.stats.recorder->SpansSnapshot(),
                            a.submit_end + a.queue_s, span, a.id);
      }
    }
    run.jobs.push_back(std::move(sample));
  }
  // Concurrent jobs share one pool: spread the window's pool work evenly.
  const double jobs = std::max<double>(1, static_cast<double>(run.jobs.size()));
  for (auto& sample : run.jobs) {
    SetPoolValues(sample.layer, pool_before, pool, jobs);
  }
  auto& layer = run.run_layer;
  layer["minidb.pool_resident_peak_bytes"] =
      static_cast<double>(pool.resident_peak);
  layer["server.submit_s_p90"] = Percentile(submit, 0.9);
  layer["server.queue_wait_s_p50"] = Median(queue);
  layer["server.queue_wait_s_p90"] = Percentile(queue, 0.9);
  layer["server.run_s_p50"] = Median(run_s);
  layer["server.rejected"] = static_cast<double>(rejected);
  layer["server.backlog_end"] = static_cast<double>(backlog);
  layer["bench.gen_late_s_p90"] = Percentile(late, 0.9);
  layer["bench.gen_late_s_max"] = Max(late);
  run.provenance["arrival_rate_per_s"] = Number(kTenantMixJobsPerSecond);
  run.provenance["pool_budget_bytes"] = std::to_string(pool.budget_bytes);
  if (const auto table = dep->db().FindTable("edges")) {
    run.provenance["edges_table_bytes"] =
        std::to_string(table->tracked_bytes());
  }
  if (Max(late) > kMaxGeneratorLateSeconds) {
    run.invalid = "generator fell " + std::to_string(Max(late)) +
                  " s behind its schedule";
  } else if (backlog > kMaxBacklogAtEnd) {
    run.invalid = std::to_string(backlog) +
                  " jobs still queued or running when the generator stopped";
  }
}

// ---------------------------------------------------------------------------
// Output

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The median over jobs of one per-layer value.
double JobMedian(const std::vector<JobSample>& jobs, const std::string& key) {
  std::vector<double> values;
  for (const auto& job : jobs) {
    const auto it = job.layer.find(key);
    if (it != job.layer.end()) values.push_back(it->second);
  }
  return Median(values);
}

double JobMean(const std::vector<JobSample>& jobs, const std::string& key) {
  double sum = 0;
  for (const auto& job : jobs) sum += job.layer.at(key);
  return jobs.empty() ? 0 : sum / static_cast<double>(jobs.size());
}

std::vector<double> Latencies(const std::vector<JobSample>& jobs,
                              std::optional<bool> traced = std::nullopt) {
  std::vector<double> values;
  for (const auto& job : jobs) {
    if (!traced || job.traced == *traced) values.push_back(job.latency);
  }
  return values;
}

int Run(const std::string& workload, uint64_t seed, double seconds,
        bool trace, bool smoke, const std::string& commit,
        const std::string& trace_file) {
  const Workload w = MakeWorkload(workload, seed, smoke);
  Tracer tracer(trace);
  RunResult run;
  if (w.open_loop) {
    RunTenantMix(w, seed, seconds, tracer, run);
  } else {
    RunSingleJob(w, seed, seconds, tracer, run);
  }
  if (!run.invalid.empty()) {
    std::cerr << "INVALID run: " << run.invalid << "\n";
    return 3;
  }
  if (run.jobs.empty() || run.lookups.empty()) {
    std::cerr << "no successful job or lookup to measure\n";
    return 1;
  }

  std::map<std::string, double> metrics;
  std::map<std::string, std::string> bases;
  if (!trace) {
    const auto latencies = Latencies(run.jobs);
    metrics["job_s"] = Median(latencies);
    metrics["job_p90_s"] = Percentile(latencies, 0.9);
    metrics["lookup_p50_s"] = Median(run.lookups);
    metrics["lookup_p90_s"] = Percentile(run.lookups, 0.9);
    metrics["setup_s"] = Median(run.setup);
    metrics["peak_rss_mb"] = PeakRssMiB();
  } else {
    for (const auto& def : PerLayerMetrics()) {
      const std::string name = def.name;
      if (run.run_layer.count(name)) {
        metrics[name] = run.run_layer[name];
      } else if (name == "core.priority_s" ||
                 name == "core.partitions_skipped") {
        // Only AsyncP jobs have these: a median over tenant-mix's mixed
        // kinds would read 0, so report the mean per job.
        metrics[name] = JobMean(run.jobs, name);
      } else if (run.jobs.front().layer.count(name)) {
        metrics[name] = JobMedian(run.jobs, name);
        if (run.jobs.front().layer.count(name + "#base")) {
          bases[name] = Number(JobMedian(run.jobs, name + "#base"));
        }
      } else {
        metrics[name] = 0;  // the layer takes no part in this workload
      }
    }
    metrics["graph.load_s"] = Median(run.load);
    const double traced = Median(Latencies(run.jobs, true));
    const double untraced = Median(Latencies(run.jobs, false));
    metrics["bench.trace_overhead_frac"] =
        untraced > 0 ? traced / untraced - 1 : 0;
  }

  // Provenance: where, what and how much the numbers rest on.
  auto& prov = run.provenance;
  prov["workload"] = workload;
  prov["seed"] = std::to_string(seed);
  prov["seconds"] = Number(seconds);
  prov["trace"] = trace ? "1" : "0";
  prov["smoke"] = smoke ? "1" : "0";
  prov["nproc"] = std::to_string(std::thread::hardware_concurrency());
  prov["cpu"] = CpuModel();
  prov["commit"] = commit;
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["latency_us"] = std::to_string(kLatencyUs);
  prov["compile_us"] = std::to_string(kCompileUs);
  prov["row_cost_ns"] = std::to_string(kRowCostNs);
  prov["engine"] = w.engine;
  prov["graph"] = w.graph_kind;
  prov["graph_nodes"] = std::to_string(w.graph.NodeCount());
  prov["graph_edges"] = std::to_string(w.graph.edge_count());
  prov["rounds"] = Number(JobMedian(run.jobs, "core.rounds"));
  prov["samples_jobs"] = std::to_string(run.jobs.size());
  prov["samples_lookups"] = std::to_string(run.lookups.size());
  prov["samples_setup"] = std::to_string(run.setup.size());
  std::string metadata = "{";
  for (const auto& [key, value] : prov) {
    metadata += (metadata.size() > 1 ? "," : "") + Quote(key) + ":" +
                Quote(value);
  }
  metadata += "}";
  std::cout << "provenance " << metadata << "\n";

  if (trace) {
    std::cout << "per-layer metrics (median per job over "
              << run.jobs.size() << " jobs):\n";
    for (const auto& def : PerLayerMetrics()) {
      std::cout << "  " << def.name << " = " << Number(metrics[def.name])
                << " " << def.unit;
      if (bases.count(def.name)) {
        std::cout << " (base " << bases[def.name] << ")";
      }
      std::cout << "  -> " << def.moves << "\n";
    }
    std::cout << "span self times:\n" << tracer.SelfTimeTable();
    if (!trace_file.empty()) {
      tracer.WriteChromeTrace(trace_file, metadata);
      std::cout << "trace written to " << trace_file << "\n";
    }
  }

  const bool correct = run.failed == 0;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  bool first = true;
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& def : defs) {
    json += std::string(first ? "" : ", ") + Quote(def.name) +
            ": {\"value\": " + Number(metrics[def.name]) +
            ", \"unit\": " + Quote(def.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: the oracles accept real answers and reject perturbed ones.

int SelfTest() {
  int bad = 0;
  const auto expect = [&bad](const std::string& label, bool accepted,
                             bool want) {
    std::cout << (accepted == want ? "ok   " : "FAIL ") << label << ": "
              << (accepted ? "accepted" : "rejected") << "\n";
    if (accepted != want) ++bad;
  };
  const Workload w = MakeWorkload("tenant-mix", 1, /*smoke=*/true);
  Tracer tracer(false);
  Deployment dep(w, 0, tracer, 0);
  for (const auto& kind : w.kinds) {
    const dbc::ResultSet right =
        core::SqLoop(dep.url()).Execute(kind.sql, kind.options);
    expect(kind.label + " answer", kind.check(right).empty(), true);

    dbc::ResultSet changed = right;
    auto& cell = changed.rows.at(changed.rows.size() / 2).at(1);
    cell = Value(cell.NumericAsDouble() + (kind.label == "dq" ? 1 : 1e-6));
    expect(kind.label + " with one value perturbed",
           kind.check(changed).empty(), false);
    expect(kind.label + " perturbed vs solo",
           Canonical(changed) == Canonical(right), false);

    dbc::ResultSet dropped = right;
    dropped.rows.pop_back();
    expect(kind.label + " with one row dropped", kind.check(dropped).empty(),
           false);
  }
  Reader& reader = dep.reader(w.lookups, 1);
  bool lookups_ok = true;
  for (int i = 0; i < 20; ++i) lookups_ok &= reader.RunOne().empty();
  expect("20 lookups", lookups_ok, true);
  std::cout << (bad == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <pagerank-single|pagerank-sync|"
               "dq-bounded|tenant-mix> --seed <n> --seconds <s> --trace <0|1>"
               " [--smoke] [--commit <id>] [--trace-file <path>]\n"
               "       perfbench --list-metrics | --self-test\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string commit = "unknown";
  std::string trace_file;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--list-metrics") {
        for (const auto& [kind, defs] :
             {std::pair{"end_to_end", &EndToEndMetrics()},
              std::pair{"per_layer", &PerLayerMetrics()}}) {
          for (const auto& def : *defs) {
            std::cout << kind << "\t" << def.name << "\t" << def.unit << "\t"
                      << def.better << "\t" << def.moves << "\n";
          }
        }
        return 0;
      } else if (arg == "--self-test") {
        return SelfTest();
      } else if (arg == "--workload") {
        workload = next();
      } else if (arg == "--seed") {
        seed = std::stoull(next());
      } else if (arg == "--seconds") {
        seconds = std::stod(next());
      } else if (arg == "--trace") {
        trace = std::stoi(next());
      } else if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--commit") {
        commit = next();
      } else if (arg == "--trace-file") {
        trace_file = next();
      } else {
        return Usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return Usage();
  }
  if (workload.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  try {
    return Run(workload, seed, seconds, trace == 1, smoke, commit, trace_file);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

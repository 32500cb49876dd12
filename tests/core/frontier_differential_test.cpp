// Frontier-round differential suite (`ctest -L engine`): the
// single-threaded loop's MIN/MAX frontier rounds (DESIGN.md "Frontier
// rounds") against the plain §IV-B loop, issued here as raw SQL: CREATE
// Rtmp, INSERT INTO Rtmp <step> over the whole table, UPDATE R ... FROM
// Rtmp, DROP Rtmp, every round. The per-round update counts, CHECKSUM
// TABLE of R and the final query's rows must agree bit for bit, under
// every engine profile, also across an injected transient fault and a
// checkpoint resume.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/translator.h"
#include "core/workloads.h"
#include "graph/generators.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

namespace fs = std::filesystem;
using testing::CoreFixtureBase;

/// An iterative CTE in pieces, so the reference loop can issue each one.
struct CteCase {
  std::string label;
  std::string name;
  std::vector<std::string> columns;  // key first; values are DOUBLE
  std::string seed;
  std::string step;
  std::string until;  // "<n> UPDATES" or "<n> ITERATIONS"
  std::string final_query;

  std::string Query() const {
    std::string list;
    for (const auto& column : columns) {
      list += (list.empty() ? "" : ", ") + column;
    }
    return "WITH ITERATIVE " + name + " (" + list + ") AS (" + seed +
           " ITERATE " + step + " UNTIL " + until + ") " + final_query;
  }
};

constexpr const char* kNodes =
    " FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS n"
    " GROUP BY src";

/// DQ and SSSP from node 0 (the WHERE drops every key whose neighbours
/// are all unreached), CC over the symmetric edges, DQ stopped by
/// `UNTIL 1 UPDATES`, and a label propagation under a WHERE on the
/// bridging relation whose `tag` follows the stored label a round late
/// (to NULL, to INT 0 and to -0.0 against stored DOUBLE 0.0 / -0.0) and
/// whose `mark` follows `tag` a round later (NULL to INT 1), in rounds
/// where nothing else in the row changes, while the aggregated column
/// mixes INT keys and DOUBLE labels.
std::vector<CteCase> Cases() {
  const std::string dq_step =
      "SELECT dq.node, LEAST(dq.hops, dq.delta),"
      " COALESCE(MIN(LEAST(nb.hops, nb.delta) + 1), Infinity)"
      " FROM dq LEFT JOIN edges AS e ON dq.node = e.dst"
      " LEFT JOIN dq AS nb ON nb.node = e.src"
      " WHERE nb.delta != Infinity GROUP BY dq.node";
  const std::string dq_seed =
      "SELECT src, Infinity, CASE WHEN src = 0 THEN 0 ELSE Infinity END" +
      std::string(kNodes);
  const std::string dq_final =
      "SELECT node, LEAST(hops, delta) FROM dq"
      " WHERE LEAST(hops, delta) < Infinity";
  return {
      {"dq", "dq", {"node", "hops", "delta"}, dq_seed, dq_step, "0 UPDATES",
       dq_final},
      {"dq_until_1_updates", "dq", {"node", "hops", "delta"}, dq_seed,
       dq_step, "1 UPDATES", dq_final},
      {"sssp",
       "sssp",
       {"node", "distance", "delta"},
       "SELECT src, Infinity, CASE WHEN src = 0 THEN 0 ELSE Infinity END" +
           std::string(kNodes),
       "SELECT sssp.node, LEAST(sssp.distance, sssp.delta),"
       " COALESCE(MIN(LEAST(nb.distance, nb.delta) + e.weight), Infinity)"
       " FROM sssp LEFT JOIN edges AS e ON sssp.node = e.dst"
       " LEFT JOIN sssp AS nb ON nb.node = e.src"
       " WHERE nb.delta != Infinity GROUP BY sssp.node",
       "0 UPDATES",
       "SELECT node, LEAST(distance, delta) FROM sssp"},
      {"cc",
       "cc",
       {"node", "comp", "delta"},
       "SELECT src, src, src FROM (SELECT src FROM edges_sym UNION"
       " SELECT dst FROM edges_sym) AS n GROUP BY src",
       "SELECT cc.node, LEAST(cc.comp, cc.delta),"
       " COALESCE(MIN(LEAST(nb.comp, nb.delta)), Infinity)"
       " FROM cc LEFT JOIN edges_sym AS e ON cc.node = e.dst"
       " LEFT JOIN cc AS nb ON nb.node = e.src GROUP BY cc.node",
       "0 UPDATES",
       "SELECT node, LEAST(comp, delta) FROM cc"},
      {"signed_zero_null_mixed",
       "lp",
       {"node", "comp", "tag", "mark", "delta"},
       "SELECT src, src, CASE WHEN src < 40 THEN -0.0 ELSE 0.0 END, NULL, src" +
           std::string(kNodes),
       "SELECT lp.node, LEAST(lp.comp, lp.delta),"
       " CASE WHEN lp.comp < 10 THEN NULL WHEN lp.comp < 30 THEN 0"
       " ELSE -0.0 END,"
       " CASE WHEN lp.tag IS NULL THEN 1 ELSE NULL END,"
       " COALESCE(MIN(LEAST(nb.comp, nb.node)), Infinity)"
       " FROM lp LEFT JOIN edges AS e ON lp.node = e.dst"
       " LEFT JOIN lp AS nb ON nb.node = e.src"
       " WHERE e.src % 5 <> 1 GROUP BY lp.node",
       "0 UPDATES",
       "SELECT node, comp, tag, mark, delta FROM lp"},
  };
}

/// One cell per line, doubles by bit pattern (so -0.0 and 0.0 differ),
/// rows sorted.
std::vector<std::string> Canonical(const dbc::ResultSet& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string flat;
    for (const Value& v : row) {
      if (v.is_double()) {
        const double d = v.as_double();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        flat += "d" + std::to_string(bits);
      } else {
        flat += v.is_null() ? "null" : (v.is_int() ? "i" : "t") + v.ToString();
      }
      flat += '|';
    }
    rows.push_back(std::move(flat));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct Outcome {
  std::vector<uint64_t> updates;  // per round, in order
  std::string checksum;
  std::vector<std::string> rows;
};

graph::Graph TestGraph(const std::string& kind, uint64_t seed) {
  graph::Graph g = kind == "host"
                       ? graph::MakeHostGraph(12, 6, 14, seed)
                       : graph::MakeEgoNetGraph(5, 9, 0.35, seed,
                                                /*bidirectional=*/false);
  // Traversals start at node 0; a page nothing links to has a key with
  // no in-edges.
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1000, 1);
  g.AssignOutDegreeWeights();
  return g;
}

class FrontierDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  void Load(CoreFixtureBase& fixture, const graph::Graph& g) {
    fixture.LoadGraph(g);
    graph::Graph sym;
    for (const auto& e : g.edges()) {
      sym.AddEdge(e.src, e.dst);
      sym.AddEdge(e.dst, e.src);
    }
    sym.AssignOutDegreeWeights();
    auto conn = dbc::DriverManager::GetConnection(fixture.Url());
    graph::LoadOptions options;
    options.table_name = "edges_sym";
    graph::LoadEdges(*conn, sym, options);
  }

  /// The §IV-B loop, every round over the whole table.
  Outcome Reference(const CteCase& c, const graph::Graph& g) {
    CoreFixtureBase fixture(GetParam());
    Load(fixture, g);
    auto conn = dbc::DriverManager::GetConnection(fixture.Url());
    const Translator translator = Translator::For(*conn);
    std::vector<sql::ColumnDef> schema;
    for (size_t i = 0; i < c.columns.size(); ++i) {
      schema.push_back(
          {c.columns[i], i == 0 ? ValueType::kInt64 : ValueType::kDouble, ""});
    }
    const std::string tmp = c.name + "_reftmp";
    conn->Execute(translator.CreateTableSql(c.name, schema, 0));
    conn->Execute("INSERT INTO " + c.name + " " + c.seed);
    std::string merge = "UPDATE " + c.name + " SET ";
    for (size_t i = 1; i < c.columns.size(); ++i) {
      merge += (i > 1 ? ", " : "") + c.columns[i] + " = t." + c.columns[i];
    }
    merge += " FROM " + tmp + " AS t WHERE " + c.name + "." + c.columns[0] +
             " = t." + c.columns[0];

    const int64_t bound = std::stoll(c.until);
    const bool by_updates = c.until.find("UPDATES") != std::string::npos;
    Outcome out;
    for (int64_t round = 1; round < 1000; ++round) {
      conn->Execute(translator.CreateTableSql(tmp, schema, 0));
      conn->Execute("INSERT INTO " + tmp + " " + c.step);
      const size_t updates = conn->ExecuteUpdate(merge);
      conn->Execute("DROP TABLE " + tmp);
      out.updates.push_back(updates);
      if (by_updates ? updates <= static_cast<uint64_t>(bound)
                     : round >= bound) {
        break;
      }
    }
    out.checksum = conn->ExecuteQuery("CHECKSUM TABLE " + c.name)
                       .rows[0][1]
                       .as_text();
    out.rows = Canonical(conn->ExecuteQuery(c.final_query));
    return out;
  }

  /// The same CTE through SqLoop's single-threaded loop. `url_suffix`
  /// adds fault parameters; `resume_after_kill` > 0 first kills the job at
  /// that round (checkpointing every round), then resumes it.
  Outcome Sqloop(const CteCase& c, const graph::Graph& g,
                 const std::string& url_suffix = "",
                 int64_t resume_after_kill = 0, RunStats* stats = nullptr) {
    CoreFixtureBase fixture(GetParam());
    Load(fixture, g);
    SqloopOptions options;
    options.mode = ExecutionMode::kSingleThread;
    options.keep_result_tables = true;
    const fs::path dir = fs::temp_directory_path() /
                         ("sqloop_frontier_" + std::to_string(::getpid()) +
                          "_" + std::to_string(counter_++));
    if (resume_after_kill > 0) {
      fs::create_directories(dir);
      options.checkpoint_every = 1;
      options.checkpoint_dir = dir.string();
      SqLoop killed(fixture.Url() + "&fault_kill_at_round=" +
                        std::to_string(resume_after_kill),
                    options);
      EXPECT_THROW(killed.Execute(c.Query()), JobKilledError);
      options.resume = true;
    }
    SqLoop loop(fixture.Url() + url_suffix, options);
    Outcome out;
    out.rows = Canonical(loop.Execute(c.Query()));
    for (const auto& it : loop.last_run().per_iteration()) {
      out.updates.push_back(it.updates);
    }
    if (stats != nullptr) *stats = loop.last_run();
    out.checksum = dbc::DriverManager::GetConnection(fixture.Url())
                       ->ExecuteQuery("CHECKSUM TABLE " + c.name)
                       .rows[0][1]
                       .as_text();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return out;
  }

  static inline int counter_ = 0;
};

TEST_P(FrontierDifferential, MatchesThePlainLoopOnHostAndEgoGraphs) {
  for (const char* kind : {"host", "ego"}) {
    for (const uint64_t seed : {3u, 11u}) {
      const graph::Graph g = TestGraph(kind, seed);
      for (const CteCase& c : Cases()) {
        SCOPED_TRACE(std::string(kind) + " seed " + std::to_string(seed) +
                     " " + c.label);
        const Outcome ref = Reference(c, g);
        ASSERT_GE(ref.updates.size(), 2u)
            << ::testing::PrintToString(ref.updates);
        const Outcome got = Sqloop(c, g);
        EXPECT_EQ(got.updates, ref.updates);
        EXPECT_EQ(got.checksum, ref.checksum);
        EXPECT_EQ(got.rows, ref.rows);
      }
    }
  }
}

TEST_P(FrontierDifferential, SurvivesTransientFaultsMidRound) {
  const graph::Graph g = TestGraph("host", 5);
  for (const CteCase& c : Cases()) {
    SCOPED_TRACE(c.label);
    const Outcome ref = Reference(c, g);
    RunStats stats;
    // Every 4th statement fails before the engine applies it (a transient
    // error, then a dropped connection), so faults land on TRUNCATE, the
    // step and the merge of several rounds.
    const Outcome got =
        Sqloop(c, g,
               "&fault_seed=3&fault_transient_every=4&fault_drop_every=7"
               "&fault_max=12",
               0, &stats);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(got.updates, ref.updates);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.rows, ref.rows);
  }
}

TEST_P(FrontierDifferential, ResumesFromACheckpointMidRun) {
  const graph::Graph g = TestGraph("ego", 7);
  for (const CteCase& c : Cases()) {
    SCOPED_TRACE(c.label);
    const Outcome ref = Reference(c, g);
    ASSERT_GE(ref.updates.size(), 3u);
    RunStats stats;
    const Outcome got = Sqloop(c, g, "", /*resume_after_kill=*/3, &stats);
    // Killed at the start of round 3: rounds 1-2 were checkpointed, and
    // the resumed run replays rounds 3.. from the restored table, its
    // first round driven from the whole table.
    ASSERT_EQ(stats.resumed_from_round, 2);
    const std::vector<uint64_t> tail(ref.updates.begin() + 2,
                                     ref.updates.end());
    EXPECT_EQ(got.updates, tail);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.rows, ref.rows);
  }
}

// --- observability --------------------------------------------------------

class FrontierKeys : public ::testing::Test {
 protected:
  CoreFixtureBase fixture_{"mysql"};
};

TEST_F(FrontierKeys, DqRoundsAfterTheFirstDriveFewerKeysThanTheTable) {
  const graph::Graph g = graph::MakeHostGraph(30, 8, 30, 1);
  fixture_.LoadGraph(g);
  SqLoop loop(fixture_.Url(),
              fixture_.SmallOptions(ExecutionMode::kSingleThread));
  loop.Execute(workloads::DescendantQuery(0));
  const auto rounds = loop.last_run().per_iteration();
  const uint64_t table_rows = g.NodeCount();
  ASSERT_GT(rounds.size(), 10u);
  EXPECT_EQ(rounds[0].keys_driven, table_rows);
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_LT(rounds[i].keys_driven, table_rows) << "round " << i + 1;
  }
  // Each later round drives the previous round's changed keys and their
  // successors: never fewer keys than changed last round.
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_GE(rounds[i].keys_driven, rounds[i - 1].updates);
  }
  // Most merges read a frontier far smaller than the table, so they
  // probe its key index.
  EXPECT_GT(loop.last_run().recorder->counter("minidb.index_merges"), 0u);
}

TEST(FrontierKeysHashJoin, WholeTableRoundsWhenTheFrontierReadsMore) {
  // The postgres profile hash-joins: a frontier step still scans every
  // input and adds its own join, so it reads more rows than the
  // whole-table step, and after one measured frontier round the loop
  // keeps to whole-table rounds.
  CoreFixtureBase fixture("postgres");
  const graph::Graph g = graph::MakeHostGraph(30, 8, 30, 1);
  fixture.LoadGraph(g);
  SqLoop loop(fixture.Url(),
              fixture.SmallOptions(ExecutionMode::kSingleThread));
  loop.Execute(workloads::DescendantQuery(0));
  const auto rounds = loop.last_run().per_iteration();
  ASSERT_GT(rounds.size(), 10u);
  size_t frontier_rounds = 0;
  for (const auto& round : rounds) {
    if (round.keys_driven < g.NodeCount()) ++frontier_rounds;
  }
  EXPECT_GE(frontier_rounds, 1u);
  EXPECT_LE(frontier_rounds, 3u) << rounds.size() << " rounds";
}

TEST_F(FrontierKeys, PageRankRoundsDriveEveryKey) {
  const graph::Graph g = graph::MakeWebGraph(150, 3, 2);
  fixture_.LoadGraph(g);
  SqLoop loop(fixture_.Url(),
              fixture_.SmallOptions(ExecutionMode::kSingleThread));
  loop.Execute(workloads::PageRankQuery(5));
  const auto rounds = loop.last_run().per_iteration();
  ASSERT_EQ(rounds.size(), 5u);
  for (const auto& round : rounds) {
    EXPECT_EQ(round.keys_driven, g.NodeCount());
  }
  // Every PageRank merge changes (nearly) every row: it keeps the scan.
  EXPECT_EQ(loop.last_run().recorder->counter("minidb.index_merges"), 0u);
}

INSTANTIATE_TEST_SUITE_P(EngineProfiles, FrontierDifferential,
                         ::testing::Values("postgres", "mysql", "mariadb",
                                           "canonical"));

}  // namespace
}  // namespace sqloop::core

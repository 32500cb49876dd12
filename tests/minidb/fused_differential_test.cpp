// Differential suite for the fused SELECT pipeline: every statement a
// seeded generator produces must give *bit-identical* results (values and
// row order) through the fused zero-copy pipeline and the reference
// materializing one, under all three engine profiles. The generator
// covers the shapes the fused path specializes — selective filters over
// indexed and unindexed columns, inner/left/cross joins, GROUP BY with
// every aggregate, UNION ALL, DISTINCT, LIMIT — plus NULL three-valued
// logic in predicates and group keys.
//
// A final concurrency case runs borrowed-view scans against a live writer
// so the thread sanitizer exercises the fused path's locking story
// (`ctest -L engine` is part of the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "minidb/database.h"
#include "minidb/executor.h"

namespace sqloop::minidb {
namespace {

/// One statement's observable behaviour: its rows (order-preserving,
/// %.17g doubles — bit-faithful), or the fact it threw. Dumped to text
/// because Value's operator== has SQL semantics (NULL == NULL is false);
/// rows_examined is deliberately excluded — the two pipelines may scan
/// different row counts (that asymmetry is the optimization).
struct Outcome {
  bool threw = false;
  std::string rows;
};

Outcome RunOnce(Executor& exec, const std::string& sql) {
  Outcome outcome;
  try {
    for (const Row& row : exec.ExecuteSql(sql).rows) {
      for (const Value& value : row) outcome.rows += value.ToString() + "|";
      outcome.rows += "\n";
    }
  } catch (const Error&) {
    outcome.threw = true;
  }
  return outcome;
}

void SeedTables(Executor& exec) {
  exec.ExecuteSql(
      "CREATE TABLE s (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "delta BIGINT, tag TEXT)");
  for (int i = 0; i < 200; ++i) {
    const std::string rank =
        i % 13 == 0 ? "NULL" : std::to_string(i) + ".125";
    const std::string delta = i % 11 == 0 ? "NULL" : std::to_string(i % 7);
    const std::string tag =
        i % 9 == 0 ? "NULL" : "'tag" + std::to_string(i % 5) + "'";
    exec.ExecuteSql("INSERT INTO s VALUES (" + std::to_string(i) + ", " +
                    rank + ", " + delta + ", " + tag + ")");
  }
  exec.ExecuteSql(
      "CREATE TABLE e (src BIGINT, dst BIGINT, w DOUBLE PRECISION)");
  for (int i = 0; i < 300; ++i) {
    const std::string w = i % 8 == 0 ? "NULL" : std::to_string(i) + ".25";
    exec.ExecuteSql("INSERT INTO e VALUES (" + std::to_string(i % 50) +
                    ", " + std::to_string((i * 3) % 40) + ", " + w + ")");
  }
  exec.ExecuteSql("CREATE INDEX e_dst ON e (dst)");
  exec.ExecuteSql("CREATE TABLE small (k BIGINT, v BIGINT)");
  for (int i = 0; i < 12; ++i) {
    const std::string k = i % 5 == 4 ? "NULL" : std::to_string(i % 4);
    exec.ExecuteSql("INSERT INTO small VALUES (" + k + ", " +
                    std::to_string(i) + ")");
  }
}

/// Statement generator. Each Next() yields one SELECT drawn from the
/// grammar in the file comment, deterministic for a fixed seed.
class StatementGen {
 public:
  explicit StatementGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return SingleTable();
      case 1:
        return Aggregate();
      case 2:
        return Join();
      case 3:
        return JoinAggregate();
      default:
        return Union();
    }
  }

 private:
  uint64_t Pick(uint64_t bound) { return rng_.NextBelow(bound); }
  std::string Int(int64_t lo, int64_t hi) {
    return std::to_string(lo + static_cast<int64_t>(
                                   Pick(static_cast<uint64_t>(hi - lo + 1))));
  }

  /// A predicate over one column of table alias `a`; exercises equality
  /// (index-probe bait on s.id and e.dst), ranges, IS [NOT] NULL, and the
  /// never-matching `= NULL`.
  std::string Predicate(const std::string& a, bool table_s) {
    if (table_s) {
      switch (Pick(8)) {
        case 0:
          return a + "id = " + Int(-5, 210);
        case 1:
          return a + "delta = " + Int(0, 7);
        case 2:
          return a + "delta < " + Int(1, 6);
        case 3:
          return a + "rank > " + Int(0, 180) + ".5";
        case 4:
          return a + "tag = 'tag" + Int(0, 5) + "'";
        case 5:
          return a + "rank IS NULL";
        case 6:
          return a + "delta IS NOT NULL";
        default:
          return a + "delta = NULL";
      }
    }
    switch (Pick(5)) {
      case 0:
        return a + "dst = " + Int(-2, 42);
      case 1:
        return a + "src < " + Int(5, 45);
      case 2:
        return a + "w IS NULL";
      case 3:
        return a + "w > " + Int(0, 250) + ".0";
      default:
        return a + "dst = NULL";
    }
  }

  std::string Where(const std::string& a, bool table_s) {
    const uint64_t conjuncts = Pick(4);  // 0..3
    std::string sql;
    for (uint64_t i = 0; i < conjuncts; ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + Predicate(a, table_s);
    }
    return sql;
  }

  std::string SingleTable() {
    std::string sql = "SELECT ";
    if (Pick(4) == 0) sql += "DISTINCT ";
    switch (Pick(3)) {
      case 0:
        sql += "*";
        break;
      case 1:
        sql += "id, tag, rank";
        break;
      default:
        sql += "id + delta AS shifted, rank * 2.0 AS scaled";
        break;
    }
    sql += " FROM s" + Where("", true);
    if (Pick(2) == 0) sql += " ORDER BY id";
    if (Pick(3) == 0) sql += " LIMIT " + Int(0, 20);
    return sql;
  }

  std::string Aggregate() {
    const bool grouped = Pick(4) != 0;
    std::string sql =
        "SELECT COUNT(*) AS n, SUM(rank) AS total, AVG(rank) AS mean, "
        "MIN(delta) AS lo, MAX(delta) AS hi";
    if (grouped) sql += ", tag";
    sql += " FROM s" + Where("", true);
    if (grouped) {
      sql += " GROUP BY tag";
      if (Pick(2) == 0) sql += " HAVING COUNT(*) > " + Int(0, 3);
      if (Pick(2) == 0) sql += " ORDER BY tag";
    }
    return sql;
  }

  std::string Join() {
    const bool left = Pick(3) == 0;
    std::string sql = "SELECT s.id, s.rank, e.src, e.w FROM s ";
    sql += left ? "LEFT JOIN" : "JOIN";
    sql += " e ON s.id = e.dst";
    std::string where = Where("s.", true);
    if (Pick(2) == 0) {
      where += (where.empty() ? " WHERE " : " AND ") + Predicate("e.", false);
    }
    sql += where;
    if (Pick(3) == 0) sql += " ORDER BY s.id, e.src";
    return sql;
  }

  std::string JoinAggregate() {
    if (Pick(4) == 0) {
      // Cross join stays on the small table: the point is plan shape,
      // not row volume.
      return "SELECT COUNT(*) AS n, SUM(a.v + b.v) AS total "
             "FROM small AS a, small AS b WHERE a.k = " +
             Int(0, 4);
    }
    std::string sql =
        "SELECT s.delta, COUNT(*) AS n, SUM(e.w) AS wsum "
        "FROM s JOIN e ON s.id = e.dst" +
        Where("s.", true) + " GROUP BY s.delta";
    if (Pick(2) == 0) sql += " ORDER BY s.delta";
    return sql;
  }

  std::string Union() {
    std::string sql = "SELECT id FROM s" + Where("", true);
    sql += Pick(2) == 0 ? " UNION ALL " : " UNION ";
    sql += "SELECT dst FROM e" + Where("", false);
    return sql;
  }

  Rng rng_;
};

class FusedDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(FusedDifferential, RandomStatementsMatchReferencePipeline) {
  Database db("diff", EngineProfile::ByName(GetParam()));
  Executor exec(db);
  SeedTables(exec);
  StatementGen gen(0x5ca1ab1e);
  for (int i = 0; i < 200; ++i) {
    const std::string sql = gen.Next();
    // Three-way: vectorized (batched), fused row-at-a-time, reference
    // materializing — all must agree bit for bit, including whether the
    // statement threw.
    db.set_fused_enabled(true);
    db.set_vectorized_enabled(true);
    const Outcome vectorized = RunOnce(exec, sql);
    db.set_vectorized_enabled(false);
    const Outcome fused = RunOnce(exec, sql);
    db.set_fused_enabled(false);
    const Outcome reference = RunOnce(exec, sql);
    db.set_fused_enabled(true);
    db.set_vectorized_enabled(true);
    ASSERT_EQ(vectorized.threw, reference.threw) << sql;
    ASSERT_EQ(vectorized.rows, reference.rows) << sql;
    ASSERT_EQ(fused.threw, reference.threw) << sql;
    ASSERT_EQ(fused.rows, reference.rows) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(EngineProfiles, FusedDifferential,
                         ::testing::Values("postgres", "mysql", "mariadb"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// BIGINT overflow must raise the same error on all three pipelines: the
// vectorized plane sums int64 lanes in spans, the other two row by row.
TEST(FusedDifferential, BigintOverflowRaisesOnEveryPipeline) {
  Database db("overflow", EngineProfile::ByName("postgres"));
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE big (id BIGINT PRIMARY KEY, k BIGINT, "
                  "v BIGINT)");
  // Ids 0..2 sum past INT64_MAX and back into range (SUM must still raise);
  // the filler rows carry the scan past one vector batch.
  exec.ExecuteSql("INSERT INTO big VALUES (0, 0, 9223372036854775807)");
  exec.ExecuteSql("INSERT INTO big VALUES (1, 0, 1)");
  exec.ExecuteSql("INSERT INTO big VALUES (2, 0, -2)");
  for (int i = 3; i < 1500; ++i) {
    exec.ExecuteSql("INSERT INTO big VALUES (" + std::to_string(i) + ", " +
                    std::to_string(i % 3) + ", 0)");
  }
  // SUM over a bare column is the vectorized plane's span feed.
  exec.ExecuteSql("SELECT SUM(v) FROM big WHERE id > 0");
  EXPECT_EQ(exec.last_engine_counters().vectorized_cores, 1u);
  EXPECT_EQ(exec.last_engine_counters().scalar_fallbacks, 0u);
  const std::vector<std::string> overflowing = {
      "SELECT SUM(v) FROM big",
      "SELECT SUM(v) FROM big WHERE k = 0",
      "SELECT k, SUM(v) FROM big GROUP BY k",
      "SELECT AVG(v) FROM big WHERE id < 3",
      "SELECT v + 1 FROM big WHERE id = 0",
      "SELECT id FROM big WHERE v * 2 > 0",
      "SELECT -v - 2 FROM big WHERE k = 0",
      "SELECT (-v - 1) / -1 FROM big WHERE id = 0",
      "SELECT (-v - 1) % -1 FROM big WHERE id = 0",
      "SELECT SUM(v + 1) FROM big",
  };
  for (const std::string& sql : overflowing) {
    for (const int pipeline : {0, 1, 2}) {  // vectorized, fused, reference
      db.set_fused_enabled(pipeline < 2);
      db.set_vectorized_enabled(pipeline == 0);
      try {
        exec.ExecuteSql(sql);
        ADD_FAILURE() << "pipeline " << pipeline << " did not raise: " << sql;
      } catch (const ExecutionError& e) {
        EXPECT_STREQ(e.what(), "execution error: bigint out of range")
            << "pipeline " << pipeline << ": " << sql;
      }
    }
  }
  db.set_fused_enabled(true);
  db.set_vectorized_enabled(true);
  // In-range neighbours of the same shapes still agree bit for bit.
  for (const std::string sql :
       {"SELECT SUM(v) FROM big WHERE id > 0",
        "SELECT k, SUM(v), AVG(v) FROM big WHERE id > 0 GROUP BY k ORDER BY k",
        "SELECT v - 1, -v FROM big WHERE id = 0"}) {
    const Outcome vectorized = RunOnce(exec, sql);
    db.set_vectorized_enabled(false);
    const Outcome fused = RunOnce(exec, sql);
    db.set_fused_enabled(false);
    const Outcome reference = RunOnce(exec, sql);
    db.set_fused_enabled(true);
    db.set_vectorized_enabled(true);
    EXPECT_FALSE(reference.threw) << sql;
    EXPECT_EQ(vectorized.rows, reference.rows) << sql;
    EXPECT_EQ(fused.rows, reference.rows) << sql;
  }
}

// Borrowed row views live only for the statement that holds the table's
// shared lock; this hammers that boundary with concurrent writers while
// another thread flips the pipeline toggle, so the tsan preset can see
// the whole story at once.
TEST(FusedConcurrency, BorrowedScansRaceWithWritesAndToggle) {
  Database db("race", EngineProfile::ByName("postgres"));
  Executor exec(db);
  exec.ExecuteSql(
      "CREATE TABLE state (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "delta BIGINT)");
  for (int i = 0; i < 500; ++i) {
    exec.ExecuteSql("INSERT INTO state VALUES (" + std::to_string(i) +
                    ", 1.0, " + std::to_string(i % 100 == 0 ? 1 : 0) + ")");
  }
  std::atomic<bool> stop{false};
  std::atomic<int> updates{0};
  {
    // Writer and toggler run until the readers drain their fixed budget;
    // destruction order (inner block first) joins readers before `stop`
    // is raised. Readers are bounded, not the writer: the readers' shared
    // locks are what starve the writer, never the reverse.
    std::jthread writer([&db, &stop, &updates] {
      Executor w(db);
      int i = 0;
      while (!stop.load()) {
        w.ExecuteSql("UPDATE state SET rank = rank + 0.5 WHERE id = " +
                     std::to_string(i++ % 500));
        updates.fetch_add(1);
      }
    });
    std::jthread toggler([&db, &stop] {
      while (!stop.load()) {
        db.set_fused_enabled(false);
        db.set_fused_enabled(true);
      }
    });
    {
      std::vector<std::jthread> readers;
      for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&db] {
          Executor reader(db);
          for (int i = 0; i < 120; ++i) {
            const auto result = reader.ExecuteSql(
                "SELECT COUNT(*), SUM(rank) FROM state WHERE delta = 1");
            // The writer only touches rank; the delta population is fixed.
            EXPECT_EQ(result.rows[0][0].as_int(), 5);
          }
        });
      }
    }
    stop.store(true);
  }
  const auto total = exec.ExecuteSql("SELECT SUM(rank) FROM state");
  EXPECT_DOUBLE_EQ(total.rows[0][0].NumericAsDouble(),
                   500.0 + 0.5 * updates.load());
}

}  // namespace
}  // namespace sqloop::minidb

// Differential suite for the fused pipeline's key paths (`ctest -L
// engine`): join rows read as views, INT64 keys in flat tables for the
// hash join build, hash GROUP BY and the UPDATE ... FROM merge, and the
// migration to the generic tables when another key type shows up. Every
// statement must give bit-identical results (values, row order, whether
// it threw) with the batch plane on, with it off, and through the
// reference pipeline, under every engine profile.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "minidb/database.h"
#include "minidb/executor.h"
#include "minidb/int_key_table.h"

namespace sqloop::minidb {
namespace {

struct Outcome {
  bool threw = false;
  std::string rows;  // order-preserving text dump (%.17g doubles)
};

std::string Dump(const ResultSet& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& value : row) out += value.ToString() + "|";
    out += "\n";
  }
  return out;
}

Outcome RunOnce(Executor& exec, const std::string& sql) {
  Outcome outcome;
  try {
    outcome.rows = Dump(exec.ExecuteSql(sql));
  } catch (const Error&) {
    outcome.threw = true;
  }
  return outcome;
}

// Keys at both ends of the INT64 range, keys that collide in their low 32
// bits (multiples of 2^32) and in their high bits, duplicates, and NULLs.
void SeedTables(Executor& exec) {
  exec.ExecuteSql(
      "CREATE TABLE l (id BIGINT, k BIGINT, k2 BIGINT, v DOUBLE PRECISION)");
  exec.ExecuteSql(
      "CREATE TABLE r (k BIGINT, k2 BIGINT, w DOUBLE PRECISION, tag TEXT)");
  exec.ExecuteSql("CREATE TABLE empty (k BIGINT, w DOUBLE PRECISION)");
  const std::vector<std::string> keys = {
      "-9223372036854775807 - 1", "9223372036854775807", "0", "1", "-1",
      "4294967296",           "8589934592",          "12884901888",
      "1", "4294967296",      "NULL",                "7"};
  for (size_t i = 0; i < 60; ++i) {
    const std::string& k = keys[i % keys.size()];
    const std::string k2 = i % 7 == 3 ? "NULL" : std::to_string(i % 3);
    exec.ExecuteSql("INSERT INTO l VALUES (" + std::to_string(i) + ", " + k +
                    ", " + k2 + ", " + std::to_string(i) + ".5)");
  }
  for (size_t i = 0; i < 40; ++i) {
    // Right side: the same key universe in another order, so every build
    // key repeats (duplicates exercise the per-key chains' build order).
    const std::string& k = keys[(i * 5) % keys.size()];
    const std::string k2 = std::to_string(i % 2);
    exec.ExecuteSql("INSERT INTO r VALUES (" + k + ", " + k2 + ", " +
                    std::to_string(i) + ".25, 't" + std::to_string(i) + "')");
  }
}

// Statements over the key paths. No ORDER BY unless stated, so row order
// exposes emission and group-opening order.
const std::vector<std::string>& Statements() {
  static const std::vector<std::string> statements = {
      // Hash join on INT64 keys with duplicate build keys: emission order.
      "SELECT l.id, r.w FROM l JOIN r ON l.k = r.k",
      // LEFT JOIN: NULL probe keys and unmatched rows are NULL-padded.
      "SELECT l.id, r.w, r.tag FROM l LEFT JOIN r ON l.k = r.k",
      "SELECT r.tag, l.id FROM r LEFT JOIN l ON r.k = l.k",
      // Residual ON predicate and multi-column keys.
      "SELECT l.id, r.w FROM l JOIN r ON l.k = r.k AND r.w > 10.0",
      "SELECT l.id, r.w FROM l LEFT JOIN r ON l.k = r.k AND l.v < r.w",
      "SELECT l.id, r.w FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2",
      "SELECT l.id, r.w FROM l LEFT JOIN r ON l.k2 = r.k2 AND l.k = r.k",
      // GROUP BY an INT64 key: extremes, low-bit collisions, the NULL group.
      "SELECT k, COUNT(*), SUM(v) FROM l GROUP BY k",
      "SELECT l.k, COUNT(r.w), SUM(r.w), MIN(r.tag) FROM l LEFT JOIN r "
      "ON l.k = r.k GROUP BY l.k",
      "SELECT r.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY r.k "
      "HAVING COUNT(*) > 2",
      "SELECT k, k2, COUNT(*) FROM l GROUP BY k, k2",
      // A nested join read through views (the PageRank step's shape).
      "SELECT l.id, COUNT(*), SUM(r2.w) FROM l LEFT JOIN r ON l.k = r.k "
      "LEFT JOIN r AS r2 ON r2.k2 = r.k2 GROUP BY l.id",
      "SELECT l.id, r.tag, r2.tag FROM l JOIN r ON l.k = r.k "
      "JOIN r AS r2 ON r2.k = r.k WHERE r2.w < 5.0",
      // A DOUBLE or TEXT group key after INT64 keys: 1.0 groups with 1.
      "SELECT CASE WHEN id < 30 THEN k ELSE k * 1.0 END AS g, COUNT(*) "
      "FROM l GROUP BY CASE WHEN id < 30 THEN k ELSE k * 1.0 END",
      "SELECT CASE WHEN id < 50 THEN k2 ELSE 'x' END AS g, SUM(v) "
      "FROM l GROUP BY CASE WHEN id < 50 THEN k2 ELSE 'x' END",
      "SELECT CASE WHEN id < 20 THEN k ELSE NULL END AS g, COUNT(*) "
      "FROM l GROUP BY CASE WHEN id < 20 THEN k ELSE NULL END",
      // DOUBLE and TEXT join keys after INT64 keys, on the build side and
      // on the probe side: 1.0 joins with 1, text joins with nothing.
      "SELECT l.id, m.k FROM l JOIN (SELECT k FROM r WHERE w < 20.0 "
      "UNION ALL SELECT k * 1.0 FROM r WHERE w > 30.0 UNION ALL "
      "SELECT tag FROM r WHERE w < 3.0) AS m ON l.k = m.k",
      "SELECT m.k, r.tag FROM (SELECT k FROM l WHERE id < 12 UNION ALL "
      "SELECT k * 1.0 FROM l WHERE id >= 12 AND id < 30 UNION ALL "
      "SELECT 'one' FROM l WHERE id = 1) AS m LEFT JOIN r ON m.k = r.k",
      "SELECT m.k, COUNT(*) FROM (SELECT k2 AS k FROM l UNION ALL "
      "SELECT k2 * 1.0 FROM l) AS m GROUP BY m.k",
      // Empty inputs on either side of a join, and under GROUP BY.
      "SELECT l.id, e.w FROM l JOIN empty AS e ON l.k = e.k",
      "SELECT l.id, e.w FROM l LEFT JOIN empty AS e ON l.k = e.k",
      "SELECT e.k, l.id FROM empty AS e JOIN l ON e.k = l.k",
      "SELECT e.k, COUNT(*) FROM empty AS e GROUP BY e.k",
      "SELECT COUNT(*), SUM(e.w) FROM empty AS e LEFT JOIN l ON e.k = l.k",
      // ORDER BY over join views and over groups.
      "SELECT l.id, r.tag FROM l JOIN r ON l.k = r.k ORDER BY r.tag, l.id",
      "SELECT l.k, SUM(r.w) AS s FROM l JOIN r ON l.k = r.k GROUP BY l.k "
      "ORDER BY s",
  };
  return statements;
}

class KeyPathDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(KeyPathDifferential, SelectsMatchAcrossPipelines) {
  Database db("keys", EngineProfile::ByName(GetParam()));
  Executor exec(db);
  SeedTables(exec);
  for (const std::string& sql : Statements()) {
    db.set_fused_enabled(true);
    db.set_vectorized_enabled(true);
    const Outcome batched = RunOnce(exec, sql);
    db.set_vectorized_enabled(false);
    const Outcome fused = RunOnce(exec, sql);
    db.set_fused_enabled(false);
    const Outcome reference = RunOnce(exec, sql);
    db.set_fused_enabled(true);
    db.set_vectorized_enabled(true);
    EXPECT_FALSE(reference.threw) << sql;
    EXPECT_FALSE(reference.rows.empty() &&
                 sql.find("empty") == std::string::npos)
        << "statement matched nothing: " << sql;
    EXPECT_EQ(batched.threw, reference.threw) << sql;
    EXPECT_EQ(batched.rows, reference.rows) << sql;
    EXPECT_EQ(fused.threw, reference.threw) << sql;
    EXPECT_EQ(fused.rows, reference.rows) << sql;
  }
}

// The flat tables engage exactly for single-INT64-key shapes on the fused
// pipeline, and a key of another type migrates the table exactly once.
TEST_P(KeyPathDifferential, FlatTablesEngageOnlyForSingleInt64Keys) {
  Database db("keys", EngineProfile::ByName(GetParam()));
  Executor exec(db);
  SeedTables(exec);
  const bool hash_join =
      db.profile().join_algorithm != JoinAlgorithm::kNestedLoop;
  const bool hash_group = db.profile().agg_algorithm == AggAlgorithm::kHash;

  exec.ExecuteSql("SELECT k, COUNT(*) FROM l WHERE k IS NOT NULL GROUP BY k");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, hash_group ? 1u : 0u);
  EXPECT_EQ(exec.last_engine_counters().key_fallbacks, 0u);

  exec.ExecuteSql("SELECT k, k2, COUNT(*) FROM l GROUP BY k, k2");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, 0u);

  // The NULL group (k is NULL in every twelfth row) migrates the table.
  exec.ExecuteSql("SELECT k FROM l WHERE id > 5 GROUP BY k");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, hash_group ? 1u : 0u);
  EXPECT_EQ(exec.last_engine_counters().key_fallbacks, hash_group ? 1u : 0u);

  // r has no index, so every profile but mysql hash-joins it.
  exec.ExecuteSql("SELECT l.id FROM l JOIN r ON l.k = r.k");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, hash_join ? 1u : 0u);
  EXPECT_EQ(exec.last_engine_counters().key_fallbacks, 0u);

  exec.ExecuteSql("SELECT l.id FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, 0u);

  exec.ExecuteSql(
      "SELECT l.id FROM l JOIN (SELECT k FROM r UNION ALL SELECT 1.0) AS m "
      "ON l.k = m.k");
  EXPECT_EQ(exec.last_engine_counters().key_fallbacks, hash_join ? 1u : 0u);

  // The reference pipeline never builds one.
  db.set_fused_enabled(false);
  exec.ExecuteSql(
      "SELECT l.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY l.k");
  EXPECT_EQ(exec.last_engine_counters().int_key_tables, 0u);
  db.set_fused_enabled(true);
}

/// Runs `statements` on a fresh seeded database with the given pipeline
/// and returns the final contents of table `t` in storage order.
std::string UpdateOutcome(const char* profile, bool fused, bool vectorized,
                          const std::vector<std::string>& statements) {
  Database db("merge", EngineProfile::ByName(profile));
  Executor exec(db);
  db.set_fused_enabled(fused);
  db.set_vectorized_enabled(vectorized);
  exec.ExecuteSql("CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE PRECISION, "
                  "n BIGINT)");
  for (int i = 0; i < 30; ++i) {
    exec.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                    std::to_string(i) + ".5, " + std::to_string(i % 4) + ")");
  }
  exec.ExecuteSql("CREATE TABLE src (id BIGINT, v DOUBLE PRECISION, n BIGINT)");
  // Duplicate source keys with different values: which one lands is the
  // "first match wins" order. NULL keys never match.
  for (int i = 0; i < 45; ++i) {
    const std::string id = i % 11 == 10 ? "NULL" : std::to_string(i % 15);
    exec.ExecuteSql("INSERT INTO src VALUES (" + id + ", " +
                    std::to_string(100 + i) + ".25, " +
                    std::to_string(i % 5) + ")");
  }
  std::string outcome;
  for (const std::string& sql : statements) {
    try {
      outcome += std::to_string(exec.ExecuteSql(sql).affected_rows) + ";";
    } catch (const Error& e) {
      outcome += std::string("threw:") + e.what() + ";";
    }
  }
  return outcome + "\n" + Dump(exec.ExecuteSql("SELECT * FROM t"));
}

TEST_P(KeyPathDifferential, UpdateFromMatchesAcrossPipelines) {
  const std::vector<std::vector<std::string>> scripts = {
      // Duplicate source keys, plain merge.
      {"UPDATE t SET v = s.v FROM src AS s WHERE t.id = s.id"},
      // Residual predicate: the first source row that passes wins.
      {"UPDATE t SET v = s.v, n = s.n FROM src AS s "
       "WHERE t.id = s.id AND s.n > 1"},
      // Keys flipped to the other side of `=`.
      {"UPDATE t SET n = s.n FROM src AS s WHERE s.id = t.id"},
      // A DOUBLE source key after INT64 ones (1.0 must merge with 1), and
      // a TEXT one that merges with nothing.
      {"INSERT INTO src VALUES (3, 7.75, 1)",
       "CREATE TABLE mixed (id DOUBLE PRECISION, v DOUBLE PRECISION)",
       "INSERT INTO mixed SELECT id, v FROM src WHERE id < 5",
       "UPDATE t SET v = m.v FROM (SELECT id, v FROM src UNION ALL "
       "SELECT id * 1.0, v + 1.0 FROM src WHERE n = 2 UNION ALL "
       "SELECT 'x', 0.0) AS m WHERE t.id = m.id",
       "UPDATE t SET v = m.v FROM mixed AS m WHERE t.id = m.id"},
      // The target key turns DOUBLE for the probe.
      {"CREATE TABLE d (id DOUBLE PRECISION, v DOUBLE PRECISION)",
       "INSERT INTO d SELECT id, v FROM t",
       "UPDATE d SET v = s.v FROM src AS s WHERE d.id = s.id",
       "UPDATE t SET v = d.v FROM d WHERE t.id = d.id"},
      // An empty source, and one with only NULL keys.
      {"UPDATE t SET v = s.v FROM src AS s WHERE t.id = s.id AND s.n > 100",
       "DELETE FROM src WHERE id IS NOT NULL",
       "UPDATE t SET v = s.v FROM src AS s WHERE t.id = s.id"},
  };
  for (const auto& script : scripts) {
    const std::string reference = UpdateOutcome(
        GetParam(), /*fused=*/false, /*vectorized=*/false, script);
    EXPECT_EQ(UpdateOutcome(GetParam(), true, true, script), reference)
        << script.back();
    EXPECT_EQ(UpdateOutcome(GetParam(), true, false, script), reference)
        << script.back();
  }
}

/// Runs `statements` against a 400-row target `t` (INT64 primary key) and
/// a 400-row `u` whose DOUBLE key column has duplicates and NULLs under a
/// secondary index, with a small source `s` (duplicate, NULL, DOUBLE and
/// TEXT keys). Returns the affected counts, both targets in storage order
/// with each value's type, and (through `index_merges`) how many merges
/// probed the target index.
std::string ProbeMergeOutcome(const char* profile, bool fused, bool vectorized,
                              const std::vector<std::string>& statements,
                              size_t* index_merges) {
  Database db("probe", EngineProfile::ByName(profile));
  Executor exec(db);
  db.set_fused_enabled(fused);
  db.set_vectorized_enabled(vectorized);
  exec.ExecuteSql("CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE PRECISION, "
                  "n BIGINT)");
  exec.ExecuteSql("CREATE TABLE u (id DOUBLE PRECISION, v DOUBLE PRECISION)");
  exec.ExecuteSql("CREATE INDEX u_id ON u (id)");
  for (int i = 0; i < 400; ++i) {
    const std::string k = std::to_string(i);
    exec.ExecuteSql("INSERT INTO t VALUES (" + k + ", " + k + ".5, " +
                    std::to_string(i % 4) + ")");
    exec.ExecuteSql("INSERT INTO u VALUES (" +
                    (i % 37 == 5 ? std::string("NULL")
                                 : std::to_string(i % 200) + ".0") +
                    ", " + k + ".25)");
  }
  exec.ExecuteSql("CREATE TABLE s (id BIGINT, v DOUBLE PRECISION, n BIGINT)");
  for (const char* row :
       {"(7, 1.5, 0)", "(300, 2.5, 3)", "(7, 3.5, 2)", "(NULL, 4.5, 2)",
        "(0, 5.5, 1)", "(399, 6.5, 2)", "(300, 7.5, 2)", "(5, 8.5, 3)",
        "(NULL, 9.5, 1)", "(42, 10.5, 0)", "(7, 11.5, 3)",
        "(1000, 12.5, 1)"}) {
    exec.ExecuteSql(std::string("INSERT INTO s VALUES ") + row);
  }
  const auto dump = [&](const char* table) {
    std::string out;
    for (const Row& row : exec.ExecuteSql(std::string("SELECT * FROM ") +
                                          table).rows) {
      for (const Value& value : row) {
        out += std::string(value.is_int() ? "i" : "") + value.ToString() + "|";
      }
      out += "\n";
    }
    return out;
  };
  std::string outcome;
  *index_merges = 0;
  for (const std::string& sql : statements) {
    try {
      outcome += std::to_string(exec.ExecuteSql(sql).affected_rows) + ";";
      *index_merges += exec.last_engine_counters().index_merges;
    } catch (const Error& e) {
      outcome += std::string("threw:") + e.what() + ";";
    }
  }
  return outcome + "\n" + dump("t") + dump("u");
}

TEST_P(KeyPathDifferential, SmallSourceMergesProbeTheTargetIndex) {
  const std::vector<std::vector<std::string>> scripts = {
      // Duplicate source keys: the first match wins; NULL keys and a key
      // the target lacks match nothing.
      {"UPDATE t SET v = s.v FROM s WHERE t.id = s.id",
       "UPDATE t SET v = s.v, n = s.n FROM s WHERE s.id = t.id AND s.n > 1"},
      // DOUBLE keys (1.0 matches 1, -0.0 matches 0) and a TEXT key after
      // the INT64 ones; the target key turns DOUBLE for another merge.
      {"UPDATE t SET v = m.v FROM (SELECT id, v FROM s UNION ALL SELECT "
       "1.0, 20.5 UNION ALL SELECT -0.0, 21.5 UNION ALL SELECT 'x', 0.0) "
       "AS m WHERE t.id = m.id",
       "UPDATE u SET v = s.v FROM s WHERE u.id = s.id",
       "UPDATE u SET v = m.v FROM (SELECT id * 1.0 AS id, v + 1.0 AS v "
       "FROM s WHERE n > 1) AS m WHERE m.id = u.id AND m.v > 4"},
      // A source of NULL keys only.
      {"DELETE FROM s WHERE id IS NOT NULL",
       "UPDATE t SET v = s.v FROM s WHERE t.id = s.id",
       "UPDATE u SET v = s.v FROM s WHERE u.id = s.id"},
  };
  for (const auto& script : scripts) {
    size_t reference_probes = 0;
    const std::string reference =
        ProbeMergeOutcome(GetParam(), /*fused=*/false, /*vectorized=*/false,
                          script, &reference_probes);
    EXPECT_EQ(reference_probes, 0u) << "the reference pipeline scans";
    for (const bool vectorized : {true, false}) {
      size_t probes = 0;
      EXPECT_EQ(ProbeMergeOutcome(GetParam(), true, vectorized, script,
                                  &probes),
                reference)
          << script.back();
      EXPECT_GT(probes, 0u) << script.back();
    }
  }
}

// The table itself against std::unordered_map: extremes, keys equal in
// their low 32 bits, keys equal in their high bits, and growth.
TEST(IntKeyTable, AgreesWithUnorderedMap) {
  IntKeyTable table;
  std::unordered_map<int64_t, uint32_t> model;
  std::vector<int64_t> keys = {INT64_MIN, INT64_MAX, 0, -1, 1};
  for (int64_t i = 1; i <= 300; ++i) {
    keys.push_back(i << 32);             // same low 32 bits (zero)
    keys.push_back((i << 32) | 7);       // same low bits again
    keys.push_back(i);                   // same high bits (zero)
    keys.push_back(INT64_MIN + i * 1024);
  }
  Rng rng(42);
  for (size_t n = 0; n < 4 * keys.size(); ++n) {
    const int64_t key = keys[rng.NextBelow(keys.size())];
    const auto payload = static_cast<uint32_t>(n);
    const auto [slot, inserted] = table.FindOrInsert(key, payload);
    const auto [it, model_inserted] = model.try_emplace(key, payload);
    ASSERT_EQ(inserted, model_inserted) << key;
    ASSERT_EQ(*slot, it->second) << key;
  }
  EXPECT_EQ(table.size(), model.size());
  EXPECT_GE(table.FootprintBytes(),
            static_cast<int64_t>(2 * model.size() * sizeof(int64_t)));
  for (const int64_t key : keys) {
    EXPECT_EQ(table.Find(key), model.contains(key) ? model[key]
                                                   : IntKeyTable::kVacant);
  }
  EXPECT_EQ(table.Find(12345), IntKeyTable::kVacant);
  size_t visited = 0;
  table.ForEach([&](int64_t key, uint32_t payload) {
    ++visited;
    EXPECT_EQ(model.at(key), payload);
  });
  EXPECT_EQ(visited, model.size());
}

INSTANTIATE_TEST_SUITE_P(EngineProfiles, KeyPathDifferential,
                         ::testing::Values("postgres", "mysql", "mariadb",
                                           "canonical"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace sqloop::minidb

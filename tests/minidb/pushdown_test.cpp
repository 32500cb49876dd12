// Index-scan pushdown and scan accounting: `WHERE col = literal` on an
// indexed base table must read only the matching rows, and rows_examined
// must reflect the actual scan volume — the dbc layer's server-cost model
// depends on it.
#include <gtest/gtest.h>

#include "tests/minidb/test_util.h"

namespace sqloop::minidb {
namespace {

class PushdownTest : public testing::DbFixture {
 protected:
  void SetUp() override {
    Run("CREATE TABLE msg (id BIGINT, val DOUBLE, target BIGINT)");
    for (int i = 0; i < 100; ++i) {
      Run("INSERT INTO msg VALUES (" + std::to_string(i) + ", 1.0, " +
          std::to_string(i % 4) + ")");
    }
  }
};

TEST_F(PushdownTest, FullScanExaminesAllRows) {
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 100u);  // no index -> full scan
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.full_scans, 1u);
  EXPECT_EQ(counters.index_scans, 0u);
  EXPECT_EQ(counters.pushed_predicates, 1u);
  EXPECT_EQ(counters.fused_cores, 1u);
  // The fused aggregate streams scanned rows straight into the
  // accumulators — nothing is copied or even pinned as a view.
  EXPECT_EQ(counters.rows_materialized, 0u);
  EXPECT_EQ(counters.rows_borrowed, 0u);
}

TEST_F(PushdownTest, IndexScanExaminesOnlyMatches) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);  // index narrows the scan
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.index_scans, 1u);
  EXPECT_EQ(counters.full_scans, 0u);
  EXPECT_EQ(counters.rows_materialized, 0u);
}

TEST_F(PushdownTest, IndexScanWithExtraConjuncts) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result =
      Run("SELECT id FROM msg WHERE target = 1 AND id > 50");
  EXPECT_EQ(result.rows.size(), 12u);  // 53, 57, ..., 97
  EXPECT_EQ(result.rows_examined, 25u);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.index_scans, 1u);
  EXPECT_EQ(counters.pushed_predicates, 2u);  // both conjuncts pushed
}

TEST_F(PushdownTest, LiteralOnLeftSideAlsoPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE 3 = target");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);
}

TEST_F(PushdownTest, PrimaryKeyLookupPushesDown) {
  Run("CREATE TABLE r (id BIGINT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    Run("INSERT INTO r VALUES (" + std::to_string(i) + ", 0.5)");
  }
  const auto result = Run("SELECT v FROM r WHERE id = 7");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows_examined, 1u);
  EXPECT_EQ(exec_.last_engine_counters().index_scans, 1u);
}

TEST_F(PushdownTest, AliasQualifiedColumnPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result =
      Run("SELECT COUNT(*) FROM msg AS m WHERE m.target = 0");
  EXPECT_EQ(result.rows[0][0].as_int(), 25);
  EXPECT_EQ(result.rows_examined, 25u);
}

TEST_F(PushdownTest, UnionArmsPushDownIndependently) {
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto result = Run(
      "SELECT id FROM msg WHERE target = 0 UNION ALL "
      "SELECT id FROM msg WHERE target = 1");
  EXPECT_EQ(result.rows.size(), 50u);
  EXPECT_EQ(result.rows_examined, 50u);
}

TEST_F(PushdownTest, ResultsIdenticalWithAndWithoutIndex) {
  const auto before =
      testing::Sorted(Run("SELECT id FROM msg WHERE target = 2").rows);
  Run("CREATE INDEX msg_target ON msg (target)");
  const auto after =
      testing::Sorted(Run("SELECT id FROM msg WHERE target = 2").rows);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(Value::KeyEquals(before[i][0], after[i][0]));
  }
}

TEST_F(PushdownTest, NullLiteralNeverPushesDown) {
  Run("CREATE INDEX msg_target ON msg (target)");
  // col = NULL matches nothing; must not be turned into an index probe.
  const auto result = Run("SELECT COUNT(*) FROM msg WHERE target = NULL");
  EXPECT_EQ(result.rows[0][0].as_int(), 0);
}

TEST_F(PushdownTest, RowsExaminedCoversJoins) {
  Run("CREATE TABLE a (x BIGINT)");
  Run("CREATE TABLE b (y BIGINT)");
  for (int i = 0; i < 10; ++i) {
    Run("INSERT INTO a VALUES (" + std::to_string(i) + ")");
    Run("INSERT INTO b VALUES (" + std::to_string(i) + ")");
  }
  const auto result =
      Run("SELECT COUNT(*) FROM a JOIN b ON a.x = b.y");
  EXPECT_EQ(result.rows[0][0].as_int(), 10);
  EXPECT_GE(result.rows_examined, 20u);  // both inputs scanned
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.fused_cores, 1u);
  // A fused aggregate-over-join borrows its scan inputs and streams the
  // joined rows into the accumulators without an intermediate Relation.
  EXPECT_EQ(counters.rows_borrowed, 20u);
  EXPECT_EQ(counters.rows_materialized, 0u);
}

TEST_F(PushdownTest, PageRankStepKeysFlatTablesAndCopiesNoJoinRows) {
  Run("CREATE TABLE pr (node BIGINT PRIMARY KEY, rank DOUBLE, delta DOUBLE)");
  Run("CREATE TABLE pr_tmp (node BIGINT PRIMARY KEY, rank DOUBLE, "
      "delta DOUBLE)");
  Run("CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)");
  for (int n = 0; n < 40; ++n) {
    Run("INSERT INTO pr VALUES (" + std::to_string(n) + ", 0, 0.15)");
    for (int d = 1; d <= 3; ++d) {
      Run("INSERT INTO edges VALUES (" + std::to_string(n) + ", " +
          std::to_string((n * 7 + d * 3) % 40) + ", 0.25)");
    }
  }
  const std::string step =
      "INSERT INTO pr_tmp SELECT pr.node,"
      " COALESCE(pr.rank + pr.delta, 0.15),"
      " COALESCE(0.85 * SUM(inrank.delta * e.weight), 0.0)"
      " FROM pr LEFT JOIN edges AS e ON pr.node = e.dst"
      " LEFT JOIN pr AS inrank ON inrank.node = e.src GROUP BY pr.node";
  EXPECT_EQ(Run(step).affected_rows, 40u);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.fused_cores, 1u);
  // Both hash-join builds (edges on dst, pr on node) and the GROUP BY on
  // pr.node key INT64 values in flat tables; no key ever migrates.
  EXPECT_EQ(counters.int_key_tables, 3u);
  EXPECT_EQ(counters.key_fallbacks, 0u);
  // The three scans are borrowed, and the nested pr ⟕ edges join stays
  // row views: no row is copied into an intermediate.
  EXPECT_EQ(counters.rows_borrowed, 40u + 120u + 40u);
  EXPECT_EQ(counters.rows_materialized, 0u);

  // The merge keys its source in a flat table too.
  EXPECT_EQ(Run("UPDATE pr SET rank = t.rank, delta = t.delta FROM pr_tmp "
                "AS t WHERE pr.node = t.node")
                .affected_rows,
            40u);
  EXPECT_EQ(exec_.last_engine_counters().int_key_tables, 1u);
  EXPECT_EQ(exec_.last_engine_counters().key_fallbacks, 0u);

  // The reference pipeline copies every scanned row and both joins' 120
  // output rows (every node has three in-edges, so none is NULL-padded),
  // with generic key tables only.
  Run("DELETE FROM pr_tmp");
  db_.set_fused_enabled(false);
  Run(step);
  db_.set_fused_enabled(true);
  EXPECT_EQ(exec_.last_engine_counters().int_key_tables, 0u);
  EXPECT_EQ(exec_.last_engine_counters().rows_materialized,
            40u + 120u + 120u + 40u + 120u);
}

TEST_F(PushdownTest, ReferencePipelineMaterializesSameAnswer) {
  const auto fused = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  EXPECT_EQ(exec_.last_engine_counters().rows_materialized, 0u);
  db_.set_fused_enabled(false);
  const auto reference = Run("SELECT COUNT(*) FROM msg WHERE target = 2");
  db_.set_fused_enabled(true);
  const auto& counters = exec_.last_engine_counters();
  EXPECT_EQ(counters.fused_cores, 0u);
  // The materializing pipeline copies the scanned table into an
  // intermediate Relation before filtering.
  EXPECT_EQ(counters.rows_materialized, 100u);
  EXPECT_EQ(counters.rows_borrowed, 0u);
  EXPECT_EQ(fused.rows[0][0].as_int(), reference.rows[0][0].as_int());
  EXPECT_EQ(fused.rows_examined, reference.rows_examined);
}

}  // namespace
}  // namespace sqloop::minidb

// PreparedStatement behavior at the client boundary: bind/execute/rebind,
// batches, stats and round-trip accounting, transparency across DDL and
// Close/Reopen, and correctness with the plan cache ablated.
#include "dbc/prepared_statement.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>

#include "common/error.h"
#include "dbc/driver.h"
#include "minidb/server.h"

namespace sqloop::dbc {
namespace {

using minidb::EngineProfile;
using minidb::Server;

/// Each test gets a private server registered under a unique host name.
class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    host_ = "prep_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : host_) c = std::tolower(static_cast<unsigned char>(c));
    DriverManager::RegisterHost(host_, &server_);
    server_.CreateDatabase("db", EngineProfile::Postgres());
  }
  void TearDown() override { DriverManager::RegisterHost(host_, nullptr); }

  std::unique_ptr<Connection> Connect(const std::string& params = {}) {
    return DriverManager::GetConnection("minidb://" + host_ +
                                        "/db?latency_us=0" + params);
  }

  /// A connection with the people table loaded — the shared test dataset.
  std::unique_ptr<Connection> ConnectWithTable() {
    auto conn = Connect();
    conn->Execute(
        "CREATE TABLE people (id BIGINT, name TEXT, score DOUBLE PRECISION)");
    conn->Execute(
        "INSERT INTO people VALUES (1, 'ada', 9.5), (2, 'grace', 8.0), "
        "(3, 'edsger', 7.25)");
    return conn;
  }

  Server server_;
  std::string host_;
};

TEST_F(PreparedStatementTest, BindsAllTypesAndReexecutesWithNewValues) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("SELECT name FROM people WHERE id = ?");
  EXPECT_EQ(stmt.parameter_count(), 1);

  stmt.SetInt64(1, 1);
  auto result = stmt.ExecuteQuery();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].ToString(), "ada");

  // Rebinding the same handle re-executes without a new prepare.
  stmt.SetInt64(1, 3);
  result = stmt.ExecuteQuery();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].ToString(), "edsger");
}

TEST_F(PreparedStatementTest, BindsDoubleTextAndNull) {
  auto conn = ConnectWithTable();
  auto by_score = conn->Prepare("SELECT name FROM people WHERE score > ?");
  by_score.SetDouble(1, 8.5);
  auto result = by_score.ExecuteQuery();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].ToString(), "ada");

  auto by_name = conn->Prepare("SELECT id FROM people WHERE name = ?");
  by_name.SetText(1, "grace");
  result = by_name.ExecuteQuery();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int(), 2);

  // NULL never equals anything — zero rows, not an error.
  by_name.SetNull(1);
  EXPECT_EQ(by_name.ExecuteQuery().rows.size(), 0u);
}

TEST_F(PreparedStatementTest, TextBindIsAstLevelNotSplicedIntoSql) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("SELECT COUNT(*) FROM people WHERE name = ?");
  // A value full of SQL metacharacters binds as data: the parameter is a
  // literal node in the AST, so there is nothing to inject into.
  stmt.SetText(1, "x' OR '1'='1");
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 0);
  stmt.SetText(1, "it's");
  conn->ExecuteUpdate("INSERT INTO people VALUES (4, 'it''s', 1.0)");
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 1);
}

TEST_F(PreparedStatementTest, UnboundAndOutOfRangeParametersThrow) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("SELECT * FROM people WHERE id = ? AND score > ?");
  EXPECT_EQ(stmt.parameter_count(), 2);
  stmt.SetInt64(1, 1);
  EXPECT_THROW(stmt.Execute(), UsageError);  // ?2 unbound
  EXPECT_THROW(stmt.SetInt64(0, 5), UsageError);
  EXPECT_THROW(stmt.SetInt64(3, 5), UsageError);
  stmt.SetDouble(2, 0.0);
  EXPECT_EQ(stmt.ExecuteQuery().rows.size(), 1u);
  // ClearParameters returns the handle to the fully-unbound state.
  stmt.ClearParameters();
  EXPECT_THROW(stmt.Execute(), UsageError);
}

TEST_F(PreparedStatementTest, ExecuteUpdateReportsAffectedRows) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("UPDATE people SET score = ? WHERE id >= ?");
  stmt.SetDouble(1, 1.0);
  stmt.SetInt64(2, 2);
  EXPECT_EQ(stmt.ExecuteUpdate(), 2u);
  EXPECT_DOUBLE_EQ(
      conn->ExecuteQuery("SELECT SUM(score) FROM people").rows[0][0]
          .as_double(),
      9.5 + 1.0 + 1.0);
}

TEST_F(PreparedStatementTest, BatchExecutesEveryQueuedBindSet) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("INSERT INTO people VALUES (?, ?, ?)");
  for (int i = 10; i < 13; ++i) {
    stmt.SetInt64(1, i);
    stmt.SetText(2, "p" + std::to_string(i));
    stmt.SetDouble(3, 0.5 * i);
    stmt.AddBatch();
  }
  EXPECT_EQ(stmt.batch_size(), 3u);
  const uint64_t trips0 = conn->stats().round_trips;
  const auto affected = stmt.ExecuteBatch();
  // The whole batch shipped in one round trip.
  EXPECT_EQ(conn->stats().round_trips, trips0 + 1);
  ASSERT_EQ(affected.size(), 3u);
  for (const size_t rows : affected) EXPECT_EQ(rows, 1u);
  EXPECT_EQ(stmt.batch_size(), 0u);
  EXPECT_EQ(
      conn->ExecuteQuery("SELECT COUNT(*) FROM people").rows[0][0].as_int(),
      6);
}

TEST_F(PreparedStatementTest, StatsCountHandlesAndPreparedExecutions) {
  auto conn = ConnectWithTable();
  const uint64_t handles0 = conn->stats().prepared_statements;
  auto stmt = conn->Prepare("SELECT COUNT(*) FROM people WHERE id > ?");
  EXPECT_EQ(conn->stats().prepared_statements, handles0 + 1);

  const uint64_t execs0 = conn->stats().prepared_executions;
  const uint64_t trips0 = conn->stats().round_trips;
  stmt.SetInt64(1, 0);
  stmt.ExecuteQuery();
  stmt.ExecuteQuery();
  EXPECT_EQ(conn->stats().prepared_executions, execs0 + 2);
  // Each execute ships binds only: exactly one round trip apiece.
  EXPECT_EQ(conn->stats().round_trips, trips0 + 2);
  // Prepared executions also count as statements.
  EXPECT_GE(conn->stats().statements, conn->stats().prepared_executions);
}

TEST_F(PreparedStatementTest, PrepareAllShipsOneRoundTripAndCompilesOnce) {
  auto conn = ConnectWithTable();
  const uint64_t trips0 = conn->stats().round_trips;
  const uint64_t handles0 = conn->stats().prepared_statements;
  auto stmts = conn->PrepareAll(
      {"SELECT name FROM people WHERE id = ?", "SELECT COUNT(*) FROM people",
       "UPDATE people SET score = ? WHERE id = ?"});
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(conn->stats().round_trips, trips0 + 1);
  EXPECT_EQ(conn->stats().prepared_statements, handles0 + 3);
  stmts[0].SetInt64(1, 2);
  EXPECT_EQ(stmts[0].ExecuteQuery().rows.at(0).at(0).as_text(), "grace");
  EXPECT_EQ(stmts[1].ExecuteQuery().rows.at(0).at(0).as_int(), 3);
  stmts[2].SetDouble(1, 1.0);
  stmts[2].SetInt64(2, 3);
  EXPECT_EQ(stmts[2].ExecuteUpdate(), 1u);
  // The handles are pinned in the shared cache: preparing the same texts
  // on another connection compiles nothing.
  auto other = Connect();
  const auto plan_misses = server_.FindDatabase("db")->plan_cache().misses();
  other->PrepareAll({"SELECT name FROM people WHERE id = ?",
                     "SELECT COUNT(*) FROM people"});
  EXPECT_EQ(server_.FindDatabase("db")->plan_cache().misses(), plan_misses);
}

TEST_F(PreparedStatementTest, SupersededTaskStopsBeforeThePreparedStatement) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("UPDATE people SET score = ? WHERE id = ?");
  stmt.SetDouble(1, 0.0);
  stmt.SetInt64(2, 1);
  auto flag = std::make_shared<std::atomic<bool>>(true);
  conn->set_cancel_flag(flag);
  EXPECT_THROW(stmt.ExecuteUpdate(), TaskSupersededError);
  EXPECT_THROW(conn->Prepare("SELECT 1"), TaskSupersededError);
  conn->set_cancel_flag(nullptr);
  // Refused before the engine: the row is untouched.
  EXPECT_EQ(conn->ExecuteQuery("SELECT score FROM people WHERE id = 1")
                .rows.at(0)
                .at(0)
                .as_double(),
            9.5);
}

TEST_F(PreparedStatementTest, DdlBetweenExecutesIsTransparent) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("SELECT COUNT(*) FROM people WHERE score > ?");
  stmt.SetDouble(1, 7.0);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 3);

  auto& cache = conn->database().plan_cache();
  const uint64_t misses0 = cache.misses();
  const uint64_t rebinds0 = cache.rebinds();
  // DDL from the same connection invalidates the bound plan. The handle
  // refreshes itself: the cached parse is reused (a rebind, not a miss).
  conn->Execute("CREATE INDEX people_id ON people (id)");
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 3);
  EXPECT_GT(cache.rebinds(), rebinds0);
  // Only the ad-hoc DDL text itself could have missed; the prepared
  // statement did not re-enter the compile path.
  EXPECT_LE(cache.misses(), misses0 + 1);

  conn->Execute("DROP INDEX people_id ON people");
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 3);
}

TEST_F(PreparedStatementTest, SurvivesConnectionReopen) {
  auto conn = ConnectWithTable();
  auto stmt = conn->Prepare("SELECT name FROM people WHERE id = ?");
  stmt.SetInt64(1, 2);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].ToString(), "grace");

  // The compiled plan lives with the database, not the socket: after a
  // resilience-style Close/Reopen the same handle executes unchanged.
  conn->Close();
  EXPECT_THROW(stmt.Execute(), ConnectionError);
  conn->Reopen();
  stmt.SetInt64(1, 1);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].ToString(), "ada");
}

TEST_F(PreparedStatementTest, WorksWithPlanCacheDisabled) {
  auto conn = ConnectWithTable();
  auto& cache = conn->database().plan_cache();
  cache.set_enabled(false);
  // Ablated world: Prepare still hands out a working handle — it compiles
  // client-side and re-parses per execute, modeling the pre-cache cost.
  auto stmt = conn->Prepare("SELECT name FROM people WHERE id = ?");
  stmt.SetInt64(1, 3);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].ToString(), "edsger");
  stmt.SetInt64(1, 1);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].ToString(), "ada");

  // Re-enabling mid-life promotes the handle back onto the cached path.
  cache.set_enabled(true);
  stmt.SetInt64(1, 2);
  EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].ToString(), "grace");
}

TEST_F(PreparedStatementTest, ModeledCompileCostIsPaidOnceNotPerExecute) {
  // With compile_us set, the PREPARE pays one modeled compile; cached
  // executions must not. The counter (not wall time) is the assertion.
  auto conn = Connect("&compile_us=1");
  conn->Execute("CREATE TABLE t (id BIGINT)");
  conn->Execute("INSERT INTO t VALUES (1), (2)");
  auto stmt = conn->Prepare("SELECT COUNT(*) FROM t WHERE id >= ?");
  stmt.SetInt64(1, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(stmt.ExecuteQuery().rows[0][0].as_int(), 2);
  }
  // Raw text on the same connection hits the plan cache once promoted, so
  // repeated ad-hoc execution also stops compiling. This is observable
  // through the plan-cache counters rather than the compile sleep.
  auto& cache = conn->database().plan_cache();
  const uint64_t hits0 = cache.hits();
  conn->ExecuteQuery("SELECT COUNT(*) FROM t WHERE id >= 0");
  conn->ExecuteQuery("SELECT COUNT(*) FROM t WHERE id >= 0");
  conn->ExecuteQuery("SELECT COUNT(*) FROM t WHERE id >= 0");
  EXPECT_GT(cache.hits(), hits0);
}

}  // namespace
}  // namespace sqloop::dbc

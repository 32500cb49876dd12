#include "core/analysis.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/workloads.h"
#include "sql/parser.h"

namespace sqloop::core {
namespace {

CteAnalysis Analyze(const std::string& query) {
  const auto stmt = sql::ParseStatement(query);
  return AnalyzeIterativeCte(stmt->with);
}

TEST(Analysis, PageRankIsParallelizable) {
  const auto a = Analyze(workloads::PageRankQuery(10));
  ASSERT_TRUE(a.parallelizable) << a.reason;
  EXPECT_EQ(a.cte_name, "pagerank");
  EXPECT_EQ(a.key_column, "node");
  EXPECT_EQ(a.aggregate, sql::AggFunc::kSum);
  EXPECT_EQ(a.primary_alias, "pagerank");
  EXPECT_EQ(a.self_alias, "incomingrank");
  EXPECT_EQ(a.mid_table, "edges");
  EXPECT_EQ(a.mid_alias, "incomingedges");
  EXPECT_EQ(a.mid_to_key, "dst");
  EXPECT_EQ(a.mid_from_key, "src");
  EXPECT_EQ(a.delta_column, "delta");
  EXPECT_EQ(a.delta_column_index, 2);
  ASSERT_EQ(a.own_columns.size(), 1u);
  EXPECT_EQ(a.own_columns[0].name, "rank");
  // The message query must materialize dst, src and weight.
  EXPECT_EQ(a.mid_columns_used.size(), 3u);
}

TEST(Analysis, SsspIsParallelizableWithMinAggregate) {
  const auto a = Analyze(workloads::SsspQuery(1, 100));
  ASSERT_TRUE(a.parallelizable) << a.reason;
  EXPECT_EQ(a.aggregate, sql::AggFunc::kMin);
  EXPECT_EQ(a.self_alias, "neighbor");
  EXPECT_NE(a.where, nullptr);  // Neighbor.Delta != Infinity
}

TEST(Analysis, DescendantQueryIsParallelizable) {
  const auto a = Analyze(workloads::DescendantQuery(0));
  ASSERT_TRUE(a.parallelizable) << a.reason;
  EXPECT_EQ(a.aggregate, sql::AggFunc::kMin);
}

TEST(Analysis, MinMaxPredicateAndLeftmostPrimary) {
  EXPECT_TRUE(Analyze(workloads::DescendantQuery(0)).IsMinMax());
  EXPECT_TRUE(Analyze(workloads::ConnectedComponentsQuery()).IsMinMax());
  const auto pr = Analyze(workloads::PageRankQuery(3));
  EXPECT_FALSE(pr.IsMinMax());
  EXPECT_TRUE(pr.primary_leftmost);
  // R joined on the right of the bridging relation: still the analyzable
  // shape, but a filter on R's key no longer commutes with the joins.
  const auto mid_first = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT r.k, MAX(s.d) FROM e JOIN r ON r.k = e.dst "
      "JOIN r AS s ON s.k = e.src GROUP BY r.k UNTIL 3 ITERATIONS) "
      "SELECT * FROM r");
  ASSERT_TRUE(mid_first.parallelizable) << mid_first.reason;
  EXPECT_TRUE(mid_first.IsMinMax());
  EXPECT_FALSE(mid_first.primary_leftmost);
}

TEST(Analysis, KeyQualifiedWithTheSelfJoinFallsBack) {
  // Self.k names the neighbour's key, not R's: grouping or echoing it is a
  // different query from the one the runners assume.
  for (const char* select_group :
       {"SELECT s.k, MIN(s.d) FROM r LEFT JOIN e ON r.k = e.dst "
        "LEFT JOIN r AS s ON s.k = e.src GROUP BY r.k",
        "SELECT r.k, MIN(s.d) FROM r LEFT JOIN e ON r.k = e.dst "
        "LEFT JOIN r AS s ON s.k = e.src GROUP BY s.k"}) {
    const auto a =
        Analyze(std::string("WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 "
                            "ITERATE ") +
                select_group + " UNTIL 3 ITERATIONS) SELECT * FROM r");
    EXPECT_FALSE(a.parallelizable) << select_group;
  }
}

TEST(Analysis, LimitInTheStepFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT r.k, MIN(s.d) FROM r LEFT JOIN e ON r.k = e.dst "
      "LEFT JOIN r AS s ON s.k = e.src GROUP BY r.k LIMIT 5 "
      "UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("LIMIT"), std::string::npos);
}

TEST(Analysis, NoAggregateFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, v) AS (SELECT 1, 2 ITERATE "
      "SELECT r.k, r.v + 1 FROM r LEFT JOIN e ON r.k = e.dst "
      "LEFT JOIN r AS s ON s.k = e.src GROUP BY r.k "
      "UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("aggregate"), std::string::npos);
}

TEST(Analysis, MissingSelfJoinFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, v) AS (SELECT 1, 2 ITERATE "
      "SELECT r.k, SUM(e.w) FROM r LEFT JOIN e ON r.k = e.dst "
      "GROUP BY r.k UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("self-join"), std::string::npos);
}

TEST(Analysis, MissingColumnListFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r AS (SELECT 1 ITERATE SELECT k FROM r "
      "UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("column list"), std::string::npos);
}

TEST(Analysis, DistinctAggregateFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT r.k, SUM(DISTINCT s.d * e.w) FROM r "
      "LEFT JOIN e ON r.k = e.dst LEFT JOIN r AS s ON s.k = e.src "
      "GROUP BY r.k UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("DISTINCT"), std::string::npos);
}

TEST(Analysis, TwoAggregatedColumnsFallBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d1, d2) AS (SELECT 1, 0.5, 0.5 ITERATE "
      "SELECT r.k, SUM(s.d1 * e.w), SUM(s.d2 * e.w) FROM r "
      "LEFT JOIN e ON r.k = e.dst LEFT JOIN r AS s ON s.k = e.src "
      "GROUP BY r.k UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("more than one"), std::string::npos);
}

TEST(Analysis, WherePrimaryReferenceFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT r.k, SUM(s.d * e.w) FROM r "
      "LEFT JOIN e ON r.k = e.dst LEFT JOIN r AS s ON s.k = e.src "
      "WHERE r.d > 0 "
      "GROUP BY r.k UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("WHERE"), std::string::npos);
}

TEST(Analysis, GroupByMismatchFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT r.k, SUM(s.d * e.w) FROM r "
      "LEFT JOIN e ON r.k = e.dst LEFT JOIN r AS s ON s.k = e.src "
      "GROUP BY r.d UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("GROUP BY"), std::string::npos);
}

TEST(Analysis, UnionStepFallsBack) {
  const auto a = Analyze(
      "WITH ITERATIVE r (k, d) AS (SELECT 1, 0.5 ITERATE "
      "SELECT k, d FROM r UNION ALL SELECT k, SUM(d) FROM r GROUP BY k "
      "UNTIL 3 ITERATIONS) SELECT * FROM r");
  EXPECT_FALSE(a.parallelizable);
  EXPECT_NE(a.reason.find("single SELECT"), std::string::npos);
}

TEST(Analysis, NonIterativeCteThrows) {
  const auto stmt = sql::ParseStatement(
      "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
      "WHERE n < 3) SELECT * FROM r");
  EXPECT_THROW(AnalyzeIterativeCte(stmt->with), AnalysisError);
}

}  // namespace
}  // namespace sqloop::core

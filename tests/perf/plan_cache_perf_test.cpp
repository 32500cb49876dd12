// Perf smoke suite (ctest label: perf): fast functional checks that the
// prepared-execution machinery is actually engaged on the hot path — the
// properties the full benchmarks (bench/micro_prepare) measure, asserted
// structurally so CI catches a silently disabled cache without timing
// anything.
#include <gtest/gtest.h>

#include <string>

#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "tests/core/core_test_util.h"

namespace sqloop::core {
namespace {

using testing::CoreFixtureBase;

struct CacheCounts {
  uint64_t misses = 0;  // compiles (parse + plan)
  uint64_t served = 0;  // executions served by a cached plan: prepared
                        // executions plus cache hits of ad-hoc text
};

/// Runs PageRank for `iters` rounds on a fresh fixture and returns the
/// database's plan-cache misses and the executions cached plans served.
CacheCounts RunAndCount(const graph::Graph& g, int iters) {
  CoreFixtureBase fixture("postgres");
  fixture.LoadGraph(g);
  SqLoop loop(fixture.Url());
  loop.Execute(workloads::PageRankQuery(iters),
               fixture.SmallOptions(ExecutionMode::kSingleThread));
  const auto& cache =
      dbc::DriverManager::GetConnection(fixture.Url())->database().plan_cache();
  return {cache.misses(),
          cache.hits() +
              loop.last_run().recorder->counter("dbc.prepared_executions")};
}

TEST(PlanCachePerfSmoke, HotLoopIsServedFromTheCache) {
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  constexpr int kIterations = 8;
  const CacheCounts counts = RunAndCount(g, kIterations);
  // The per-round statements (TRUNCATE, step INSERT, merge) must run from
  // cached plans, not fresh compiles.
  EXPECT_GT(counts.served, counts.misses);
  EXPECT_GE(counts.served, 3u * kIterations);
}

TEST(PlanCachePerfSmoke, CompileCountIsConstantInIterationCount) {
  // Parse/plan work must be O(1) after warm-up: doubling the iteration
  // count may not grow the number of compiles (misses) — only the number
  // of executions served from cached plans. A regression that re-compiles
  // per round shows up here as misses scaling with iterations.
  const graph::Graph g = graph::MakeWebGraph(80, 3, 5);
  const CacheCounts short_run = RunAndCount(g, 5);
  const CacheCounts long_run = RunAndCount(g, 10);
  EXPECT_LE(long_run.misses, short_run.misses + 2);
  EXPECT_GT(long_run.served, short_run.served);
}

}  // namespace
}  // namespace sqloop::core

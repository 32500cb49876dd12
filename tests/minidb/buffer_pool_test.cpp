// Paged storage & buffer pool acceptance suite (`ctest -L storage`):
// pin/unpin balance, clock eviction order, pinned-page eviction refusal,
// spill/reload round trips, quota-pressure reclaim, the CHECKSUM TABLE
// statement, checkpoint dump reuse, unbounded-vs-bounded pool differentials
// (statement stream and PageRank in all four execution modes), and a
// reader/writer/evictor race for the tsan preset.
#include "minidb/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/memory_tracker.h"
#include "core/checkpoint.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "minidb/database.h"
#include "minidb/dump.h"
#include "minidb/executor.h"
#include "minidb/page.h"
#include "minidb/server.h"
#include "minidb/table.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace sqloop::minidb {
namespace {

Schema MakeSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"score", ValueType::kDouble},
                 {"label", ValueType::kText}},
                /*primary_key_index=*/0);
}

Row MakeRow(int64_t id) {
  // Mixed payloads so the spill image exercises every value tag: NULLs,
  // doubles with fractional bits, short (SSO) and long (heap) text.
  Row row;
  row.push_back(Value(id));
  if (id % 7 == 0) {
    row.push_back(Value::Null());
  } else {
    row.push_back(Value(static_cast<double>(id) + 0.125));
  }
  if (id % 5 == 0) {
    row.push_back(Value::Null());
  } else if (id % 3 == 0) {
    row.push_back(Value(std::string(64, 'x') + std::to_string(id)));
  } else {
    row.push_back(Value("t" + std::to_string(id)));
  }
  return row;
}

std::string UniqueSpillDir(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("sqloop_pool_test_" + std::string(tag) + "_" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

/// A spill-enabled table over its own bounded pool. The budget is set
/// BEFORE the table is configured, so spill participation latches on.
struct PagedFixture {
  explicit PagedFixture(int64_t budget_bytes, const char* tag = "fx")
      : pool(std::make_shared<BufferPool>(UniqueSpillDir(tag))),
        table(std::make_unique<Table>("t", MakeSchema())) {
    pool->set_budget_bytes(budget_bytes);
    table->set_integrity_enabled(true);
    table->ConfigureStorage(pool);
  }

  void InsertRows(int64_t count) {
    for (int64_t i = 0; i < count; ++i) table->Insert(MakeRow(i));
  }

  std::shared_ptr<BufferPool> pool;
  std::unique_ptr<Table> table;
};

constexpr int64_t kRowsPerPage = static_cast<int64_t>(kPageRowCapacity);
// Roomy enough that inserting a few pages never evicts on its own.
constexpr int64_t kLooseBudget = 64 << 20;

TEST(BufferPool, PagedTableKeepsRowIdsAndValues) {
  PagedFixture fx(kLooseBudget, "ids");
  fx.InsertRows(3 * kRowsPerPage + 17);
  EXPECT_EQ(fx.table->page_count(), 4u);
  EXPECT_EQ(fx.table->live_row_count(),
            static_cast<size_t>(3 * kRowsPerPage + 17));
  // Row ids are stable slot addresses across pages.
  for (int64_t id : {int64_t{0}, kRowsPerPage - 1, kRowsPerPage,
                     2 * kRowsPerPage + 5, 3 * kRowsPerPage + 16}) {
    const Row& row = fx.table->At(static_cast<size_t>(id));
    EXPECT_EQ(row[0].as_int(), id);
  }
  EXPECT_EQ(fx.table->FindByPrimaryKey(Value(int64_t{kRowsPerPage + 3})),
            kRowsPerPage + 3);
  // Update and delete keep ids, indexes, and the checksum coherent.
  Row updated = MakeRow(kRowsPerPage + 3);
  updated[2] = Value(std::string("rewritten"));
  fx.table->Update(static_cast<size_t>(kRowsPerPage + 3), std::move(updated));
  fx.table->Delete(static_cast<size_t>(2 * kRowsPerPage));
  EXPECT_FALSE(fx.table->IsLive(static_cast<size_t>(2 * kRowsPerPage)));
  EXPECT_TRUE(fx.table->VerifyContent());
}

TEST(BufferPool, PinUnpinBalanceAllowsFullEviction) {
  PagedFixture fx(kLooseBudget, "balance");
  fx.InsertRows(4 * kRowsPerPage);
  EXPECT_EQ(fx.table->resident_page_count(), 4u);

  // Scope-held reads: every page a scan pinned is released when the scope
  // dies, so Shrink() can empty the pool — a leaked pin would block it.
  {
    PinScope scope;
    for (size_t id = 0; id < fx.table->slot_count(); ++id) {
      (void)fx.table->At(id);
    }
    // While the scope holds its pins nothing is evictable.
    EXPECT_EQ(fx.pool->Shrink(), 0);
    EXPECT_EQ(fx.table->resident_page_count(), 4u);
  }
  EXPECT_GT(fx.pool->Shrink(), 0);
  EXPECT_EQ(fx.table->resident_page_count(), 0u);

  // Scope-less reads take transient pin/unpin pairs: also fully evictable,
  // and each access after the eviction above is a miss that faults in.
  const uint64_t misses_before = fx.pool->stats().misses;
  for (size_t id = 0; id < fx.table->slot_count(); id += kRowsPerPage) {
    (void)fx.table->At(id);
  }
  EXPECT_GE(fx.pool->stats().misses, misses_before + 4);
  fx.pool->Shrink();
  EXPECT_EQ(fx.table->resident_page_count(), 0u);

  // Windowed scan: releasing at a page boundary lets earlier pages go
  // while the scan keeps its current page pinned.
  {
    PinScope scope;
    PinScope::Window window;
    for (size_t id = 0; id < fx.table->slot_count(); ++id) {
      if ((id & kPageRowMask) == 0) window.Reset();
      (void)fx.table->At(id);
      if (id == static_cast<size_t>(2 * kRowsPerPage)) {
        // Pages 0 and 1 were released by the window; only the current
        // page (2) is pinned, so Shrink can evict all but one page.
        fx.pool->Shrink();
        EXPECT_EQ(fx.table->resident_page_count(), 1u);
      }
    }
  }
  fx.pool->Shrink();
  EXPECT_EQ(fx.table->resident_page_count(), 0u);
}

TEST(BufferPool, PinnedPageRefusesEviction) {
  PagedFixture fx(kLooseBudget, "pinned");
  fx.InsertRows(3 * kRowsPerPage);
  {
    PinScope scope;
    const Row& held = fx.table->At(0);  // pins page 0 into the scope
    EXPECT_EQ(held[0].as_int(), 0);
    fx.pool->Shrink();
    // Page 0 stays resident; the reference must still be readable.
    EXPECT_EQ(fx.table->resident_page_count(), 1u);
    EXPECT_EQ(held[0].as_int(), 0);
    const uint64_t misses = fx.pool->stats().misses;
    (void)fx.table->At(5);  // same page: a hit, not a fault-in
    EXPECT_EQ(fx.pool->stats().misses, misses);
  }
  fx.pool->Shrink();
  EXPECT_EQ(fx.table->resident_page_count(), 0u);
}

TEST(BufferPool, EvictionFollowsClockOrder) {
  PagedFixture fx(kLooseBudget, "clock");
  fx.InsertRows(3 * kRowsPerPage);
  // First reclaim sweep: every page starts referenced (insert pins), so
  // the clock clears all bits and evicts the first page past the hand —
  // the coldest by insertion order, page 0.
  EXPECT_GT(fx.pool->TryReclaim(1), 0);
  EXPECT_EQ(fx.table->resident_page_count(), 2u);
  uint64_t misses = fx.pool->stats().misses;
  (void)fx.table->At(0);  // page 0 was the victim: faulting miss
  EXPECT_EQ(fx.pool->stats().misses, misses + 1);

  // Second chance: rebuild a known state — fault in pages 2 and 0 (both
  // referenced) and reclaim once; the sweep clears both bits and evicts
  // the first page past the hand, leaving one survivor with a cleared
  // bit. Fault in page 1 (referenced) next to it, and the following
  // reclaim must take the unreferenced survivor while the referenced
  // newcomer gets its second chance.
  fx.pool->Shrink();
  (void)fx.table->At(static_cast<size_t>(2 * kRowsPerPage));
  (void)fx.table->At(0);
  ASSERT_EQ(fx.table->resident_page_count(), 2u);
  EXPECT_GT(fx.pool->TryReclaim(1), 0);
  ASSERT_EQ(fx.table->resident_page_count(), 1u);
  (void)fx.table->At(static_cast<size_t>(kRowsPerPage));  // referenced
  EXPECT_GT(fx.pool->TryReclaim(1), 0);
  misses = fx.pool->stats().misses;
  (void)fx.table->At(static_cast<size_t>(kRowsPerPage));
  EXPECT_EQ(fx.pool->stats().misses, misses)
      << "the referenced page must survive the sweep";
}

TEST(BufferPool, SpillReloadRoundTrip) {
  PagedFixture fx(kLooseBudget, "roundtrip");
  const int64_t kRows = 4 * kRowsPerPage + 100;
  fx.InsertRows(kRows);
  fx.table->Delete(static_cast<size_t>(kRowsPerPage) + 11);
  const uint64_t hash_before = fx.table->content_hash();

  fx.pool->Shrink();
  EXPECT_EQ(fx.table->resident_page_count(), 0u);
  EXPECT_GT(fx.pool->stats().bytes_spilled, 0u);

  // Every value (nulls, doubles, SSO and heap text) round-trips exactly.
  for (int64_t id = 0; id < kRows; ++id) {
    if (!fx.table->IsLive(static_cast<size_t>(id))) continue;
    const Row expected = MakeRow(id);
    const Row& actual = fx.table->At(static_cast<size_t>(id));
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(actual[c].ToString(), expected[c].ToString())
          << "row " << id << " col " << c;
    }
  }
  EXPECT_EQ(fx.table->content_hash(), hash_before);
  EXPECT_TRUE(fx.table->VerifyContent());

  // Mutate after a reload, evict again, and verify the re-spilled image.
  Row updated = MakeRow(7);
  updated[1] = Value(3.5);
  fx.table->Update(7, std::move(updated));
  fx.pool->Shrink();
  EXPECT_DOUBLE_EQ(fx.table->At(7)[1].as_double(), 3.5);
  EXPECT_TRUE(fx.table->VerifyContent());

  // Appends into a reloaded tail page keep earlier views stable.
  fx.pool->Shrink();
  {
    PinScope scope;
    const Row& before = fx.table->At(static_cast<size_t>(kRows) - 1);
    fx.table->Insert(MakeRow(kRows));
    EXPECT_EQ(before[0].as_int(), kRows - 1);
  }
}

TEST(BufferPool, BudgetEvictsDuringInsert) {
  // A budget of ~2 pages of rows: loading 8 pages must keep residency
  // bounded the whole way instead of spiking to the dataset size.
  PagedFixture probe(kLooseBudget, "probe");
  probe.InsertRows(kRowsPerPage);
  const int64_t page_bytes = probe.pool->stats().resident_bytes;

  PagedFixture fx(2 * page_bytes + page_bytes / 2, "budget");
  fx.InsertRows(8 * kRowsPerPage);
  const BufferPool::Stats stats = fx.pool->stats();
  EXPECT_GT(stats.pages_evicted, 0u);
  EXPECT_LE(stats.resident_peak, fx.pool->budget_bytes() + page_bytes)
      << "residency must stay near the budget while loading";
  EXPECT_TRUE(fx.table->VerifyContent());
}

TEST(BufferPool, VerifyContentLocalizesCorruptPage) {
  PagedFixture fx(kLooseBudget, "scrub");
  fx.InsertRows(3 * kRowsPerPage);
  ASSERT_TRUE(fx.table->VerifyContent());
  fx.table->CorruptCellForTesting(static_cast<size_t>(kRowsPerPage) + 4, 0);
  uint64_t expected = 0;
  uint64_t actual = 0;
  int64_t bad_page = -1;
  EXPECT_FALSE(fx.table->VerifyContent(&expected, &actual, &bad_page));
  EXPECT_EQ(bad_page, 1) << "page-granular shards must localize the damage";
}

TEST(MemoryReclaimer, QuotaPressureEvictsBeforeError) {
  // Unit level: a breaching Charge consults the reclaimer once and
  // retries; a reclaimer that frees nothing still fails.
  MemoryTracker root("root");
  root.set_limit_bytes(1000);
  root.ChargeUnchecked(900);
  int calls = 0;
  root.set_reclaimer([&](int64_t need) -> int64_t {
    ++calls;
    EXPECT_GE(need, 100);
    root.Release(500);
    return 500;
  });
  root.Charge(200);  // 1100 > 1000 -> reclaim 500 -> 400 + 200 fits
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(root.reserved_bytes(), 600);
  root.set_reclaimer([&](int64_t) -> int64_t { return 0; });
  EXPECT_THROW(root.Charge(10'000), QuotaExceededError);

  // Integration: the database installs its pool as the reclaimer, so a
  // transient charge that would breach evicts table pages instead of
  // throwing.
  Database db("quota", EngineProfile::Canonical());
  db.set_buffer_pool_bytes(64 << 20);
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE q (id BIGINT PRIMARY KEY, v TEXT)");
  for (int i = 0; i < 3 * kRowsPerPage; ++i) {
    exec.ExecuteSql("INSERT INTO q VALUES (" + std::to_string(i) + ", 'v" +
                    std::to_string(i) + "')");
  }
  const size_t before = db.FindTable("q")->resident_page_count();
  ASSERT_GT(before, 0u);
  // Cap the root at its current reservation: the next checked charge
  // breaches, the pool reclaimer evicts pages, and the charge succeeds.
  db.memory_tracker().set_limit_bytes(db.memory_tracker().reserved_bytes());
  EXPECT_NO_THROW(db.memory_tracker().Charge(1024));
  db.memory_tracker().Release(1024);
  EXPECT_LT(db.FindTable("q")->resident_page_count(), before);
}

TEST(ChecksumTable, StatementParsesPrintsAndExecutes) {
  const sql::StatementPtr stmt = sql::ParseStatement("CHECKSUM TABLE t");
  ASSERT_EQ(stmt->kind, sql::StatementKind::kChecksumTable);
  EXPECT_EQ(stmt->table_name, "t");
  EXPECT_EQ(sql::PrintStatement(*stmt), "CHECKSUM TABLE t");

  Database db("ck", EngineProfile::Canonical());
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE)");
  exec.ExecuteSql("INSERT INTO t VALUES (1, 0.5)");
  exec.ExecuteSql("INSERT INTO t VALUES (2, 1.5)");
  const ResultSet first = exec.ExecuteSql("CHECKSUM TABLE t");
  ASSERT_EQ(first.rows.size(), 1u);
  ASSERT_EQ(first.columns.size(), 3u);
  EXPECT_EQ(first.columns[1], "checksum");
  EXPECT_EQ(first.rows[0][2].as_int(), 2);
  char expected[20];
  std::snprintf(expected, sizeof(expected), "0x%016llx",
                static_cast<unsigned long long>(
                    db.FindTable("t")->content_hash()));
  EXPECT_EQ(first.rows[0][1].as_text(), expected);

  // O(1) probe semantics: stable while the table is unchanged, different
  // after a mutation, and equal again after the mutation is undone.
  EXPECT_EQ(exec.ExecuteSql("CHECKSUM TABLE t").rows[0][1].as_text(),
            first.rows[0][1].as_text());
  exec.ExecuteSql("INSERT INTO t VALUES (3, 9.0)");
  const std::string changed =
      exec.ExecuteSql("CHECKSUM TABLE t").rows[0][1].as_text();
  EXPECT_NE(changed, first.rows[0][1].as_text());
  exec.ExecuteSql("DELETE FROM t WHERE id = 3");
  EXPECT_EQ(exec.ExecuteSql("CHECKSUM TABLE t").rows[0][1].as_text(),
            first.rows[0][1].as_text());

  EXPECT_THROW(exec.ExecuteSql("CHECKSUM TABLE missing"), ExecutionError);
  db.FindTable("t")->set_quarantined(true);
  EXPECT_THROW(exec.ExecuteSql("CHECKSUM TABLE t"), IntegrityError);
}

TEST(CheckpointReuse, UnchangedChecksumRepublishesSealedDump) {
  Table table("r", MakeSchema());
  table.set_integrity_enabled(true);
  for (int64_t i = 0; i < 50; ++i) table.Insert(MakeRow(i));

  const std::string dir = UniqueSpillDir("ckpt");
  core::CheckpointManager ckpt(dir, "job");
  const std::string stem = "table.dump";
  const std::string checksum = std::to_string(table.content_hash());

  // Round 1: nothing sealed yet -> fresh dump, then record.
  ckpt.BeginRound(1);
  EXPECT_FALSE(ckpt.TryReuseDump(1, stem, checksum));
  DumpTableToFile(table, ckpt.FileFor(1, stem));
  ckpt.RecordDumpChecksum(1, stem, checksum);

  // Round 2, unchanged table: the sealed bytes are republished and the
  // copy validates like a fresh dump.
  ckpt.BeginRound(2);
  EXPECT_TRUE(ckpt.TryReuseDump(2, stem, checksum));
  uint32_t crc1 = 0;
  uint32_t crc2 = 0;
  EXPECT_TRUE(ValidateDumpFile(ckpt.FileFor(1, stem), &crc1, nullptr));
  EXPECT_TRUE(ValidateDumpFile(ckpt.FileFor(2, stem), &crc2, nullptr));
  EXPECT_EQ(crc1, crc2);

  // Round 3, mutated table: the checksum diverges and reuse refuses.
  table.Insert(MakeRow(1000));
  ckpt.BeginRound(3);
  EXPECT_FALSE(
      ckpt.TryReuseDump(3, stem, std::to_string(table.content_hash())));
  std::filesystem::remove_all(dir);
}

TEST(PagedDifferential, BitIdenticalToUnboundedUnderTinyBudget) {
  // The same statement stream through (a) an unbounded pool that never
  // evicts and (b) a budget far below the data size, where nearly every
  // page access faults, must agree bit-for-bit — values, row order, and
  // the maintained checksum.
  Database unbounded("unb", EngineProfile::Canonical());
  Database paged("pag", EngineProfile::Canonical());
  paged.set_buffer_pool_bytes(96 << 10);  // a couple of pages of budget
  Executor unb_exec(unbounded);
  Executor pag_exec(paged);

  const auto run_both = [&](const std::string& sql) {
    const ResultSet a = unb_exec.ExecuteSql(sql);
    const ResultSet b = pag_exec.ExecuteSql(sql);
    ASSERT_EQ(a.rows.size(), b.rows.size()) << sql;
    for (size_t r = 0; r < a.rows.size(); ++r) {
      ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << sql;
      for (size_t c = 0; c < a.rows[r].size(); ++c) {
        EXPECT_EQ(a.rows[r][c].ToString(), b.rows[r][c].ToString())
            << sql << " row " << r << " col " << c;
      }
    }
  };

  run_both(
      "CREATE TABLE s (id BIGINT PRIMARY KEY, rank DOUBLE PRECISION, "
      "tag TEXT)");
  run_both("CREATE TABLE e (src BIGINT, dst BIGINT, w DOUBLE PRECISION)");
  run_both("CREATE INDEX e_dst ON e (dst)");
  for (int i = 0; i < 3000; ++i) {
    const std::string rank =
        i % 13 == 0 ? "NULL" : std::to_string(i) + ".125";
    const std::string tag =
        i % 9 == 0 ? "NULL" : "'tag" + std::to_string(i % 5) + "'";
    run_both("INSERT INTO s VALUES (" + std::to_string(i) + ", " + rank +
             ", " + tag + ")");
    run_both("INSERT INTO e VALUES (" + std::to_string(i % 97) + ", " +
             std::to_string((i * 3) % 89) + ", " + std::to_string(i) +
             ".25)");
  }
  EXPECT_GT(paged.buffer_pool().stats().pages_evicted, 0u)
      << "the tiny budget must actually force spills";
  EXPECT_EQ(unbounded.buffer_pool().stats().pages_evicted, 0u);

  run_both("SELECT * FROM s WHERE rank > 100.0 ORDER BY id LIMIT 50");
  run_both("SELECT COUNT(*), SUM(rank), MIN(id), MAX(id) FROM s");
  run_both(
      "SELECT tag, COUNT(*) AS n, AVG(rank) FROM s GROUP BY tag "
      "ORDER BY tag");
  run_both(
      "SELECT s.id, e.src, e.w FROM s JOIN e ON s.id = e.dst "
      "WHERE s.rank IS NOT NULL ORDER BY s.id, e.src LIMIT 100");
  run_both("UPDATE s SET rank = rank * 2.0 WHERE id < 500");
  run_both("DELETE FROM e WHERE src = 13");
  run_both("SELECT COUNT(*) FROM e");
  run_both("SELECT DISTINCT tag FROM s ORDER BY tag");
  // The maintained checksums agree across pool budgets.
  run_both("CHECKSUM TABLE s");
  run_both("CHECKSUM TABLE e");
}

/// Order-preserving row dump (%.17g doubles — bit-faithful).
std::string Dump(const dbc::ResultSet& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& value : row) out += value.ToString() + "|";
    out += "\n";
  }
  return out;
}

/// Node -> rank of a `SELECT Node, Rank` result.
std::map<int64_t, double> Ranks(const dbc::ResultSet& result) {
  std::map<int64_t, double> ranks;
  for (const auto& row : result.rows) {
    ranks[row[0].as_int()] = row[1].NumericAsDouble();
  }
  return ranks;
}

TEST(PagedDifferential, PageRankAgreesUnderQuarterPoolInEveryMode) {
  // PageRank to convergence on the same graph twice: once under an
  // unbounded pool, once with a budget a quarter of the edges table, so
  // the round's joins fault pages in and out of the spill files.
  // Deterministic modes must be bit-identical; the async modes sum in
  // scheduling order, so they get the repo's 1e-9 tolerance.
  Server server;
  const std::string host = "storage_pagerank";
  dbc::DriverManager::RegisterHost(host, &server);
  auto unbounded_db = server.CreateDatabase("unb", EngineProfile::Postgres());
  auto bounded_db = server.CreateDatabase("bnd", EngineProfile::Postgres());
  const auto url = [&](const std::string& db) {
    return "minidb://" + host + "/" + db + "?latency_us=0";
  };
  auto unbounded = dbc::DriverManager::GetConnection(url("unb"));
  auto bounded = dbc::DriverManager::GetConnection(url("bnd"));

  const graph::Graph g = graph::MakeWebGraph(300, 4, 7);
  graph::LoadEdges(*unbounded, g);
  const int64_t table_bytes = unbounded_db->FindTable("edges")->tracked_bytes();
  // Set before LoadEdges creates the table: eviction participation is
  // latched at table creation.
  bounded_db->set_buffer_pool_bytes(table_bytes / 4);
  graph::LoadEdges(*bounded, g);
  ASSERT_GT(bounded_db->FindTable("edges")->page_count(), 1u);

  const std::string query = core::workloads::PageRankQuery(50);
  const std::pair<core::ExecutionMode, bool> modes[] = {
      {core::ExecutionMode::kSingleThread, true},
      {core::ExecutionMode::kSync, true},
      {core::ExecutionMode::kAsync, false},
      {core::ExecutionMode::kAsyncPriority, false},
  };
  for (const auto& [mode, deterministic] : modes) {
    core::SqloopOptions options;
    options.mode = mode;
    options.partitions = 8;
    options.threads = 3;
    if (mode == core::ExecutionMode::kAsyncPriority) {
      options.priority_query = core::workloads::PageRankPriorityQuery();
      options.priority_descending = true;
    }
    const auto expected = core::SqLoop(url("unb")).Execute(query, options);
    const auto actual = core::SqLoop(url("bnd")).Execute(query, options);
    const char* name = core::ExecutionModeName(mode);
    if (deterministic) {
      EXPECT_EQ(Dump(expected), Dump(actual)) << name;
      continue;
    }
    const auto want = Ranks(expected);
    const auto got = Ranks(actual);
    ASSERT_EQ(want.size(), got.size()) << name;
    for (const auto& [node, rank] : want) {
      ASSERT_TRUE(got.contains(node)) << name << " node " << node;
      EXPECT_NEAR(got.at(node), rank, 1e-9) << name << " node " << node;
    }
  }

  EXPECT_EQ(unbounded->ExecuteQuery("CHECKSUM TABLE edges").rows[0][1].as_text(),
            bounded->ExecuteQuery("CHECKSUM TABLE edges").rows[0][1].as_text());
  const BufferPool::Stats stats = bounded_db->buffer_pool().stats();
  EXPECT_GT(stats.pages_evicted, 0u);
  EXPECT_GT(stats.bytes_spilled, 0u);
  EXPECT_EQ(unbounded_db->buffer_pool().stats().pages_evicted, 0u);
  dbc::DriverManager::RegisterHost(host, nullptr);
}

TEST(BufferPool, ReaderWriterEvictorRace) {
  // tsan target (`ctest -L storage` runs under the tsan preset): readers
  // scanning under shared table locks with pin scopes, a writer mutating
  // under the exclusive lock, and an evictor hammering TryReclaim with no
  // table lock at all. The pin protocol is the only thing keeping the
  // evictor's serialization away from rows being read or written.
  PagedFixture fx(kLooseBudget, "race");
  const int64_t kSeedRows = 2 * kRowsPerPage;
  fx.InsertRows(kSeedRows);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_sum{0};
  // Turnstile: the writer holds it while it waits for the exclusive lock,
  // and each reader passes through it before every scan. Without it the
  // two readers' back-to-back shared locks starve the writer (under TSan
  // the 400 writes took minutes).
  std::mutex turnstile;

  std::thread writer([&] {
    int64_t next_id = kSeedRows;
    for (int iter = 0; iter < 400; ++iter) {
      std::unique_lock lock(fx.table->lock(), std::defer_lock);
      {
        const std::lock_guard turn(turnstile);
        lock.lock();
      }
      PinScope scope;
      fx.table->Insert(MakeRow(next_id));
      Row updated = MakeRow(next_id % kSeedRows);
      updated[1] = Value(static_cast<double>(iter));
      fx.table->Update(static_cast<size_t>(next_id % kSeedRows),
                       std::move(updated));
      ++next_id;
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t sum = 0;
      // do/while: on a single-core box the writer can finish before the
      // readers are scheduled at all; every reader still owes one full
      // scan so the assertion below has teeth.
      do {
        { const std::lock_guard turn(turnstile); }  // a waiting writer first
        const std::shared_lock lock(fx.table->lock());
        PinScope scope;
        PinScope::Window window;
        for (size_t id = 0; id < fx.table->slot_count(); ++id) {
          if ((id & kPageRowMask) == 0) window.Reset();
          if (!fx.table->IsLive(id)) continue;
          sum += static_cast<uint64_t>(fx.table->At(id)[0].as_int());
        }
      } while (!stop.load(std::memory_order_acquire));
      read_sum.fetch_add(sum, std::memory_order_relaxed);
    });
  }

  std::thread evictor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fx.pool->TryReclaim(1 << 16);
      std::this_thread::yield();
    }
  });

  writer.join();
  for (std::thread& t : readers) t.join();
  evictor.join();

  EXPECT_GT(read_sum.load(), 0u);
  const std::shared_lock lock(fx.table->lock());
  EXPECT_TRUE(fx.table->VerifyContent());
}

}  // namespace
}  // namespace sqloop::minidb

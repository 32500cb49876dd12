// Concurrency behaviour: minidb must survive many connections hammering it
// at once — that is exactly how SQLoop drives it (one connection per
// worker thread, paper §V-B).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "minidb/database.h"
#include "minidb/executor.h"
#include "minidb/server.h"

namespace sqloop::minidb {
namespace {

TEST(Concurrency, ParallelInsertsToDistinctTables) {
  Database db("c", EngineProfile::Canonical());
  Executor exec(db);
  constexpr int kTables = 8;
  constexpr int kRows = 200;
  for (int t = 0; t < kTables; ++t) {
    exec.ExecuteSql("CREATE TABLE part" + std::to_string(t) +
                    " (id BIGINT PRIMARY KEY, v DOUBLE)");
  }
  std::vector<std::jthread> workers;
  for (int t = 0; t < kTables; ++t) {
    workers.emplace_back([&db, t] {
      Executor worker_exec(db);
      for (int i = 0; i < kRows; ++i) {
        worker_exec.ExecuteSql("INSERT INTO part" + std::to_string(t) +
                               " VALUES (" + std::to_string(i) + ", 1.0)");
      }
    });
  }
  workers.clear();  // join
  for (int t = 0; t < kTables; ++t) {
    const auto result = exec.ExecuteSql("SELECT COUNT(*) FROM part" +
                                        std::to_string(t));
    EXPECT_EQ(result.rows[0][0].as_int(), kRows);
  }
}

TEST(Concurrency, ParallelReadersWithOneWriterOnSameTable) {
  Database db("c", EngineProfile::Canonical());
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE shared (id BIGINT PRIMARY KEY, v BIGINT)");
  for (int i = 0; i < 100; ++i) {
    exec.ExecuteSql("INSERT INTO shared VALUES (" + std::to_string(i) +
                    ", " + std::to_string(i) + ")");
  }
  std::atomic<int> reads{0};
  std::vector<std::jthread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &reads] {
      Executor reader(db);
      for (int i = 0; i < 50; ++i) {
        const auto result = reader.ExecuteSql("SELECT COUNT(*) FROM shared");
        EXPECT_EQ(result.rows[0][0].as_int(), 100);  // writer keeps count
        reads.fetch_add(1);
      }
    });
  }
  {
    Executor writer(db);
    for (int i = 0; i < 200; ++i) {
      writer.ExecuteSql("UPDATE shared SET v = v + 1 WHERE id = " +
                        std::to_string(i % 100));
    }
  }
  readers.clear();
  EXPECT_EQ(reads.load(), 200);
  const auto total = exec.ExecuteSql("SELECT SUM(v) FROM shared");
  // Initial sum 4950 plus 200 increments.
  EXPECT_EQ(total.rows[0][0].as_int(), 4950 + 200);
}

TEST(Concurrency, CrossTableUpdatesDoNotDeadlock) {
  // Two writers updating (a from b) and (b from a) concurrently — the
  // sorted lock acquisition must prevent deadlock. The modulus keeps the
  // mutually feeding values inside BIGINT.
  Database db("c", EngineProfile::Canonical());
  Executor exec(db);
  exec.ExecuteSql("CREATE TABLE a (id BIGINT PRIMARY KEY, v BIGINT)");
  exec.ExecuteSql("CREATE TABLE b (id BIGINT PRIMARY KEY, v BIGINT)");
  exec.ExecuteSql("INSERT INTO a VALUES (1, 0)");
  exec.ExecuteSql("INSERT INTO b VALUES (1, 0)");
  std::vector<std::jthread> workers;
  workers.emplace_back([&db] {
    Executor w(db);
    for (int i = 0; i < 200; ++i) {
      w.ExecuteSql("UPDATE a SET v = (a.v + s.v + 1) % 1000003 FROM b AS s "
                   "WHERE a.id = s.id");
    }
  });
  workers.emplace_back([&db] {
    Executor w(db);
    for (int i = 0; i < 200; ++i) {
      w.ExecuteSql("UPDATE b SET v = (b.v + s.v + 1) % 1000003 FROM a AS s "
                   "WHERE b.id = s.id");
    }
  });
  workers.clear();  // join — hanging here would mean deadlock
  SUCCEED();
}

TEST(Server, RegistryRoundTrip) {
  Server server;
  auto pg = server.CreateDatabase("db_pg", EngineProfile::Postgres());
  auto my = server.CreateDatabase("db_my", EngineProfile::MySql());
  EXPECT_THROW(server.CreateDatabase("db_pg", EngineProfile::Postgres()),
               UsageError);
  EXPECT_EQ(server.FindDatabase("DB_PG"), pg);  // case-insensitive
  EXPECT_EQ(server.FindDatabase("nope"), nullptr);
  EXPECT_EQ(server.DatabaseNames().size(), 2u);
  EXPECT_TRUE(server.DropDatabase("db_my"));
  EXPECT_FALSE(server.DropDatabase("db_my"));
}

TEST(Server, ConcurrentDatabaseUseThroughRegistry) {
  Server server;
  auto db = server.CreateDatabase("shared_reg", EngineProfile::Postgres());
  Executor setup(*db);
  setup.ExecuteSql("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  std::vector<std::jthread> workers;
  std::atomic<int> next{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&server, &next] {
      auto handle = server.FindDatabase("shared_reg");
      Executor exec(*handle);
      for (int i = 0; i < 50; ++i) {
        exec.ExecuteSql("INSERT INTO t VALUES (" +
                        std::to_string(next.fetch_add(1)) + ")");
      }
    });
  }
  workers.clear();
  EXPECT_EQ(setup.ExecuteSql("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            200);
}

}  // namespace
}  // namespace sqloop::minidb

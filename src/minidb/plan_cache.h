// Per-database plan cache: the compile-once half of the prepared-execution
// path (paper §V — an iterative query re-executes the same small statement
// set every round, so parse/bind cost must not scale with rounds × tasks).
//
// A cache entry is keyed by (engine profile, normalized SQL text) and holds
// two layers with different lifetimes:
//   * the parsed AST — a pure function of the text, shared immutably and
//     never invalidated;
//   * the bound lock plan (base tables to lock, views expanded) and the
//     bound access plan (per-core scan/index-probe choice) — valid only
//     for the catalog version they were computed under. Any DDL (including
//     index DDL) bumps Database::catalog_version(), and the next lookup
//     re-binds both from the cached AST without re-parsing.
// Name resolution still happens at execution time against the live
// catalog, and the executor re-validates a cached access path before
// probing, so a cached plan can never read a dropped index — the version
// check exists to keep the precomputed lock set, view expansion, and
// index choice honest.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/ast.h"

namespace sqloop::minidb {

/// The precomputed "physical" part of a plan: every base table the
/// statement locks up front, as (folded name, needs exclusive lock).
/// Table pointers are re-resolved at acquisition time, so a drop/recreate
/// of a listed table is safe. Statement kinds that lock inside their own
/// execution path (DDL, TRUNCATE, transactions) have an empty entry list.
struct LockPlan {
  std::vector<std::pair<std::string, bool>> entries;
};

/// Bind-time access-path choice for one SELECT core. Only the common
/// SQLoop shape — FROM one base table (no CTE/view shadowing it) — is
/// cached; everything else re-analyzes at execution time, which is cheap.
/// The probe is identified by its *ordinal* into the WHERE clause's
/// top-level AND-conjunct list (SplitConjuncts order is deterministic), not
/// by expression pointer: prepared statements execute a cloned bound AST,
/// so pointers into the cached AST would dangle semantically. The executor
/// re-validates the ordinal's shape against the live catalog before use, so
/// a stale path degrades to a fresh analysis, never to a wrong result.
struct CoreAccessPath {
  bool single_base = false;   // FROM is exactly one base table
  std::string table;          // folded base-table name
  int probe_conjunct = -1;    // conjunct ordinal usable as index probe; -1 =
                              // full scan
  std::string probe_column;   // folded column the probe narrows on

  // --- batched access-path hints (vectorized pipeline) -------------------
  // Bind-time kernel analysis for the batch data plane: kernel_conjuncts[i]
  // records whether WHERE conjunct ordinal i compiled into a total
  // predicate kernel against the schema seen at bind time (see
  // minidb/batch.h). Hints only: the executor re-compiles flagged conjuncts
  // against the live catalog and treats any mismatch (DDL changed the
  // schema, conjunct list diverged) as "analyze fresh" — a stale hint can
  // cost a scalar fallback, never a wrong result.
  bool batch_analyzed = false;
  std::vector<uint8_t> kernel_conjuncts;
};

/// Access paths for every top-level SELECT core of a statement, each vector
/// aligned by core ordinal with the corresponding SelectStmt::cores.
struct AccessPlan {
  std::vector<CoreAccessPath> select_cores;  // kSelect
  std::vector<CoreAccessPath> seed_cores;    // kWith seed / plain CTE body
  std::vector<CoreAccessPath> step_cores;    // recursive member
  std::vector<CoreAccessPath> final_cores;   // final query
  std::vector<CoreAccessPath> insert_cores;  // INSERT ... SELECT source
};

/// One compiled statement: immutable AST plus the lock plan and access
/// plan bound under `bound_version`. Shared between the cache and any
/// prepared statements holding the handle — eviction never invalidates
/// outstanding handles.
struct CachedPlan {
  std::shared_ptr<const sql::Statement> ast;
  std::shared_ptr<const LockPlan> locks;
  std::shared_ptr<const AccessPlan> access;
  uint64_t bound_version = 0;
  int param_count = 0;  // number of `?` placeholders in the statement
};

/// Canonical cache-key spelling of a statement: whitespace runs collapsed
/// (outside quoted regions), trailing semicolons stripped.
std::string NormalizeSqlKey(std::string_view sql);

/// Thread-safe LRU cache of CachedPlan entries. One instance per Database;
/// capacity-capped so a stream of distinct statement texts (ad-hoc
/// statements with inlined literals) cannot grow it without bound.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry for `key` (touching it as most-recently-used) or
  /// nullptr. Counts a hit or a miss.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key);

  /// Inserts or replaces the entry for `key`, evicting the least recently
  /// used entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  void Clear();

  /// A disabled cache makes Lookup always miss and Put a no-op — the
  /// `--no-plan-cache` ablation path (every statement re-parses).
  void set_enabled(bool enabled) noexcept { enabled_.store(enabled); }
  bool enabled() const noexcept { return enabled_.load(); }

  /// Counts a bind-layer refresh after a catalog change (the parse was
  /// reused; only the lock plan was recomputed).
  void NoteRebind() noexcept { rebinds_.fetch_add(1, std::memory_order_relaxed); }

  /// Counts a hit served from an executor's connection-local plan map
  /// (same semantic event as a Lookup hit, but the shared map was never
  /// touched — see Executor::Prepare).
  void NoteLocalHit() noexcept { hits_.fetch_add(1, std::memory_order_relaxed); }

  // --- observability ----------------------------------------------------
  // Counters are atomics so hot-path notes (local hits, rebinds) never
  // contend on the map mutex.
  uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  uint64_t rebinds() const noexcept { return rebinds_.load(std::memory_order_relaxed); }
  uint64_t evictions() const noexcept { return evictions_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const noexcept { return capacity_; }

 private:
  using LruList = std::list<std::string>;

  struct Slot {
    std::shared_ptr<const CachedPlan> plan;
    LruList::iterator lru_position;
  };

  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> entries_;
  LruList lru_;  // front = most recently used
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> rebinds_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sqloop::minidb

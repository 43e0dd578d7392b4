// The engine's plan cache: one thread-safe store of lowered plans,
// shareable between engines, sessions and threads.
//
// Set it through EngineOptions::plan_cache (WithPlanCache(entries,
// bytes) builds one; WithSharedCaches wires one instance into several
// engines). Engine::Run, Engine::Prepare and Engine::Run(PreparedQuery)
// all resolve plans through Acquire / Insert. Resident entries are
// immutable (SharedPlanPtr): a version-vector mismatch revalidates a
// private *copy* (RevalidateCachedPlan) and publishes the copy, so
// readers still executing the old plan keep it alive and unchanged.
// Concurrent revalidations of one key at one version cost a duplicated
// re-cost, never correctness. A reader on an older snapshot than the
// resident entry's revalidates its copy privately and leaves the entry
// to the current readers (engine/striped_lru.h).
//
// Keys add an EngineOptions fingerprint to (expression structure,
// database id): the cache outlives any one engine, so engines configured
// with different rewrite/algorithm/execution options never exchange
// plans. Storage, striping and the LRU + byte budgets are the shared
// StripedLru's.
#ifndef SETALG_ENGINE_SHARED_CACHE_H_
#define SETALG_ENGINE_SHARED_CACHE_H_

#include <atomic>
#include <cstdint>

#include "core/database.h"
#include "engine/plan_cache.h"
#include "engine/planner.h"
#include "engine/striped_lru.h"
#include "ra/expr.h"
#include "stats/stats.h"

namespace setalg::engine {

class SharedPlanCache {
 public:
  /// Aggregated observable behavior (summed over stripes).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t revalidations = 0;  // Includes repicks.
    std::size_t repicks = 0;
    std::size_t evictions = 0;
  };

  /// What Acquire resolved: `entry` is null for a miss (the caller lowers
  /// and Inserts); otherwise a plan ready to run, with `outcome` saying
  /// whether it ran untouched (kHit) or was revalidated/repicked against
  /// the view's current versions (always on a private copy — the entry
  /// returned is the copy, already published unless the resident entry
  /// is newer than the view).
  struct Acquired {
    SharedPlanPtr entry;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  /// `max_entries` >= 1 (whole-cache budget, split evenly over stripes);
  /// `max_bytes` 0 = unbounded bytes.
  SharedPlanCache(std::size_t max_entries, std::size_t max_bytes)
      : store_(max_entries, max_bytes) {}

  /// Looks up (expr, db.id(), options fingerprint) and ensures the
  /// returned plan is costed against `db`'s current version vector.
  /// `stats` supplies statistics for revalidation (pass the provider the
  /// plan would be lowered with; must be safe for this thread). Thread-
  /// safe; never blocks on another stripe.
  Acquired Acquire(const ra::ExprPtr& expr, const core::DatabaseView& db,
                   const stats::StatsProvider* stats,
                   const EngineOptions& options) const;

  /// Publishes a lowered (or handle-revalidated) entry, unless the
  /// resident entry under its key is newer. Returns `entry`, the plan the
  /// caller should run.
  SharedPlanPtr Insert(SharedPlanPtr entry, const EngineOptions& options) const;

  /// Drops every entry (plans being executed or held by prepared handles
  /// stay alive via shared_ptr).
  void Clear() const { store_.Clear(); }

  std::size_t size() const { return store_.size(); }
  std::size_t bytes() const { return store_.bytes(); }
  std::size_t max_entries() const { return store_.max_entries(); }
  std::size_t max_bytes() const { return store_.max_bytes(); }
  Stats stats() const;

  /// Stripe count (a power of two, fixed by capacity at construction).
  std::size_t stripes() const { return store_.stripes(); }

 private:
  StripedLru<CachedPlan> store_;
  // Known only after revalidation, outside the stripe lock.
  mutable std::atomic<std::size_t> repicks_{0};
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_SHARED_CACHE_H_

// Cached plans: lowered physical plans that stay correct — and stay
// cheap — while the database changes underneath them.
//
// Planning (lowering, pattern routing, cost-based algorithm choice,
// partition pricing) is a per-call cost of every Engine::Run. At serving
// traffic the same handful of query shapes arrive over and over while the
// data slowly mutates, so the engine caches the lowered plan
// (engine/shared_cache.h) and re-costs it with the invalidation signal
// the statistics cache already relies on (core::DatabaseView::
// relation_version()):
//
//   - Each CachedPlan snapshots the per-relation version vector its
//     costs were computed against. A matching vector is a *hit*: the plan
//     runs untouched.
//   - A moved vector is *revalidated*: the recorded choice points
//     (PhysicalPlan::choice_points) are re-priced from fresh statistics —
//     never re-lowered — and when a decision flips (e.g. hash-division →
//     sort-merge after a bulk load) the operator is swapped by rebuilding
//     only the spine above it (PhysicalOp::WithChildren); the run reports
//     *repicked*.
//   - Entries are immutable once built (SharedPlanPtr): revalidation
//     works on a private copy, so readers still executing the old plan —
//     on another thread, or through a PreparedQuery — are never raced.
//
// Whatever the outcome, results and per-operator PlanStats are
// bit-identical to a fresh un-cached run — the cache-differential harness
// in tests/plan_cache_test.cc interleaves randomized mutations with
// cached executions to enforce exactly that.
#ifndef SETALG_ENGINE_PLAN_CACHE_H_
#define SETALG_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <memory>

#include "core/database.h"
#include "engine/planner.h"
#include "ra/expr.h"
#include "stats/stats.h"

namespace setalg::engine {

/// One cached lowered plan: the canonical key (structural expression,
/// its hash, the owning database's id), the plan itself, and the
/// per-relation version vector the plan's costs were computed against.
struct CachedPlan {
  /// The canonical key expression (the first structurally-equal tree the
  /// cache saw). Null for entries prepared from hand-built plans.
  ra::ExprPtr expr;
  std::uint64_t expr_hash = 0;
  std::uint64_t db_id = 0;
  /// Versions of every relation the plan reads, as of the last
  /// lowering/revalidation.
  stats::VersionVector versions;
  PhysicalPlan plan;
  /// Approximate resident footprint (operators, key expression, estimate
  /// tables) charged against the cache's byte budget.
  std::size_t approx_bytes = 0;
};

/// A plan being built (before anyone else can see it).
using CachedPlanPtr = std::shared_ptr<CachedPlan>;
/// A published plan: shared by the cache, prepared handles and runs in
/// flight, and therefore never modified.
using SharedPlanPtr = std::shared_ptr<const CachedPlan>;

/// Builds a cache entry (detached — not registered anywhere) for `plan`
/// as lowered for `db`. `expr` may be null for hand-built plans; the
/// version vector then comes from the plan's scans.
CachedPlanPtr MakeCachedPlan(ra::ExprPtr expr, const core::DatabaseView& db,
                             PhysicalPlan plan);

/// Approximate bytes held live by `entry` (deterministic, so cache-budget
/// eviction behavior is reproducible across runs).
std::size_t ApproxPlanBytes(const CachedPlan& entry);

/// Re-prices `*entry`'s plan against `db`'s current statistics. Returns
///   kHit         — version vector unchanged; `*entry` is untouched;
///   kRevalidated — versions moved; `*entry` now points to a private copy
///                  whose estimates and recorded choices were refreshed
///                  from fresh statistics, every algorithm decision held;
///   kRepicked    — versions moved and >= 1 decision flipped; the copy's
///                  affected operators were swapped (only the spine above
///                  each rebuilt — the expression is never re-lowered)
///                  and its choice/rewrite notes updated.
/// The original entry is never modified. `options` must be the options
/// the plan was lowered under (the cache key's options fingerprint
/// guarantees this), and `db` must be the instance the entry is keyed on
/// (same id).
CacheOutcome RevalidateCachedPlan(SharedPlanPtr* entry, const core::DatabaseView& db,
                                  const stats::StatsProvider* stats,
                                  const EngineOptions& options);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PLAN_CACHE_H_

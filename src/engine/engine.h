// The unified query engine: the one public entry point for evaluating
// algebra expressions (and hand-built physical plans) over a database.
//
//   engine::Engine engine;                       // pattern-aware planner
//   auto result = engine.Run(expr, db);          // util::Result<RunResult>
//   if (result.ok()) use(result->relation, result->stats);
//
// Engine::Run subsumes the legacy ra::Eval / ra::MaxIntermediateSize
// tree-walker: those are now thin wrappers over the engine's reference
// lowering (EngineOptions::Reference()), which reproduces the legacy
// semantics and per-node statistics exactly. Reference is a plan choice,
// not a separate executor: every policy runs on the one pipelined batch
// executor (engine.cc), which records each operator's materialized
// cardinality without materializing it. The default options enable the
// planner rewrites — most notably routing the classic division pattern to
// a sub-quadratic operator, so the same logical expression runs with O(n)
// instead of Ω(n²) intermediates (Prop. 26 vs. Section 5) — and, since
// every Run/Prepare plans with statistics, pick each call site's algorithm
// and fan-out from the cost model.
#ifndef SETALG_ENGINE_ENGINE_H_
#define SETALG_ENGINE_ENGINE_H_

#include <memory>
#include <string>

#include "core/database.h"
#include "core/relation.h"
#include "engine/physical.h"
#include "engine/planner.h"
#include "engine/shared_cache.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "stats/stats.h"
#include "util/result.h"

namespace setalg::engine {

/// The outcome of one engine run.
struct RunResult {
  core::Relation relation{0};
  PlanStats stats;
};

/// A prepared statement: a handle owning one lowered physical plan, its
/// canonical cache key (structural expression hash), and the per-relation
/// version vector it was last costed against. Obtained from
/// Engine::Prepare and executed with Engine::Run(prepared, db); cheap to
/// copy (shared ownership of the underlying entry). The handle keeps its
/// plan alive across cache eviction and Engine::ClearPlanCache — and
/// stays correct across database mutation: every execution revalidates
/// the version vector first and re-costs (never re-lowers) on mismatch.
/// Handles are session-scoped: each execution repoints the handle to the
/// plan it ran (the cache's entry, or a revalidated copy), so one handle
/// must not be run from two threads at once.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return entry_ != nullptr; }

  /// The canonical key expression (null for handles prepared from
  /// hand-built plans, which have no logical form).
  const ra::ExprPtr& expr() const { return entry().expr; }

  /// Structural hash of the key expression (0 for hand-built plans).
  std::uint64_t key() const { return entry().expr_hash; }

  /// Id of the database instance the handle was prepared against.
  std::uint64_t database_id() const { return entry().db_id; }

  /// The version vector the plan was last costed against (advances when
  /// an execution revalidates).
  const stats::VersionVector& versions() const { return entry().versions; }

  const PhysicalPlan& plan() const { return entry().plan; }

  /// Approximate resident footprint of the plan (what the cache's byte
  /// budget charges for it).
  std::size_t approx_bytes() const { return entry().approx_bytes; }

 private:
  friend class Engine;
  explicit PreparedQuery(SharedPlanPtr entry) : entry_(std::move(entry)) {}

  /// Every accessor funnels through here so an empty (default-constructed
  /// or moved-from) handle fails the valid() check loudly instead of
  /// dereferencing null.
  const CachedPlan& entry() const {
    SETALG_CHECK_STREAM(entry_ != nullptr)
        << "PreparedQuery is empty (default-constructed or moved-from); "
           "check valid() first";
    return *entry_;
  }

  /// Repointed by Engine::Run(prepared, db) to the plan that ran.
  mutable SharedPlanPtr entry_;
};

/// Every entry point takes a core::DatabaseView — a live core::Database
/// or an immutable txn::Snapshot — so the same engine serves one-shot
/// evaluation and MVCC snapshot serving.
///
/// Thread-safety: an Engine is safe for concurrent Run(expr, view) calls
/// iff every view passed is its own thread-safe statistics provider
/// (txn::Snapshot is; a live Database routes through the engine's
/// memoized, single-threaded stats::DatabaseStats). The plan and result
/// caches (EngineOptions::plan_cache / result_cache) are striped and
/// locked, and shareable across engines and threads. Prepared handles
/// remain session-scoped (single-threaded). The worker-pool parallelism
/// of EngineOptions::threads lives *inside* a run and is unaffected by
/// any of this.
class Engine {
 public:
  /// An engine with the default (rewrite-enabled, statistics-priced)
  /// options.
  Engine() = default;
  explicit Engine(EngineOptions options) : options_(std::move(options)) {}

  const EngineOptions& options() const { return options_; }

  /// Plans and executes `expr` on `db`. Schema mismatches and budget
  /// violations come back as Result errors, never aborts. With
  /// EngineOptions::plan_cache set the lowered plan is cached
  /// transparently, keyed on the expression's structure and db.id():
  /// repeated runs of the same shape skip lowering entirely (hit) or
  /// re-cost the cached plan from fresh statistics after a mutation
  /// (revalidated/repicked) — PlanStats::cache reports which. Results
  /// and row counts are identical either way.
  util::Result<RunResult> Run(const ra::ExprPtr& expr, const core::DatabaseView& db) const;

  /// Prepares `expr` against `db`: lowers it once (statistics-annotated)
  /// and returns a handle that owns the plan, its structural cache key,
  /// and the version vector it was costed against. When the plan cache
  /// is enabled the entry is shared with it (a later Run(expr, db) of a
  /// structurally equal expression hits the same entry); otherwise the
  /// handle is detached and self-contained.
  util::Result<PreparedQuery> Prepare(const ra::ExprPtr& expr,
                                      const core::DatabaseView& db) const;

  /// Prepares a hand-assembled physical plan (e.g. a set-join operator
  /// tree, which has no logical form). The version vector covers every
  /// relation the plan scans; revalidation refreshes cost annotations
  /// but has no recorded choice points to re-pick.
  util::Result<PreparedQuery> Prepare(PhysicalPlan plan,
                                      const core::DatabaseView& db) const;

  /// Executes a prepared statement: resolves the plan as Run(expr, db)
  /// does, with the handle's own plan standing in for a lowering when the
  /// cache no longer holds the entry. Either way the plan is revalidated
  /// against `db` (hit → run as-is; mismatch → re-cost a copy, swapping
  /// the operators whose decision flips) and the handle is repointed to
  /// the plan that ran. Handed a database other than the one the handle was
  /// prepared against (by id), falls back to the transparent Run(expr,
  /// db) path — plans never leak across database identities. Results are
  /// always identical to a fresh un-cached Run.
  util::Result<RunResult> Run(const PreparedQuery& prepared,
                              const core::DatabaseView& db) const;

  /// The plan cache (options().plan_cache), or nullptr when disabled.
  const SharedPlanCache* plan_cache() const { return options_.plan_cache.get(); }

  /// Drops every cached plan (prepared handles keep theirs and stay
  /// runnable; the next Run re-lowers and re-inserts).
  void ClearPlanCache() const;

  /// Lowers without executing. Without a database there are no statistics:
  /// the plan carries no cost estimates and no priced decisions; the
  /// fixed fallback applies (hash division, the fast semijoin kernel,
  /// pool-width fan-out). Reference() plans come out the same either way.
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::Schema& schema) const;

  /// Statistics-aware lowering: the plan is annotated with cost estimates
  /// and, unless the options are Reference(), every decision is priced
  /// from `db`'s relation stats.
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::DatabaseView& db) const;

  /// The plan rendered as text (operator tree + rewrite notes).
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::Schema& schema) const;

  /// Statistics-aware Explain: additionally shows the priced choices.
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::DatabaseView& db) const;

  /// Executes a plan built by Plan() or assembled by hand from the
  /// physical.h factories (e.g. a set-containment join operator, which has
  /// no succinct logical form). One spelling per intent: Run(expr, db)
  /// plans and executes, Run(prepared, db) serves a handle, Run(plan, db)
  /// executes what you already lowered — all funnel into one RunImpl.
  util::Result<RunResult> Run(const PhysicalPlan& plan,
                              const core::DatabaseView& db) const;

 private:
  /// The single execution tail every Run overload lands on: builds the
  /// worker pool, picks the executor, copies plan-level annotations
  /// (rewrites, choices, AGM bound) into the run's PlanStats.
  util::Result<RunResult> RunImpl(const PhysicalPlan& plan,
                                  const core::DatabaseView& db) const;

  /// The statistics provider for `db`. Views that are their own provider
  /// (txn::Snapshot) are returned directly — thread-safe, no engine
  /// state touched. Otherwise the memoized stats::DatabaseStats is
  /// rebuilt when a different database (by id) comes through;
  /// per-relation stats within it refresh via the mutation counters.
  const stats::StatsProvider* StatsFor(const core::DatabaseView& db) const;

  /// Run(expr, db) below the result cache, leaving PlanStats::cache set.
  /// `*pin` receives the root of the plan that ran (for result-cache
  /// provenance).
  util::Result<RunResult> RunWithPlanCache(const ra::ExprPtr& expr,
                                           const core::DatabaseView& db,
                                           PhysicalOpPtr* pin) const;

  /// The plan to run `expr` on, and how it was obtained: through the
  /// plan cache when one is configured (a hit, or a revalidated copy);
  /// otherwise `own` (a prepared handle's entry, revalidated by copy) or
  /// a fresh lowering (kMiss) — published to the cache on the way when
  /// `expr` is set.
  util::Result<SharedPlanCache::Acquired> AcquirePlan(const ra::ExprPtr& expr,
                                                      const core::DatabaseView& db,
                                                      SharedPlanPtr own) const;

  EngineOptions options_;
  mutable std::unique_ptr<stats::DatabaseStats> db_stats_;
  mutable std::uint64_t db_stats_id_ = 0;
};

/// Projects PlanStats onto the legacy ra::EvalStats view: operators that
/// carry a logical source become NodeStats entries. For a reference-mode
/// plan this is exactly the legacy instrumentation; for rewritten plans,
/// synthesized operators still count toward max/total but have no node
/// entry.
ra::EvalStats ToEvalStats(const PlanStats& stats);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_ENGINE_H_

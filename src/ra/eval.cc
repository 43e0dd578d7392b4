#include "ra/eval.h"

#include <utility>

#include "engine/engine.h"
#include "util/check.h"

namespace setalg::ra {

// Eval is a thin wrapper over the engine's reference lowering: a 1:1
// logical→physical mapping with every planner rewrite disabled, which
// reproduces the historical tree-walker exactly — same results, same
// per-node cardinalities (Definition 16), same join_rows_emitted. The
// pattern-aware planner lives behind engine::Engine with default options.
core::Relation Eval(const ExprPtr& expr, const core::Database& db, EvalStats* stats) {
  // Schema-only planning: the reference lowering prices nothing, so a
  // statistics pass would be wasted on this throwaway engine.
  const engine::Engine engine(engine::EngineOptions::Reference());
  auto plan = engine.Plan(expr, db.schema());
  SETALG_CHECK_STREAM(plan.ok()) << plan.error();
  auto result = engine.Run(*plan, db);
  SETALG_CHECK_STREAM(result.ok()) << result.error();
  if (stats != nullptr) *stats = engine::ToEvalStats(result->stats);
  return std::move(result->relation);
}

std::size_t MaxIntermediateSize(const ExprPtr& expr, const core::Database& db) {
  EvalStats stats;
  Eval(expr, db, &stats);
  return stats.max_intermediate;
}

}  // namespace setalg::ra

#include "engine/result_cache.h"

#include <memory>
#include <utility>

#include "util/check.h"

namespace setalg::engine {

std::size_t ResultCache::ApproxEntryBytes(const Entry& entry) {
  // Deterministic: the budget needs a reproducible charge, not malloc
  // truth. The stored relation's flat payload dominates by construction.
  std::size_t bytes = sizeof(Entry);
  bytes += entry.relation.flat().size() * sizeof(core::Value);
  bytes += entry.stats.ops.size() * (sizeof(OpStats) + 24);
  for (const auto& rewrite : entry.stats.rewrites) bytes += rewrite.size();
  for (const auto& choice : entry.stats.choices) {
    bytes += choice.site.size() + choice.algorithm.size();
  }
  for (const auto& [name, version] : entry.versions) {
    (void)version;
    bytes += sizeof(std::pair<std::string, std::uint64_t>) + name.size();
  }
  if (entry.expr != nullptr) bytes += entry.expr->NumNodes() * 64;
  return bytes;
}

std::optional<ResultCache::Hit> ResultCache::Lookup(
    const ra::ExprPtr& expr, const core::DatabaseView& db,
    std::uint64_t options_fp) const {
  SETALG_CHECK(expr != nullptr);
  const auto found = store_.Lookup({db.id(), options_fp, ra::StructuralHash(*expr), expr},
                                   db, /*drop_behind=*/true);
  if (found.entry == nullptr || found.order != stats::VersionOrder::kEqual) {
    return std::nullopt;
  }
  Hit hit;
  hit.relation = found.entry->relation;
  hit.stats = found.entry->stats;
  hit.stats.cache = CacheOutcome::kResultHit;
  return hit;
}

void ResultCache::Insert(const ra::ExprPtr& expr, std::uint64_t db_id,
                         std::uint64_t options_fp, stats::VersionVector versions,
                         const core::Relation& relation, const PlanStats& stats,
                         PhysicalOpPtr plan_root) const {
  SETALG_CHECK(expr != nullptr);
  auto entry = std::make_shared<Entry>();
  entry->versions = std::move(versions);
  entry->relation = relation;
  entry->stats = stats;
  entry->plan_root = std::move(plan_root);
  entry->expr = expr;
  entry->approx_bytes = ApproxEntryBytes(*entry);
  store_.Publish({db_id, options_fp, ra::StructuralHash(*expr), expr}, std::move(entry));
}

ResultCache::Stats ResultCache::stats() const {
  const CacheCounters c = store_.counters();
  return {c.hits, c.misses + c.behind + c.ahead, c.behind, c.publishes, c.evictions};
}

}  // namespace setalg::engine

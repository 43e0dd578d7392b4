#include "engine/shared_cache.h"

#include <utility>

#include "util/check.h"

namespace setalg::engine {

SharedPlanCache::Acquired SharedPlanCache::Acquire(
    const ra::ExprPtr& expr, const core::DatabaseView& db,
    const stats::StatsProvider* stats, const EngineOptions& options) const {
  SETALG_CHECK(expr != nullptr);
  CacheKey key{db.id(), OptionsFingerprint(options), ra::StructuralHash(*expr), expr};
  const auto found = store_.Lookup(key, db, /*drop_behind=*/false);
  if (found.entry == nullptr) return {nullptr, CacheOutcome::kMiss};
  if (found.order == stats::VersionOrder::kEqual) {
    return {found.entry, CacheOutcome::kHit};
  }
  SharedPlanPtr entry = found.entry;
  const CacheOutcome outcome = RevalidateCachedPlan(&entry, db, stats, options);
  if (outcome == CacheOutcome::kRepicked) ++repicks_;
  // An older snapshot's copy stays private: the resident entry is the
  // current readers' plan.
  if (found.order == stats::VersionOrder::kBehind) store_.Publish(std::move(key), entry);
  return {std::move(entry), outcome};
}

SharedPlanPtr SharedPlanCache::Insert(SharedPlanPtr entry,
                                      const EngineOptions& options) const {
  SETALG_CHECK(entry != nullptr);
  SETALG_CHECK(entry->expr != nullptr);
  store_.Publish({entry->db_id, OptionsFingerprint(options), entry->expr_hash, entry->expr},
                 entry);
  return entry;
}

SharedPlanCache::Stats SharedPlanCache::stats() const {
  const CacheCounters c = store_.counters();
  return {c.hits, c.misses, c.behind + c.ahead, repicks_.load(), c.evictions};
}

}  // namespace setalg::engine

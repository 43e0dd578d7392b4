// The one striped LRU store behind both engine caches: the plan cache
// (engine/shared_cache.h) and the result cache (engine/result_cache.h).
// Each cache keeps only its own policy on top — revalidate-by-copy for
// plans, replay-or-drop for results.
//
// Entries are immutable (`shared_ptr<const Entry>`) and keyed on
//
//   (database id, EngineOptions fingerprint, expression structure)
//
// — ra::StructuralHash / ra::ExprEqual, never pointers, so α-identical
// trees from different parses share an entry, two databases with
// colliding relation names never do, and engines whose options lower
// differently never exchange entries. Each entry carries the version
// vector of the relations it was computed against, and the store orders
// it against the caller's view on every lookup. Within one database id
// relation versions only grow, which gives both caches one freshness
// rule: an entry whose vector is ahead of the caller's (an older
// snapshot reading after a newer one) is never replaced or erased by
// that caller — the stale reader gets a private copy or a miss, and the
// current readers keep their entry.
//
// Locking is striped: the key hash picks a stripe (mutex, map, LRU list,
// byte total) holding an even slice of the entry and byte budgets. The
// stripe count follows capacity — one stripe per 32 entries, a power of
// two, at most 8 — so small caches keep one exact LRU and serving-size
// caches rarely contend. A lookup takes its stripe lock once.
//
// `Entry` must expose `stats::VersionVector versions` and
// `std::size_t approx_bytes` (the charge against the byte budget).
#ifndef SETALG_ENGINE_STRIPED_LRU_H_
#define SETALG_ENGINE_STRIPED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/database.h"
#include "ra/expr.h"
#include "stats/stats.h"
#include "util/check.h"
#include "util/hash.h"

namespace setalg::engine {

struct CacheKey {
  std::uint64_t db_id = 0;
  std::uint64_t options_fp = 0;
  /// ra::StructuralHash(*expr), computed once per operation instead of
  /// re-walking the tree inside every map probe.
  std::uint64_t hash = 0;
  ra::ExprPtr expr;

  struct Hash {
    std::size_t operator()(const CacheKey& key) const {
      return static_cast<std::size_t>(
          util::HashCombine(util::HashCombine(key.db_id, key.options_fp), key.hash));
    }
  };
  struct Equal {
    bool operator()(const CacheKey& a, const CacheKey& b) const {
      return a.db_id == b.db_id && a.options_fp == b.options_fp && a.hash == b.hash &&
             ra::ExprEqual{}(a.expr, b.expr);
    }
  };
};

/// What the store observed, summed over stripes. Each cache maps these
/// onto its own Stats.
struct CacheCounters {
  std::size_t hits = 0;       // Lookups that found an entry equal to the view.
  std::size_t misses = 0;     // Lookups that found nothing.
  std::size_t behind = 0;     // Lookups that found an entry the view moved past.
  std::size_t ahead = 0;      // Lookups that found an entry newer than the view.
  std::size_t publishes = 0;  // Entries stored.
  std::size_t evictions = 0;
};

template <typename Entry>
class StripedLru {
 public:
  using EntryPtr = std::shared_ptr<const Entry>;

  /// A lookup's entry (null when absent) and its order against the view.
  struct Found {
    EntryPtr entry;
    stats::VersionOrder order = stats::VersionOrder::kEqual;
  };

  /// `max_entries` >= 1 (whole-store budget, split evenly over stripes);
  /// `max_bytes` 0 = unbounded bytes.
  StripedLru(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(std::max<std::size_t>(1, max_entries)),
        max_bytes_(max_bytes),
        num_stripes_(StripeCount(max_entries_)),
        stripe_max_entries_((max_entries_ + num_stripes_ - 1) / num_stripes_),
        stripe_max_bytes_((max_bytes_ + num_stripes_ - 1) / num_stripes_),
        stripes_(std::make_unique<Stripe[]>(num_stripes_)) {}

  /// Finds `key`, refreshes it to most-recently-used and orders its
  /// versions against `db`, all under one stripe lock. With `drop_behind`
  /// an entry the view has moved past is erased on the spot (and still
  /// returned). The view's counters are frozen (txn::Snapshot) or owned
  /// by this thread (a live Database is single-threaded by contract).
  Found Lookup(const CacheKey& key, const core::DatabaseView& db,
               bool drop_behind) const {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
      ++stripe.counters.misses;
      return {};
    }
    Found found{it->second.entry, stats::CompareVersions(db, it->second.entry->versions)};
    switch (found.order) {
      case stats::VersionOrder::kEqual:
        ++stripe.counters.hits;
        break;
      case stats::VersionOrder::kAhead:
        ++stripe.counters.ahead;
        break;
      case stats::VersionOrder::kBehind:
        ++stripe.counters.behind;
        if (drop_behind) {
          stripe.bytes -= found.entry->approx_bytes;
          stripe.lru.erase(it->second.lru);
          stripe.map.erase(it);
          return found;
        }
        break;
    }
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru);
    return found;
  }

  /// Stores `entry` under `key` as most-recently-used, unless the resident
  /// entry's versions are ahead of it, then evicts least-recently-used
  /// entries past the stripe budgets. Returns whether `entry` was stored
  /// (it may be evicted at once; its holders keep it alive either way).
  bool Publish(CacheKey key, EntryPtr entry) const {
    SETALG_CHECK(entry != nullptr);
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      if (stats::VersionsAhead(it->second.entry->versions, entry->versions)) return false;
      stripe.bytes -= it->second.entry->approx_bytes;
      it->second.entry = std::move(entry);
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru);
      stripe.bytes += it->second.entry->approx_bytes;
    } else {
      stripe.lru.push_front(key);
      stripe.bytes += entry->approx_bytes;
      stripe.map.emplace(std::move(key), Node{std::move(entry), stripe.lru.begin()});
    }
    ++stripe.counters.publishes;
    while (stripe.map.size() > stripe_max_entries_ ||
           (stripe_max_bytes_ != 0 && stripe.bytes > stripe_max_bytes_)) {
      const auto victim = stripe.map.find(stripe.lru.back());
      SETALG_CHECK(victim != stripe.map.end());
      stripe.bytes -= victim->second.entry->approx_bytes;
      stripe.map.erase(victim);
      stripe.lru.pop_back();
      ++stripe.counters.evictions;
    }
    return true;
  }

  /// Drops every entry (holders keep theirs alive).
  void Clear() const {
    ForEachStripe([](Stripe& stripe) {
      stripe.map.clear();
      stripe.lru.clear();
      stripe.bytes = 0;
    });
  }

  std::size_t size() const {
    std::size_t total = 0;
    ForEachStripe([&total](Stripe& stripe) { total += stripe.map.size(); });
    return total;
  }

  std::size_t bytes() const {
    std::size_t total = 0;
    ForEachStripe([&total](Stripe& stripe) { total += stripe.bytes; });
    return total;
  }

  CacheCounters counters() const {
    CacheCounters total;
    ForEachStripe([&total](Stripe& stripe) {
      const CacheCounters& c = stripe.counters;
      total.hits += c.hits;
      total.misses += c.misses;
      total.behind += c.behind;
      total.ahead += c.ahead;
      total.publishes += c.publishes;
      total.evictions += c.evictions;
    });
    return total;
  }

  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_bytes() const { return max_bytes_; }
  std::size_t stripes() const { return num_stripes_; }

 private:
  struct Node {
    EntryPtr entry;
    typename std::list<CacheKey>::iterator lru;  // Position in the stripe's LRU.
  };
  struct Stripe {
    std::mutex mu;
    std::unordered_map<CacheKey, Node, CacheKey::Hash, CacheKey::Equal> map;
    std::list<CacheKey> lru;  // Front = hottest.
    std::size_t bytes = 0;
    CacheCounters counters;
  };

  // One stripe per 32 entries, a power of two, at most 8: caches below 64
  // entries keep one exact LRU; a 256-entry serving cache gets 8 locks.
  static std::size_t StripeCount(std::size_t max_entries) {
    std::size_t n = 1;
    while (n < 8 && n * 64 <= max_entries) n *= 2;
    return n;
  }

  Stripe& StripeFor(const CacheKey& key) const {
    return stripes_[CacheKey::Hash{}(key) & (num_stripes_ - 1)];
  }

  template <typename Fn>
  void ForEachStripe(Fn fn) const {
    for (std::size_t i = 0; i < num_stripes_; ++i) {
      std::lock_guard<std::mutex> lock(stripes_[i].mu);
      fn(stripes_[i]);
    }
  }

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t num_stripes_;
  std::size_t stripe_max_entries_;
  std::size_t stripe_max_bytes_;
  // A fixed array (stripes hold a mutex, so they never move); the store
  // is logically const to its users, the stripes are its mutable state.
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_STRIPED_LRU_H_

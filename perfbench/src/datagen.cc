#include "datagen.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "core/schema.h"

namespace setalg::perfbench {

using core::Relation;
using core::Value;

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::Below(std::uint64_t bound) { return Next() % bound; }

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + stream);
  rng.Next();
  return rng.Next();
}

ZipfSampler::ZipfSampler(std::size_t n, double skew) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(std::min<std::ptrdiff_t>(
             it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1)) +
         1;
}

namespace {

// `size` distinct elements (all of them if the domain is smaller), each
// drawn by `draw` (which returns values >= 1).
template <typename Draw>
std::vector<Value> DistinctSet(std::size_t size, std::size_t domain, Draw draw) {
  std::set<Value> out;
  const std::size_t want = std::min(size, domain);
  while (out.size() < want) out.insert(static_cast<Value>(draw()));
  return {out.begin(), out.end()};
}

std::vector<Value> UniformSet(Rng& rng, std::size_t size, std::size_t domain) {
  return DistinctSet(size, domain, [&] { return 1 + rng.Below(domain); });
}

void AddGroup(Relation* rel, Value key, const std::vector<Value>& elements) {
  for (const Value e : elements) rel->Add({key, e});
}

// Left groups of `left_size` and right groups of `right_size` elements,
// with `planted` of the right groups copied from a subset of a random
// left group so the containment join has matches at every seed.
template <typename Draw>
std::pair<Relation, Relation> ContainmentPair(Rng& rng, std::size_t groups,
                                              std::size_t left_size,
                                              std::size_t right_size,
                                              std::size_t domain, double planted,
                                              Draw draw) {
  Relation left(2), right(2);
  std::vector<std::vector<Value>> left_sets;
  left_sets.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    left_sets.push_back(DistinctSet(left_size, domain, draw));
    AddGroup(&left, static_cast<Value>(g + 1), left_sets.back());
  }
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<Value> set;
    if (rng.Unit() < planted) {
      std::vector<Value> source = left_sets[rng.Below(groups)];
      for (std::size_t i = 0; i + 1 < source.size(); ++i) {
        std::swap(source[i], source[i + rng.Below(source.size() - i)]);
      }
      source.resize(std::min(right_size, source.size()));
      set = std::move(source);
    } else {
      set = DistinctSet(right_size, domain, draw);
    }
    AddGroup(&right, static_cast<Value>(g + 1), set);
  }
  return {std::move(left), std::move(right)};
}

// A change to a binary relation: deletes `rows` seeded rows and inserts
// `rows` seeded ones from [1, key_domain] × [1, elem_domain]. The new
// relation is left as Add leaves it, not normalized.
std::function<void(Relation&)> ReplaceRows(std::size_t rows, std::size_t key_domain,
                                           std::size_t elem_domain,
                                           std::uint64_t seed) {
  return [rows, key_domain, elem_domain, seed](Relation& rel) {
    Rng r(seed);
    const std::size_t n = rel.size();
    std::vector<std::size_t> drop;
    for (std::size_t i = 0; i < rows && n > 0; ++i) drop.push_back(r.Below(n));
    std::sort(drop.begin(), drop.end());
    drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
    Relation next(2);
    next.Reserve(n + rows);
    const Value* flat = rel.flat().data();
    std::size_t from = 0;
    for (const std::size_t d : drop) {
      next.AddRows(flat + 2 * from, d - from);
      from = d + 1;
    }
    next.AddRows(flat + 2 * from, n - from);
    for (std::size_t i = 0; i < rows; ++i) {
      next.Add({static_cast<Value>(1 + r.Below(key_domain)),
                static_cast<Value>(1 + r.Below(elem_domain))});
    }
    rel = std::move(next);
  };
}

}  // namespace

core::Database MakeForallDatabase(const ForallShape& shape, std::uint64_t seed) {
  core::Schema schema;
  for (const char* name : {"D", "CL", "CR", "ZL", "ZR", "EL", "ER", "TR", "TS", "TT"}) {
    schema.AddRelation(name, 2);
  }
  schema.AddRelation("V", 1);
  core::Database db(schema);

  {
    Rng rng(SubSeed(seed, 1));
    const std::vector<Value> divisor =
        UniformSet(rng, shape.divisor_size, shape.div_domain);
    Relation v(1);
    for (const Value e : divisor) v.Add({e});
    Relation d(2);
    for (std::size_t g = 0; g < shape.div_groups; ++g) {
      std::vector<Value> set;
      if (rng.Unit() < shape.div_hit_fraction) {
        set = divisor;
        if (rng.Unit() < 0.5) {  // Contains V strictly: add extras.
          for (const Value e :
               UniformSet(rng, shape.divisor_size / 4 + 1, shape.div_domain)) {
            set.push_back(e);
          }
        }
      } else {
        set = UniformSet(rng, shape.divisor_size, shape.div_domain);
      }
      AddGroup(&d, static_cast<Value>(g + 1), set);
    }
    db.SetRelation("D", std::move(d));
    db.SetRelation("V", std::move(v));
  }
  {
    Rng rng(SubSeed(seed, 2));
    auto [left, right] = ContainmentPair(
        rng, shape.cont_groups, shape.cont_left_size, shape.cont_right_size,
        shape.cont_domain, shape.planted_fraction,
        [&] { return 1 + rng.Below(shape.cont_domain); });
    db.SetRelation("CL", std::move(left));
    db.SetRelation("CR", std::move(right));
  }
  {
    Rng rng(SubSeed(seed, 3));
    const ZipfSampler zipf(shape.zipf_domain, shape.zipf_skew);
    auto [left, right] = ContainmentPair(
        rng, shape.zipf_groups, shape.zipf_left_size, shape.zipf_right_size,
        shape.zipf_domain, shape.planted_fraction, [&] { return zipf.Sample(rng); });
    db.SetRelation("ZL", std::move(left));
    db.SetRelation("ZR", std::move(right));
  }
  {
    Rng rng(SubSeed(seed, 4));
    Relation left(2), right(2);
    for (std::size_t g = 0; g < shape.eq_groups; ++g) {
      AddGroup(&left, static_cast<Value>(g + 1),
               UniformSet(rng, shape.eq_size, shape.eq_domain));
      AddGroup(&right, static_cast<Value>(g + 1),
               UniformSet(rng, shape.eq_size, shape.eq_domain));
    }
    db.SetRelation("EL", std::move(left));
    db.SetRelation("ER", std::move(right));
  }
  {
    // R = X×Y and S = Y×Z are complete bipartite through the d middle
    // values, so the binary R⋈S intermediate is n²/d tuples while T keeps
    // the output sparse. Disjoint value ranges per variable.
    Rng rng(SubSeed(seed, 5));
    const std::size_t d = shape.tri_middle;
    const std::size_t side = shape.tri_edges / d;
    Relation r(2), s(2), t(2);
    for (std::size_t x = 0; x < side; ++x) {
      for (std::size_t y = 0; y < d; ++y) {
        r.Add({static_cast<Value>(1 + x), static_cast<Value>(100001 + y)});
        s.Add({static_cast<Value>(100001 + y), static_cast<Value>(200001 + x)});
      }
    }
    for (std::size_t i = 0; i < shape.tri_edges; ++i) {
      t.Add({static_cast<Value>(200001 + rng.Below(side)),
             static_cast<Value>(1 + rng.Below(side))});
    }
    db.SetRelation("TR", std::move(r));
    db.SetRelation("TS", std::move(s));
    db.SetRelation("TT", std::move(t));
  }
  return db;
}

core::Database MakeServeDatabase(const ServeShape& shape, std::uint64_t seed) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  schema.AddRelation("U", 2);
  core::Database db(schema);
  Rng rng(SubSeed(seed, 11));
  const std::vector<Value> divisor = UniformSet(rng, shape.s_size, shape.r_domain);
  Relation s(1);
  for (const Value e : divisor) s.Add({e});
  Relation r(2);
  for (std::size_t g = 0; g < shape.r_groups; ++g) {
    std::vector<Value> set = UniformSet(rng, shape.r_set_size, shape.r_domain);
    if (rng.Unit() < 0.1) set.insert(set.end(), divisor.begin(), divisor.end());
    AddGroup(&r, static_cast<Value>(g + 1), set);
  }
  Relation t(2), u(2);
  for (std::size_t i = 0; i < shape.tu_rows; ++i) {
    t.Add({static_cast<Value>(1 + rng.Below(shape.tu_domain)),
           static_cast<Value>(1 + rng.Below(shape.tu_domain))});
    u.Add({static_cast<Value>(1 + rng.Below(shape.tu_domain)),
           static_cast<Value>(1 + rng.Below(shape.tu_domain))});
  }
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));
  db.SetRelation("T", std::move(t));
  db.SetRelation("U", std::move(u));
  return db;
}

std::vector<std::string> MakeServeStatements(const ServeShape& shape,
                                             std::uint64_t seed) {
  Rng rng(SubSeed(seed, 12));
  const std::string division_tail =
      "NOT EXISTS (SELECT * FROM S s WHERE NOT EXISTS (SELECT * FROM R r2 "
      "WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))";
  std::vector<std::string> pool;
  // The analyzer lowers the division idiom only in this exact form (an
  // extra outer conjunct makes the correlation cross two levels).
  pool.push_back("SELECT r.c1 FROM R r WHERE " + division_tail);
  // Each template gets kPerTemplate distinct constants.
  constexpr std::size_t kPerTemplate = 12;
  const auto distinct = [&](std::size_t domain) {
    return UniformSet(rng, kPerTemplate, domain);
  };
  const std::size_t tu = shape.tu_domain;
  for (const Value e : distinct(shape.r_domain)) {
    pool.push_back("SELECT c1 FROM R WHERE c2 = " + std::to_string(e));
  }
  for (const Value a : distinct(tu - 8)) {
    pool.push_back("SELECT * FROM T WHERE c1 > " + std::to_string(a) +
                   " AND c1 < " + std::to_string(a + 6));
  }
  for (const Value a : distinct(tu)) {
    pool.push_back("SELECT t.c1, u.c2 FROM T t, U u WHERE t.c2 = u.c1 AND t.c1 = " +
                   std::to_string(a));
  }
  for (const Value b : distinct(tu)) {
    pool.push_back("SELECT c1 FROM T WHERE c2 IN (SELECT c1 FROM U WHERE c2 = " +
                   std::to_string(b) + ")");
  }
  for (const Value a : distinct(tu)) {
    pool.push_back("SELECT * FROM T t WHERE t.c1 = " + std::to_string(a) +
                   " AND EXISTS (SELECT * FROM U u WHERE u.c1 = t.c2)");
  }
  for (const Value k : distinct(shape.r_groups)) {
    pool.push_back("SELECT c1 FROM S WHERE c1 NOT IN (SELECT c2 FROM R WHERE c1 = " +
                   std::to_string(k) + ")");
  }
  for (const Value a : distinct(tu)) {
    pool.push_back("SELECT c1 FROM T WHERE c2 = " + std::to_string(a) +
                   " UNION SELECT c1 FROM U WHERE c2 = " +
                   std::to_string(1 + (a * 7919) % tu));
  }
  for (const Value e : distinct(shape.r_domain)) {
    pool.push_back("SELECT r.c1 FROM R r WHERE r.c2 = " + std::to_string(e) +
                   " AND EXISTS (SELECT * FROM S s WHERE s.c1 = r.c2)");
  }
  return pool;
}

Commit ChurnCommit(const ServeShape& shape, std::uint64_t seed, std::size_t k) {
  Rng rng(SubSeed(seed, 1000000 + k));
  static const char* const kNames[] = {"R", "S", "T", "U"};
  const std::size_t which = rng.Below(4);
  const std::uint64_t change_seed = rng.Next();
  Commit commit;
  commit.relation = kNames[which];
  if (which == 1) {
    // The divisor: swap one element for one it does not hold yet, so its
    // size stays put.
    const std::size_t domain = shape.r_domain;
    commit.change = [domain, change_seed](Relation& rel) {
      Rng r(change_seed);
      std::vector<Value> elements;
      for (std::size_t i = 0; i < rel.size(); ++i) elements.push_back(rel.tuple(i)[0]);
      if (!elements.empty()) elements.erase(elements.begin() + r.Below(elements.size()));
      if (elements.size() < domain) {
        for (;;) {
          const auto e = static_cast<Value>(1 + r.Below(domain));
          if (std::find(elements.begin(), elements.end(), e) == elements.end()) {
            elements.push_back(e);
            break;
          }
        }
      }
      Relation next(1);
      for (const Value e : elements) next.Add({e});
      rel = std::move(next);
    };
    return commit;
  }
  const std::size_t key_domain = which == 0 ? shape.r_groups : shape.tu_domain;
  const std::size_t elem_domain = which == 0 ? shape.r_domain : shape.tu_domain;
  commit.change = ReplaceRows(shape.commit_rows, key_domain, elem_domain, change_seed);
  return commit;
}

}  // namespace setalg::perfbench

// Seeded input generation for the perfbench workloads. Everything the
// program under test sees is built here from the run's --seed: relations,
// the serving statement pool, the per-client statement streams and the
// writer's commits. The generator is self-contained (splitmix64 and an
// explicit zipf table), so a seed means the same inputs on every build.
#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/relation.h"

namespace setalg::perfbench {

/// splitmix64: tiny, seedable, and identical across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t Below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  std::uint64_t state_;
};

/// A well-mixed seed for the `stream`-th independent generator of `seed`.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) over 1..n by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew);
  std::uint64_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// forall-analytics.
// ---------------------------------------------------------------------------

/// Input sizes of forall-analytics (documented in perfbench/README.md).
struct ForallShape {
  // Division: D(key, elem) over `div_groups` groups, divisor V of
  // `divisor_size` elements drawn from an element domain of
  // `div_domain`; `div_hit_fraction` of the groups contain V (half of
  // those exactly equal V), the rest are random sets of ~divisor_size.
  std::size_t div_groups = 3000;
  std::size_t divisor_size = 40;
  std::size_t div_domain = 80;
  double div_hit_fraction = 0.1;
  // Uniform containment join CL ⊇ CR.
  std::size_t cont_groups = 800;
  std::size_t cont_left_size = 16;
  std::size_t cont_right_size = 4;
  std::size_t cont_domain = 1000;
  // Zipf containment join ZL ⊇ ZR (the bench_setjoin self-tuning shape).
  std::size_t zipf_groups = 400;
  std::size_t zipf_left_size = 24;
  std::size_t zipf_right_size = 4;
  std::size_t zipf_domain = 4000;
  double zipf_skew = 1.5;
  // Fraction of right-side groups planted as subsets of a left group.
  double planted_fraction = 0.05;
  // Set-equality join EL = ER: small sets over a small domain.
  std::size_t eq_groups = 2000;
  std::size_t eq_size = 4;
  std::size_t eq_domain = 12;
  // Skewed triangle TR(a,b) ⋈ TS(b,c) ⋈ TT(c,a): n edges per relation,
  // d middle values (TR, TS complete bipartite through them).
  std::size_t tri_edges = 4000;
  std::size_t tri_middle = 10;
};

/// Schema: D/2, V/1, CL/2, CR/2, ZL/2, ZR/2, EL/2, ER/2, TR/2, TS/2, TT/2.
core::Database MakeForallDatabase(const ForallShape& shape, std::uint64_t seed);

// ---------------------------------------------------------------------------
// serve-hot / serve-churn.
// ---------------------------------------------------------------------------

struct ServeShape {
  // R(key, elem): division dividend; S(elem): divisor; T, U: uniform
  // binary relations over [1, tu_domain]².
  std::size_t r_groups = 2000;
  std::size_t r_domain = 40;
  std::size_t r_set_size = 16;
  std::size_t s_size = 6;
  std::size_t tu_rows = 32000;
  std::size_t tu_domain = 2000;
  // Rows replaced (deleted and inserted) per commit on R, T or U.
  std::size_t commit_rows = 4;
};

/// Schema: R/2, S/1, T/2, U/2.
core::Database MakeServeDatabase(const ServeShape& shape, std::uint64_t seed);

/// About 100 distinct SQL statements over R/S/T/U: the NOT EXISTS
/// division idiom, filters, joins with constants, IN / EXISTS semijoins
/// and UNION. Constants are seeded; every statement is distinct.
std::vector<std::string> MakeServeStatements(const ServeShape& shape,
                                             std::uint64_t seed);

/// The k-th writer commit: which relation it changes and how. Applying
/// commits 0..k-1 in order through VersionedDatabase::Mutate to a head
/// built from MakeServeDatabase(shape, seed) reproduces version k.
struct Commit {
  std::string relation;
  std::function<void(core::Relation&)> change;
};
Commit ChurnCommit(const ServeShape& shape, std::uint64_t seed, std::size_t k);

}  // namespace setalg::perfbench

#endif  // PERFBENCH_DATAGEN_H_

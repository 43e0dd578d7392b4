// Differential/property harness for the engine's pipelined and parallel
// execution: every plan must produce identical (sorted, set-semantics)
// results and identical per-operator PlanStats row counts at every batch
// size (including the degenerate size 1 and the off-power-of-two 7 that
// exercise batch-boundary carry-over) and at every thread count in
// {1, 2, 7} (1 exercises the partitioned code inline, 2 a minimal pool, 7
// an off-power-of-two fan-out wider than many of the workloads' group
// counts, so empty partitions occur).
//
// The oracle is independent of the pipeline's own row counting: every
// operator's subplan runs alone as its own plan, and the size of its
// sort-normalized result — the operator's materialized cardinality
// (Definition 16) — must equal the OpStats::output_size the whole-plan run
// recorded for that operator at every matrix point. A stream that wrongly
// claims distinct() (and so skips the dedup) fails here.
//
// The suite reads SETALG_BATCH_SEED (default 1) as the base of its seed
// range; CI runs it under ASan/UBSan and under ThreadSanitizer with a
// fixed seed matrix so batch-boundary lifetime bugs and cross-thread
// races surface across distinct randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine.h"
#include "engine/multiway.h"
#include "engine/parallel.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "ra/rewrite.h"
#include "setjoin/division.h"
#include "setjoin/grouped.h"
#include "setjoin/setjoin.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using setalg::testing::MakeRel;

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 1024};

// Thread counts of the differential matrix (see the file comment).
constexpr std::size_t kThreadCounts[] = {1, 2, 7};

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return (end == env || value == 0) ? 1 : static_cast<std::uint64_t>(value);
}

// Asserts that `actual` reproduced the reference run's per-operator
// instrumentation exactly: same operators in the same post-order, same
// (distinct) output cardinalities, same aggregates.
void ExpectSameStats(const PlanStats& expected, const PlanStats& actual,
                     const std::string& context) {
  EXPECT_EQ(actual.max_intermediate, expected.max_intermediate) << context;
  EXPECT_EQ(actual.total_intermediate, expected.total_intermediate) << context;
  EXPECT_EQ(actual.join_rows_emitted, expected.join_rows_emitted) << context;
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    EXPECT_EQ(actual.ops[i].label, expected.ops[i].label) << context << " op " << i;
    EXPECT_EQ(actual.ops[i].source, expected.ops[i].source) << context << " op " << i;
    EXPECT_EQ(actual.ops[i].output_size, expected.ops[i].output_size)
        << context << " op " << i << " (" << expected.ops[i].label << ")";
  }
}

// The per-operator oracle of one plan (see the file comment).
struct SubplanOracle {
  Relation root{0};
  std::unordered_map<const PhysicalOp*, std::size_t> output_sizes;
  std::size_t max_intermediate = 0;
  std::size_t total_intermediate = 0;
};

void CollectOps(const PhysicalOpPtr& op, std::unordered_set<const PhysicalOp*>* seen,
                std::vector<PhysicalOpPtr>* out) {
  if (!seen->insert(op.get()).second) return;
  for (const auto& child : op->children()) CollectOps(child, seen, out);
  out->push_back(op);
}

// Runs the subplan rooted at every distinct operator of `plan` as its own
// PhysicalPlan, serial, and records the size of its normalized result.
void BuildSubplanOracle(const EngineOptions& base, const PhysicalPlan& plan,
                        const core::Database& db, const std::string& context,
                        SubplanOracle* oracle) {
  std::vector<PhysicalOpPtr> ops;
  std::unordered_set<const PhysicalOp*> seen;
  CollectOps(plan.root, &seen, &ops);
  const Engine serial(base.WithThreads(1));
  for (const PhysicalOpPtr& op : ops) {
    PhysicalPlan subplan;
    subplan.root = op;
    auto run = serial.Run(subplan, db);
    ASSERT_TRUE(run.ok()) << context << " subplan " << op->label() << ": "
                          << run.error();
    const std::size_t size = run->relation.size();
    oracle->output_sizes[op.get()] = size;
    oracle->max_intermediate = std::max(oracle->max_intermediate, size);
    oracle->total_intermediate += size;
    if (op == plan.root) oracle->root = std::move(run->relation);
  }
}

// Asserts one run's PlanStats against the oracle: one entry per distinct
// operator, each with its subplan's normalized output size, and the
// aggregates those sizes imply.
void ExpectMatchesOracle(const SubplanOracle& oracle, const PlanStats& stats,
                         const std::string& context) {
  EXPECT_EQ(stats.ops.size(), oracle.output_sizes.size()) << context;
  for (const OpStats& op : stats.ops) {
    auto it = oracle.output_sizes.find(op.op);
    ASSERT_NE(it, oracle.output_sizes.end()) << context << " (" << op.label << ")";
    EXPECT_EQ(op.output_size, it->second) << context << " (" << op.label << ")";
  }
  EXPECT_EQ(stats.max_intermediate, oracle.max_intermediate) << context;
  EXPECT_EQ(stats.total_intermediate, oracle.total_intermediate) << context;
}

// Plan-cache leg of the harness: a shared Engine with the plan cache
// enabled runs `expr` twice under `options` — the first run populates the
// cache (miss), the second is served from it (hit). Both must match the
// reference relation and row counts, and the hit must be byte-identical
// to the miss on every stat the run reports, including the parallel and
// batch accounting (partitions, batches_emitted, peak_batch_bytes).
void ExpectCachedRunsMatch(const EngineOptions& options, const ra::ExprPtr& expr,
                           const core::Database& db,
                           const core::Relation& expected_relation,
                           const PlanStats& expected_stats,
                           const std::string& context) {
  EngineOptions cached_options = options;
  cached_options = cached_options.WithPlanCache(4);
  const Engine cached(cached_options);
  auto miss = cached.Run(expr, db);
  ASSERT_TRUE(miss.ok()) << context << ": " << miss.error();
  ASSERT_EQ(miss->stats.cache, CacheOutcome::kMiss) << context;
  auto hit = cached.Run(expr, db);
  ASSERT_TRUE(hit.ok()) << context << ": " << hit.error();
  ASSERT_EQ(hit->stats.cache, CacheOutcome::kHit) << context;
  for (const auto* run : {&*miss, &*hit}) {
    EXPECT_EQ(run->relation, expected_relation) << context;
    ExpectSameStats(expected_stats, run->stats, context);
  }
  // Hit path vs miss path: byte-identical, parallel accounting included.
  EXPECT_EQ(hit->relation.flat(), miss->relation.flat()) << context;
  EXPECT_EQ(hit->stats.partitions, miss->stats.partitions) << context;
  EXPECT_EQ(hit->stats.batches_emitted, miss->stats.batches_emitted) << context;
  EXPECT_EQ(hit->stats.peak_batch_bytes, miss->stats.peak_batch_bytes) << context;
  EXPECT_EQ(hit->stats.threads_used, miss->stats.threads_used) << context;
}

// Executes `plan` at every (threads × batch size) point of the
// differential matrix, asserting at every point: the result equals the
// oracle's root relation, every operator's recorded output size equals
// its subplan's (BuildSubplanOracle), and the PlanStats equal the serial
// run's at the default batch size. With an `expr`, at one batch size per
// thread count the workload additionally runs through a shared Engine
// with the plan cache enabled (see ExpectCachedRunsMatch).
void ExpectPlanMatchesOracle(const EngineOptions& base, const PhysicalPlan& plan,
                             const core::Database& db, const ra::ExprPtr& expr,
                             const std::string& context) {
  SubplanOracle oracle;
  ASSERT_NO_FATAL_FAILURE(BuildSubplanOracle(base, plan, db, context, &oracle));
  auto expected = Engine(base.WithThreads(1)).Run(plan, db);
  ASSERT_TRUE(expected.ok()) << context << ": " << expected.error();
  EXPECT_EQ(expected->relation, oracle.root) << context;
  ExpectMatchesOracle(oracle, expected->stats, context + " serial");

  for (std::size_t threads : kThreadCounts) {
    for (std::size_t batch_size : kBatchSizes) {
      const EngineOptions options =
          base.WithThreads(threads).WithBatchSize(batch_size);
      auto run = Engine(options).Run(plan, db);
      const std::string what = context + " batch_size=" +
                               std::to_string(batch_size) +
                               " threads=" + std::to_string(threads);
      ASSERT_TRUE(run.ok()) << what << ": " << run.error();
      EXPECT_EQ(run->relation, expected->relation) << what;
      ExpectMatchesOracle(oracle, run->stats, what);
      ExpectSameStats(expected->stats, run->stats, what);
      EXPECT_EQ(run->stats.batch_size, batch_size);
      EXPECT_EQ(run->stats.threads_used, threads) << what;
      if (!expected->relation.empty()) {
        EXPECT_GT(run->stats.batches_emitted, 0u) << what;
        EXPECT_GT(run->stats.peak_batch_bytes, 0u) << what;
      }
      if (batch_size == 7 && expr != nullptr) {
        ExpectCachedRunsMatch(options, expr, db, expected->relation,
                              expected->stats, what + " plan-cache");
      }
    }
  }
}

// Lowers `expr` once under `base` options — from `db`'s statistics, or
// from its schema alone — and checks the plan across the differential
// matrix (ExpectPlanMatchesOracle). The plan-cache leg runs only for
// statistics-planned plans: the cache always plans with statistics, so it
// compares runs of the same mode.
void ExpectBatchedMatches(const EngineOptions& base, bool statistics,
                          const ra::ExprPtr& expr, const core::Database& db,
                          const std::string& context) {
  const Engine planner(base);
  auto plan = statistics ? planner.Plan(expr, db) : planner.Plan(expr, db.schema());
  ASSERT_TRUE(plan.ok()) << context << ": " << plan.error();
  ExpectPlanMatchesOracle(base, *plan, db, statistics ? expr : nullptr, context);
}

// The three planning modes the harness drives every workload through: the
// reference lowering, the default policy planned from the schema alone
// (its fixed fallback), and the default policy priced from statistics.
struct Mode {
  std::string name;
  EngineOptions options;
  bool statistics;
};

std::vector<Mode> AllModes() {
  return {{"reference", EngineOptions::Reference(), true},
          {"schema-only", EngineOptions{}, false},
          {"statistics", EngineOptions{}, true}};
}

// ---------------------------------------------------------------------------
// Randomized expressions over random databases.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnRandomSaExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base; seed < base + 4; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 30, 12, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 97);
    for (int trial = 0; trial < 6; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      for (const auto& [name, options, statistics] : AllModes()) {
        ExpectBatchedMatches(options, statistics, expr, db,
                             name + " seed " + std::to_string(seed) + " expr " +
                                 expr->ToString());
      }
    }
  }
}

TEST(BatchExec, DifferentialOnJoinFormsOfRandomExpressions) {
  // The RA embedding of semijoins yields π(⋈) shapes — the planner's
  // semijoin reduction plus the join iterator's spill path get exercised.
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  // Projections over joins that keep every column (with repeats, and
  // permuted): their streams skip the pipeline's dedup.
  const auto r = ra::Rel("R", 2);
  const auto s = ra::Rel("S", 1);
  const auto rs = ra::Join(r, s, {{2, ra::Cmp::kEq, 1}});
  const std::vector<ra::ExprPtr> column_preserving = {
      ra::Project(rs, {1, 2, 2, 3, 3, 1}),
      ra::Union(ra::Project(rs, {3, 1, 2, 1}),
                ra::Project(ra::Product(r, s), {2, 1, 3, 3})),
  };
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base + 10; seed < base + 13; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 24, 10, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2}, seed * 131);
    std::vector<ra::ExprPtr> exprs = column_preserving;
    for (int trial = 0; trial < 5; ++trial) {
      exprs.push_back(ra::SemiJoinToJoin(generator.Generate(1, 3)));
    }
    for (const auto& expr : exprs) {
      for (const auto& [name, options, statistics] : AllModes()) {
        ExpectBatchedMatches(options, statistics, expr, db,
                             name + " seed " + std::to_string(seed) + " expr " +
                                 expr->ToString());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Projections: one that keeps every input column (in any order, with
// repeats) cannot merge rows, so its stream is distinct and skips the
// pipeline's dedup; one that drops a column may merge rows and is deduped.
// ---------------------------------------------------------------------------

TEST(BatchExec, ProjectionKeepingEveryColumnReportsDistinct) {
  const Relation ternary = MakeRel(3, {{1, 2, 3}, {1, 2, 4}, {2, 2, 3}, {2, 5, 3}});
  const Relation binary = MakeRel(2, {{1, 5}, {2, 5}, {2, 6}});
  ExecContext ctx(nullptr, nullptr, /*batch_size=*/2);
  // distinct() of the projection's stream over `input`, after checking
  // that the stream holds no repeated row whenever it reports distinct.
  auto distinct = [&ctx](const Relation& input, std::vector<std::size_t> columns) {
    const std::size_t arity = columns.size();
    std::vector<std::unique_ptr<BatchIterator>> inputs;
    inputs.push_back(std::make_unique<RelationBatchIterator>(&input));
    // The iterator borrows the operator's column list: keep `op` alive.
    const PhysicalOpPtr op =
        MakeProject(MakeScan("R", input.arity()), std::move(columns));
    auto it = op->MakeBatchIterator(ctx, std::move(inputs));
    const bool reported = it->distinct();
    RowSet seen(arity);
    bool repeated = false;
    Batch batch(arity, ctx.batch_size());
    it->Open();
    while (it->NextBatch(batch)) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!seen.Insert(batch.row(i))) repeated = true;
      }
    }
    it->Close();
    EXPECT_FALSE(reported && repeated);
    return reported;
  };
  EXPECT_TRUE(distinct(ternary, {1, 2, 2, 3, 3, 1}));
  EXPECT_TRUE(distinct(ternary, {3, 1, 2}));
  EXPECT_FALSE(distinct(binary, {1, 1}));
  EXPECT_FALSE(distinct(binary, {2}));
}

// ---------------------------------------------------------------------------
// Division workloads (the paper's shapes) through all planning modes.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnDivisionWorkloads) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    workload::DivisionConfig config;
    config.num_groups = 20 + 15 * (seed % 3);
    config.group_size = 2 + seed % 5;
    config.domain_size = 16 + 8 * (seed % 4);
    config.divisor_size = 2 + seed % 6;
    config.match_fraction = 0.3;
    config.seed = seed;
    const auto instance = workload::MakeDivisionInstance(config);
    const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
    for (const auto& expr : {setjoin::ClassicDivisionExpr("R", "S"),
                             setjoin::ClassicEqualityDivisionExpr("R", "S")}) {
      for (const auto& [name, options, statistics] : AllModes()) {
        ExpectBatchedMatches(options, statistics, expr, db,
                             name + " division seed " + std::to_string(seed));
      }
    }
  }
}

// Every division algorithm behind the operator, including the streaming
// hash/aggregate probe paths and the blocking kernels. The override must
// win over the cost model when statistics are present, or the sweep would
// silently collapse onto the model's pick.
TEST(BatchExec, DifferentialAcrossDivisionAlgorithms) {
  const std::uint64_t base = BaseSeed();
  workload::DivisionConfig config;
  config.num_groups = 24;
  config.group_size = 5;
  config.domain_size = 20;
  config.divisor_size = 4;
  config.match_fraction = 0.4;
  config.seed = base;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");
  for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
    EngineOptions options;
    options.division_algorithm = algorithm;
    const std::string name = setjoin::DivisionAlgorithmToString(algorithm);
    for (bool statistics : {false, true}) {
      const std::string context = "division algorithm " + name +
                                  (statistics ? " statistics" : " schema-only");
      auto plan = statistics ? Engine(options).Plan(expr, db)
                             : Engine(options).Plan(expr, db.schema());
      ASSERT_TRUE(plan.ok()) << context << ": " << plan.error();
      EXPECT_NE(plan->root->label().find("[" + name + "]"), std::string::npos)
          << context << ": " << plan->root->label();
      ExpectPlanMatchesOracle(options, *plan, db, statistics ? expr : nullptr, context);
    }
  }
}

// ---------------------------------------------------------------------------
// The workload::generators database families.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnGeneratorFamilies) {
  const std::uint64_t base = BaseSeed();

  {
    const auto db = workload::DivisionFamilyDatabase(240, 6, base);
    for (const auto& [name, options, statistics] : AllModes()) {
      ExpectBatchedMatches(options, statistics, setjoin::ClassicDivisionExpr("R", "S"),
                           db, name + " division-family");
    }
  }
  {
    const auto db = workload::SparseBinaryDatabase(200, base + 1);
    setalg::testing::RandomSaEqGenerator generator(db.schema(), {1, 2}, base * 7);
    for (int trial = 0; trial < 4; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      for (const auto& [name, options, statistics] : AllModes()) {
        ExpectBatchedMatches(options, statistics, expr, db, name + " sparse-binary");
      }
    }
  }
  {
    const auto db = workload::TwoRelationDatabase(150, base + 2);
    setalg::testing::RandomSaEqGenerator generator(db.schema(), {1, 2}, base * 11);
    for (int trial = 0; trial < 4; ++trial) {
      const auto expr = generator.Generate(2, 3);
      for (const auto& [name, options, statistics] : AllModes()) {
        ExpectBatchedMatches(options, statistics, expr, db, name + " two-relation");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Multiway join chains: the worst-case-optimal operator through every
// executor, differentially against the binary plan.
// ---------------------------------------------------------------------------

// The triangle chain R(a,b) ⋈ S(b,c) ⋈ T(c,a), written the binary way.
ra::ExprPtr TriangleChainExpr() {
  return ra::Join(
      ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
      ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
}

// Skewed triangle data: R = X×Y and S = Y×Z are complete bipartite
// through a d-element middle domain Y, so the binary R⋈S intermediate is
// (n/d)·d·(n/d) = n²/d tuples — far past the AGM bound (n·n·n)^(1/2) —
// while T is n random (c, a) pairs keeping the output sparse. Value
// ranges are disjoint per variable so estimator distinct counts are exact.
core::Database TriangleChainDatabase(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  const std::size_t side = n / d;
  core::Relation r(2), s(2), t(2);
  for (std::size_t x = 0; x < side; ++x) {
    for (std::size_t y = 0; y < d; ++y) {
      r.Add({static_cast<core::Value>(1 + x),
             static_cast<core::Value>(10001 + y)});
    }
  }
  for (std::size_t y = 0; y < d; ++y) {
    for (std::size_t z = 0; z < side; ++z) {
      s.Add({static_cast<core::Value>(10001 + y),
             static_cast<core::Value>(20001 + z)});
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.Add({static_cast<core::Value>(20001 + rng.NextBounded(side)),
           static_cast<core::Value>(1 + rng.NextBounded(side))});
  }
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));
  db.SetRelation("T", std::move(t));
  return db;
}

TEST(BatchExec, DifferentialOnMultiwayJoinChains) {
  const auto db = TriangleChainDatabase(300, 6, BaseSeed());
  const auto expr = TriangleChainExpr();
  const EngineOptions on = EngineOptions{}.WithMultiway();
  const EngineOptions off;

  // The skew must actually flip the routing, or the leg below would
  // exercise nothing new.
  auto plan = Engine(on).Plan(expr, db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_TRUE(plan->has_agm_bound);
  bool routed = false;
  for (const auto& choice : plan->choices) {
    if (choice.site == "join-chain" &&
        choice.algorithm.rfind("multiway", 0) == 0) {
      routed = true;
    }
  }
  ASSERT_TRUE(routed) << "triangle chain kept the binary plan";

  ExpectBatchedMatches(on, /*statistics=*/true, expr, db, "multiway-on triangle");
  ExpectBatchedMatches(off, /*statistics=*/true, expr, db, "multiway-off triangle");

  // Multiway on vs off: different plans, byte-identical results.
  auto with = Engine(on).Run(expr, db);
  auto without = Engine(off).Run(expr, db);
  ASSERT_TRUE(with.ok()) << with.error();
  ASSERT_TRUE(without.ok()) << without.error();
  EXPECT_EQ(with->relation.flat(), without->relation.flat());
  EXPECT_TRUE(with->stats.has_agm_bound);
  EXPECT_FALSE(without->stats.has_agm_bound);
  EXPECT_LE(static_cast<double>(with->stats.max_intermediate),
            with->stats.agm_bound);
  EXPECT_GT(static_cast<double>(without->stats.max_intermediate),
            with->stats.agm_bound);
}

// ---------------------------------------------------------------------------
// Hand-built set-join plans (no logical form) through the batch surface.
// ---------------------------------------------------------------------------

void ExpectPlanBatchedMatches(const PhysicalPlan& plan, const core::Database& db,
                              const Relation& expected, const std::string& context) {
  auto reference = Engine().Run(plan, db);
  ASSERT_TRUE(reference.ok()) << context << ": " << reference.error();
  EXPECT_EQ(reference->relation, expected) << context;
  ExpectPlanMatchesOracle(EngineOptions{}, plan, db, nullptr, context);
}

TEST(BatchExec, DifferentialOnHandBuiltSetJoinPlans) {
  workload::SetJoinConfig config;
  config.r_groups = 30;
  config.s_groups = 25;
  config.r_group_size = 6;
  config.s_group_size = 3;
  config.domain_size = 15;
  config.containment_fraction = 0.3;
  config.seed = BaseSeed();
  const auto instance = workload::MakeSetJoinInstance(config);
  const auto db = workload::SetJoinDatabase(instance);

  for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
    PhysicalPlan plan;
    plan.root = MakeSetContainmentJoin(MakeScan("R", 2), MakeScan("S", 2), algorithm);
    ExpectPlanBatchedMatches(
        plan, db, setjoin::SetContainmentJoin(instance.r, instance.s, algorithm),
        std::string("containment ") +
            setjoin::ContainmentAlgorithmToString(algorithm));
  }
  for (auto algorithm : {setjoin::EqualityJoinAlgorithm::kNestedLoop,
                         setjoin::EqualityJoinAlgorithm::kCanonicalHash}) {
    PhysicalPlan plan;
    plan.root = MakeSetEqualityJoin(MakeScan("R", 2), MakeScan("S", 2), algorithm);
    ExpectPlanBatchedMatches(
        plan, db, setjoin::SetEqualityJoin(instance.r, instance.s, algorithm),
        std::string("equality ") +
            setjoin::EqualityJoinAlgorithmToString(algorithm));
  }
  {
    PhysicalPlan plan;
    plan.root = MakeSetOverlapJoin(MakeScan("R", 2), MakeScan("S", 2));
    ExpectPlanBatchedMatches(plan, db,
                             setjoin::SetOverlapJoin(instance.r, instance.s),
                             "overlap");
  }
}

// setjoin::AsGrouped consumers vs the reference nested-loop path, on the
// adversarial shapes the batched adapters must also handle. The
// differential harness exposed no semantic divergence between the grouped
// adapters and the nested-loop reference (this suite plus the randomized
// runs above are the repro surface: any future divergence fails here with
// the offending instance printed).
TEST(BatchExec, AsGroupedConsumersAgreeWithNestedLoopReference) {
  const std::vector<std::pair<Relation, Relation>> instances = {
      // Duplicate-heavy inputs (Add'ed twice; set semantics must collapse).
      {MakeRel(2, {{1, 5}, {1, 5}, {1, 6}, {2, 5}, {2, 5}}),
       MakeRel(2, {{9, 5}, {9, 5}, {8, 6}})},
      // Empty sides.
      {Relation(2), MakeRel(2, {{9, 5}})},
      {MakeRel(2, {{1, 5}}), Relation(2)},
      // Singleton groups and a single shared element value.
      {MakeRel(2, {{1, 7}, {2, 7}, {3, 7}}), MakeRel(2, {{4, 7}, {5, 7}})},
  };
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& [r, s] = instances[i];
    const auto gr = setjoin::AsGrouped(r);
    const auto gs = setjoin::AsGrouped(s);
    const Relation expected =
        setjoin::SetContainmentJoin(gr, gs, setjoin::ContainmentAlgorithm::kNestedLoop);
    for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
      EXPECT_EQ(setjoin::SetContainmentJoin(gr, gs, algorithm), expected)
          << "instance " << i << " algorithm "
          << setjoin::ContainmentAlgorithmToString(algorithm) << "\nR = "
          << r.ToString() << "\nS = " << s.ToString();
    }
    EXPECT_EQ(setjoin::SetEqualityJoin(
                  gr, gs, setjoin::EqualityJoinAlgorithm::kCanonicalHash),
              setjoin::SetEqualityJoin(gr, gs,
                                       setjoin::EqualityJoinAlgorithm::kNestedLoop))
        << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// DAG sharing, budget enforcement, and batch accounting.
// ---------------------------------------------------------------------------

TEST(BatchExec, SharedSubplansMaterializeOnceAndKeepStatsParity) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(60, 12, BaseSeed()));

  // One scan shared by two parents: a stream has one consumer, so the
  // executor must materialize the shared node and re-stream it.
  PhysicalOpPtr scan = MakeScan("R", 2);
  PhysicalPlan plan;
  plan.root = MakeUnion(MakeProject(scan, {1}), MakeProject(scan, {2}));
  ExpectPlanMatchesOracle(EngineOptions{}, plan, db, nullptr, "shared");
}

TEST(BatchExec, BudgetAbortsOversizedBatchedRuns) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}), MakeRel(1, {{10}, {30}}));
  EngineOptions options = EngineOptions::Reference().WithBatchSize(2);
  options.max_intermediate_budget = 2;
  auto run = Engine(options).Run(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), db);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().find("budget"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Range partitioning turns the fan-in into a concatenation: the
// per-partition kernel outputs of division, the set joins and the
// multiway join, taken in partition-index order, are already strictly
// ascending before any Normalize() — and equal the partitioned run's
// result byte for byte.
// ---------------------------------------------------------------------------

// The row-major concatenation of `outputs` in partition-index order.
std::vector<core::Value> ConcatenateInOrder(const std::vector<Relation>& outputs) {
  std::vector<core::Value> flat;
  for (const auto& output : outputs) {
    flat.insert(flat.end(), output.flat().begin(), output.flat().end());
  }
  return flat;
}

// True iff the row-major rows of `flat` are strictly ascending.
bool StrictlyAscending(const std::vector<core::Value>& flat, std::size_t arity) {
  for (std::size_t i = arity; i < flat.size(); i += arity) {
    if (!std::lexicographical_compare(flat.begin() + (i - arity), flat.begin() + i,
                                      flat.begin() + i, flat.begin() + i + arity)) {
      return false;
    }
  }
  return true;
}

// Runs `plan` partitioned on two threads and checks its result against
// the in-order concatenation of the per-partition outputs.
void ExpectSortedFanIn(const PhysicalPlan& plan, const core::Database& db,
                       const std::vector<Relation>& outputs, std::size_t arity,
                       const std::string& context) {
  const std::vector<core::Value> concatenated = ConcatenateInOrder(outputs);
  EXPECT_TRUE(StrictlyAscending(concatenated, arity)) << context;
  auto run = Engine(EngineOptions{}.WithThreads(2)).Run(plan, db);
  ASSERT_TRUE(run.ok()) << context << ": " << run.error();
  EXPECT_GT(run->stats.partitions, 0u) << context;
  EXPECT_EQ(run->relation.flat(), concatenated) << context;
}

TEST(BatchExec, PartitionedFanInInputsAreAlreadySorted) {
  const std::uint64_t base = BaseSeed();
  workload::DivisionConfig division;
  division.num_groups = 60;
  division.group_size = 4;
  division.domain_size = 20;
  division.divisor_size = 3;
  division.match_fraction = 0.4;
  division.seed = base;
  const auto d = workload::MakeDivisionInstance(division);
  const auto division_db = setalg::testing::DivisionDb(d.r, d.s);

  workload::SetJoinConfig setjoin_config;
  setjoin_config.r_groups = 40;
  setjoin_config.s_groups = 30;
  setjoin_config.r_group_size = 6;
  setjoin_config.s_group_size = 3;
  setjoin_config.domain_size = 15;
  setjoin_config.containment_fraction = 0.4;
  setjoin_config.seed = base;
  const auto sj = workload::MakeSetJoinInstance(setjoin_config);
  const auto setjoin_db = workload::SetJoinDatabase(sj);

  const auto triangle_db = TriangleChainDatabase(300, 6, base);
  const Relation& tr = triangle_db.relation("R");
  const Relation& ts = triangle_db.relation("S");
  const Relation& tt = triangle_db.relation("T");

  for (std::size_t parts : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    const std::string at = " parts " + std::to_string(parts);
    // Division: dividend slices against the whole divisor.
    const auto slices = PartitionByColumn(d.r, 1, SplitKeys(d.r, 1, parts));
    for (const bool equality : {false, true}) {
      const auto hash = setjoin::DivisionAlgorithm::kHashDivision;
      std::vector<Relation> outputs;
      for (const auto& slice : slices) {
        outputs.push_back(equality ? setjoin::DivideEqual(slice, d.s, hash)
                                   : setjoin::Divide(slice, d.s, hash));
      }
      PhysicalPlan plan;
      plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1), hash, equality,
                               nullptr, parts);
      ExpectSortedFanIn(plan, division_db, outputs, 1,
                        (equality ? "division=" : "division") + at);
    }

    // Set joins: left key ranges against the whole right side.
    const auto right = setjoin::AsGrouped(sj.s);
    const auto left = setjoin::PartitionByKey(setjoin::AsGrouped(sj.r), parts);
    {
      const auto signature = setjoin::ContainmentAlgorithm::kSignatureNestedLoop;
      const auto canonical = setjoin::EqualityJoinAlgorithm::kCanonicalHash;
      std::vector<Relation> contain, equal, overlap;
      for (const auto& chunk : left) {
        contain.push_back(setjoin::SetContainmentJoin(chunk, right, signature));
        equal.push_back(setjoin::SetEqualityJoin(chunk, right, canonical));
        overlap.push_back(setjoin::SetOverlapJoin(chunk, right));
      }
      PhysicalPlan plan;
      plan.root = MakeSetContainmentJoin(MakeScan("R", 2), MakeScan("S", 2), signature,
                                         nullptr, parts);
      ExpectSortedFanIn(plan, setjoin_db, contain, 2, "containment" + at);
      plan.root = MakeSetEqualityJoin(MakeScan("R", 2), MakeScan("S", 2), canonical,
                                      nullptr, parts);
      ExpectSortedFanIn(plan, setjoin_db, equal, 2, "equality" + at);
      plan.root = MakeSetOverlapJoin(MakeScan("R", 2), MakeScan("S", 2), nullptr, parts);
      ExpectSortedFanIn(plan, setjoin_db, overlap, 2, "overlap" + at);
    }

    // Multiway triangle R(a,b) ⋈ S(b,c) ⋈ T(c,a): R and T hold variable
    // a (R in column 1, T in column 2) and split on one set of ranges of
    // a; S is shared. Each partition's serial join is one fan-in input.
    {
      const auto split = SplitKeys(tr, 1, parts);
      const auto r_parts = PartitionByColumn(tr, 1, split);
      const auto t_parts = PartitionByColumn(tt, 2, split);
      const auto triangle = [](std::size_t partitions) {
        PhysicalPlan plan;
        plan.root =
            MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                             {{0, 1}, {1, 2}, {2, 0}}, 3, nullptr, partitions);
        return plan;
      };
      std::vector<Relation> outputs;
      for (std::size_t p = 0; p < parts; ++p) {
        core::Database part_db(triangle_db.schema());
        part_db.SetRelation("R", r_parts[p]);
        part_db.SetRelation("S", ts);
        part_db.SetRelation("T", t_parts[p]);
        auto run = Engine().Run(triangle(1), part_db);
        ASSERT_TRUE(run.ok()) << run.error();
        outputs.push_back(run->relation);
      }
      ExpectSortedFanIn(triangle(parts), triangle_db, outputs, 3, "multiway" + at);
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic parallel merge: repeated parallel runs of the same seed
// must be byte-for-byte identical — same sorted storage, same PlanStats
// (including the parallel accounting), independent of thread scheduling.
// The fan-in concatenates per-partition outputs in partition-index order
// and normalizes, so nothing observable may depend on completion order.
// ---------------------------------------------------------------------------

TEST(BatchExec, ParallelMergeIsDeterministicAcrossRepeatedRuns) {
  const std::uint64_t base = BaseSeed();
  workload::DivisionConfig config;
  config.num_groups = 50;
  config.group_size = 4;
  config.domain_size = 30;
  config.divisor_size = 3;
  config.match_fraction = 0.4;
  config.seed = base;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  const Engine engine(EngineOptions{}.WithThreads(7).WithBatchSize(7));
  auto plan = engine.Plan(expr, db.schema());
  ASSERT_TRUE(plan.ok()) << plan.error();

  auto first = engine.Run(*plan, db);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->stats.threads_used, 7u);
  EXPECT_GT(first->stats.partitions, 0u);
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto run = engine.Run(*plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    // flat() compares the normalized storage byte-for-byte, a strictly
    // stronger check than relation equality on sorted sets.
    EXPECT_EQ(run->relation.flat(), first->relation.flat()) << "repeat " << repeat;
    ExpectSameStats(first->stats, run->stats,
                    "repeat " + std::to_string(repeat));
    EXPECT_EQ(run->stats.partitions, first->stats.partitions);
    EXPECT_EQ(run->stats.threads_used, first->stats.threads_used);
    EXPECT_EQ(run->stats.batches_emitted, first->stats.batches_emitted);
  }
}

TEST(BatchExec, BatchAccountingBoundsThePipelineFootprint) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(300, 20, BaseSeed()));
  core::Relation s(1);
  for (core::Value v = 1; v <= 10; ++v) s.Add({v});
  db.SetRelation("S", s);

  const auto expr = ra::Join(ra::Rel("R", 2), ra::Rel("S", 1),
                             {{2, ra::Cmp::kEq, 1}});
  for (std::size_t batch_size : kBatchSizes) {
    const Engine engine(EngineOptions{}.WithBatchSize(batch_size));
    auto run = engine.Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    // Widest stream in this plan is the join output (arity 3): no batch
    // may outgrow its configured capacity.
    EXPECT_LE(run->stats.peak_batch_bytes,
              batch_size * 3 * sizeof(core::Value));
    // Every operator's rows arrive in ceil(rows / batch_size)-or-more
    // batches; with three operators the total must cover the output alone.
    const std::size_t output_rows = run->relation.size();
    EXPECT_GE(run->stats.batches_emitted,
              (output_rows + batch_size - 1) / batch_size);
  }
}

}  // namespace
}  // namespace setalg::engine

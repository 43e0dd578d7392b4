// Tests for the self-tuning optimizer loop: the CalibrationStore's
// update rules (engine/calibration.h), the skew-aware histogram paths of
// the calibrated CostModel, and the end-to-end Engine feedback that makes
// repeated runs correct their own estimates.
#include <gtest/gtest.h>

#include <memory>

#include "engine/calibration.h"
#include "engine/cost.h"
#include "engine/engine.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

TEST(CalibrationStore, NeutralUntilWarmThenCorrects) {
  CalibrationStore store;
  const auto min_obs = store.params().min_observations;
  // Cold key: neutral factor, fallback selectivity.
  EXPECT_DOUBLE_EQ(store.OutputFactor("out:division"), 1.0);
  EXPECT_DOUBLE_EQ(store.Selectivity("sel:semijoin", 0.5), 0.5);

  // The model consistently estimates 4x the actual output.
  for (std::uint64_t i = 0; i < min_obs; ++i) {
    EXPECT_DOUBLE_EQ(store.OutputFactor("out:division"), 1.0)
        << "factor must stay neutral below min_observations";
    store.ObserveOutput("out:division", 400.0, 100.0);
  }
  const double warm = store.OutputFactor("out:division");
  EXPECT_LT(warm, 1.0);
  EXPECT_GT(warm, 1.0 / store.params().max_factor);
  EXPECT_EQ(store.observations(), min_obs);
}

TEST(CalibrationStore, ConvergesWhenEstimatesCarryTheAppliedFactor) {
  // The real loop: each round's estimate already includes the current
  // factor, so the observed residual shrinks as the factor approaches
  // the truth. The multiplicative-residual update must converge to
  // actual/base instead of oscillating.
  CalibrationStore store;
  const double base_estimate = 1000.0;
  const double actual = 125.0;
  for (int round = 0; round < 64; ++round) {
    const double applied = base_estimate * store.OutputFactor("out:join");
    store.ObserveOutput("out:join", applied, actual);
  }
  EXPECT_NEAR(store.OutputFactor("out:join"), actual / base_estimate,
              0.01 * (actual / base_estimate));
}

TEST(CalibrationStore, FactorsClampAndZeroActualsAreSafe) {
  CalibrationStore store;
  for (int i = 0; i < 200; ++i) {
    store.ObserveOutput("out:division", 1.0, 1e9);  // Wildly underestimated.
    store.ObserveOutput("out:division=", 1e9, 0.0);  // Actual empty.
  }
  EXPECT_DOUBLE_EQ(store.OutputFactor("out:division"), store.params().max_factor);
  EXPECT_DOUBLE_EQ(store.OutputFactor("out:division="),
                   1.0 / store.params().max_factor);
}

TEST(CalibrationStore, SelectivityEwmaTracksObservedRatios) {
  CalibrationStore store;
  // First observation seeds the value directly; later ones smooth.
  for (std::uint64_t i = 0; i < store.params().min_observations; ++i) {
    store.ObserveSelectivity("sel:select:=", 1000.0, 20.0);
  }
  EXPECT_NEAR(store.Selectivity("sel:select:=", 0.1), 0.02, 1e-9);
  // An empty input is not an observation.
  store.ObserveSelectivity("sel:select:=", 0.0, 0.0);
  EXPECT_NEAR(store.Selectivity("sel:select:=", 0.1), 0.02, 1e-9);
  EXPECT_NE(store.Summary().find("sel:select:="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Skew-aware containment pricing (the histogram path of the tentpole).
// ---------------------------------------------------------------------------

TEST(CostModel, SkewAwarePostingLengthFlipsTheContainmentChoice) {
  // Uniform assumption: postings average nr/domain = 20 elements, which
  // makes the inverted index the cheapest kernel. The histogram knows a
  // heavy hitter dominates (a random probe meets ~5000 rows), which the
  // uncalibrated model cannot see.
  ExprEstimate r;
  r.cardinality = 200000.0;
  r.key_distinct = 2000.0;
  r.elem_distinct = 10000.0;
  r.avg_group = 100.0;
  r.elem_expected_freq = 5000.0;
  ExprEstimate s;
  s.cardinality = 20000.0;
  s.key_distinct = 2000.0;
  s.elem_distinct = 10000.0;
  s.avg_group = 10.0;

  const CostModel uncalibrated(nullptr);
  const auto before = uncalibrated.ChooseContainment(r, s);
  EXPECT_EQ(before.algorithm, setjoin::ContainmentAlgorithm::kInvertedIndex);

  CalibrationStore store;
  const CostModel calibrated(nullptr, &store);
  const auto after = calibrated.ChooseContainment(r, s);
  EXPECT_NE(after.algorithm, setjoin::ContainmentAlgorithm::kInvertedIndex)
      << "a ~5000-row expected posting must price the inverted index out";
  const auto inverted = calibrated.EstimateContainment(
      setjoin::ContainmentAlgorithm::kInvertedIndex, r, s);
  const auto inverted_uniform = uncalibrated.EstimateContainment(
      setjoin::ContainmentAlgorithm::kInvertedIndex, r, s);
  EXPECT_GT(inverted.cost, 10.0 * inverted_uniform.cost);
}

TEST(CostModel, NullCalibrationIsBitIdenticalToTheFixedModel) {
  ExprEstimate r;
  r.cardinality = 50000.0;
  r.key_distinct = 500.0;
  r.elem_distinct = 900.0;
  r.avg_group = 100.0;
  r.elem_expected_freq = 4000.0;  // Present but must be ignored.
  ExprEstimate s = r;
  const CostModel model(nullptr);
  for (const auto algorithm : {setjoin::ContainmentAlgorithm::kNestedLoop,
                               setjoin::ContainmentAlgorithm::kSignatureNestedLoop,
                               setjoin::ContainmentAlgorithm::kPartitioned,
                               setjoin::ContainmentAlgorithm::kInvertedIndex}) {
    const auto est = model.EstimateContainment(algorithm, r, s);
    ExprEstimate plain_r = r;
    plain_r.elem_expected_freq = 0.0;
    const auto plain = model.EstimateContainment(algorithm, plain_r, s);
    EXPECT_DOUBLE_EQ(est.cost, plain.cost);
    EXPECT_DOUBLE_EQ(est.output_size, plain.output_size);
  }
}

// ---------------------------------------------------------------------------
// The end-to-end feedback loop.
// ---------------------------------------------------------------------------

TEST(Engine, RepeatedRunsFeedTheStoreAndShrinkTheDivisionEstimate) {
  // 5% of groups divide, but the fixed model always guesses 25%: the
  // learned output factor must move below 1 once warm.
  workload::DivisionConfig config;
  config.num_groups = 200;
  config.group_size = 6;
  config.domain_size = 64;
  config.divisor_size = 12;
  config.match_fraction = 0.05;
  config.seed = 11;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto store = std::make_shared<CalibrationStore>();
  const Engine engine(EngineOptions{}.WithCalibration(store));
  for (int i = 0; i < 8; ++i) {
    auto run = engine.Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
  }
  EXPECT_GT(store->observations(), 0u);
  EXPECT_LT(store->OutputFactor("out:division"), 1.0)
      << store->Summary();
}

TEST(Engine, CalibrationLeavesResultsUnchanged) {
  // Self-tuning may only change plans, never answers: every run must
  // stay bit-identical to the uncalibrated engine's result.
  workload::DivisionConfig config;
  config.num_groups = 120;
  config.group_size = 5;
  config.domain_size = 48;
  config.divisor_size = 10;
  config.match_fraction = 0.3;
  config.seed = 23;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto run_plain = Engine().Run(expr, db);
  ASSERT_TRUE(run_plain.ok());
  const Engine calibrated(EngineOptions{}.WithCalibration());
  for (int i = 0; i < 6; ++i) {
    auto run = calibrated.Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, run_plain->relation) << "iteration " << i;
  }
}

TEST(Engine, SharedStoreTunesAcrossEngines) {
  // Two engines sharing one store (the setalgd/session setup): traffic
  // through the first must warm the key the second consults.
  workload::DivisionConfig config;
  config.num_groups = 100;
  config.group_size = 4;
  config.domain_size = 32;
  config.divisor_size = 8;
  config.match_fraction = 0.02;
  config.seed = 5;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto store = std::make_shared<CalibrationStore>();
  {
    const Engine first(EngineOptions{}.WithCalibration(store));
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(first.Run(expr, db).ok());
  }
  const double learned = store->OutputFactor("out:division");
  EXPECT_LT(learned, 1.0);
  const Engine second(EngineOptions{}.WithCalibration(store));
  auto run = second.Run(expr, db);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->relation,
            setjoin::Divide(instance.r, instance.s,
                            setjoin::DivisionAlgorithm::kHashDivision));
  // The second engine's traffic keeps feeding the same store.
  EXPECT_GT(store->observations(), 8u);
}

TEST(EngineOptions, CalibrationChangesTheFingerprint) {
  const EngineOptions plain;
  const EngineOptions tuned = plain.WithCalibration();
  EXPECT_NE(OptionsFingerprint(plain), OptionsFingerprint(tuned))
      << "calibrated and uncalibrated plans must not share cache entries";
  // Two different stores plan alike: only presence is semantic.
  EXPECT_EQ(OptionsFingerprint(tuned), OptionsFingerprint(plain.WithCalibration()));
}

}  // namespace
}  // namespace setalg::engine

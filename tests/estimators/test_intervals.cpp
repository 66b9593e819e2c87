// Tests for the confidence-interval extension: exact chi-square intervals
// for the Poisson estimator, parametric-bootstrap intervals for the
// Bernoulli estimator, and the default point-only behaviour elsewhere.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dga/families.hpp"
#include "estimators/bernoulli.hpp"
#include "estimators/poisson.hpp"
#include "estimators/timing.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

botnet::SimulationConfig sim_config(dga::DgaConfig dga_config,
                                    std::uint32_t bots, std::uint64_t seed) {
  botnet::SimulationConfig config;
  config.dga = std::move(dga_config);
  config.bot_count = bots;
  config.seed = seed;
  config.record_raw = false;
  return config;
}

TEST(IntervalDefaultTest, TimingReturnsPointOnly) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 16, 3));
  const TimingEstimator timing;
  const IntervalEstimate estimate =
      timing.estimate_with_interval(factory.observations()[0]);
  EXPECT_FALSE(estimate.interval.has_value());
  EXPECT_DOUBLE_EQ(estimate.value,
                   timing.estimate(factory.observations()[0]));
}

TEST(PoissonIntervalTest, BracketsPointEstimate) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 64, 5));
  const PoissonEstimator poisson;
  const IntervalEstimate estimate =
      poisson.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value);
  EXPECT_GE(estimate.interval->second, estimate.value);
  EXPECT_GT(estimate.interval->first, 0.0);
}

TEST(PoissonIntervalTest, CoversTruthMostOfTheTime) {
  // Nominal 90%; demand >= 60% over 15 seeds to stay robust to the model's
  // approximations (burst extraction, non-Poisson arrival conditioning).
  const PoissonEstimator poisson;
  int covered = 0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    testing::ObservationFactory factory(sim_config(
        dga::murofet_config(), 64, 100 + static_cast<std::uint64_t>(t)));
    const IntervalEstimate estimate =
        poisson.estimate_with_interval(factory.observations()[0]);
    ASSERT_TRUE(estimate.interval.has_value());
    if (estimate.interval->first <= 64.0 && 64.0 <= estimate.interval->second) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 9) << covered << "/" << trials;
}

TEST(PoissonIntervalTest, HigherLevelWiderInterval) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 64, 7));
  const PoissonEstimator poisson;
  const auto narrow =
      poisson.estimate_with_interval(factory.observations()[0], 0.5);
  const auto wide =
      poisson.estimate_with_interval(factory.observations()[0], 0.99);
  ASSERT_TRUE(narrow.interval && wide.interval);
  EXPECT_LT(narrow.interval->second - narrow.interval->first,
            wide.interval->second - wide.interval->first);
}

TEST(PoissonIntervalTest, PointOnlyWhenRateUnmeasurable) {
  // Empty observation: no visible activations, no interval.
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 4, 9));
  EpochObservation obs = factory.observations()[0];
  obs.lookups.clear();
  const PoissonEstimator poisson;
  const IntervalEstimate estimate = poisson.estimate_with_interval(obs);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
  EXPECT_FALSE(estimate.interval.has_value());
}

TEST(PoissonIntervalTest, InvalidLevelRejected) {
  testing::ObservationFactory factory(
      sim_config(dga::murofet_config(), 8, 11));
  const PoissonEstimator poisson;
  EXPECT_THROW((void)poisson.estimate_with_interval(factory.observations()[0],
                                                    0.0),
               ConfigError);
  EXPECT_THROW((void)poisson.estimate_with_interval(factory.observations()[0],
                                                    1.0),
               ConfigError);
}

TEST(BernoulliIntervalTest, BracketsPointEstimateUnsaturated) {
  // N=16 keeps newGoZ unsaturated: the coverage-statistic bootstrap runs.
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 16, 5));
  const BernoulliEstimator bernoulli;
  const IntervalEstimate estimate =
      bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value * 1.001);
  EXPECT_GE(estimate.interval->second, estimate.value * 0.999);
}

TEST(BernoulliIntervalTest, BracketsPointEstimateSaturated) {
  // N=256 saturates newGoZ: the forwarded-count bootstrap runs.
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 256, 5));
  const BernoulliEstimator bernoulli;
  const IntervalEstimate estimate =
      bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(estimate.interval.has_value());
  EXPECT_LE(estimate.interval->first, estimate.value * 1.001);
  EXPECT_GE(estimate.interval->second, estimate.value * 0.999);
}

TEST(BernoulliIntervalTest, CoversTruthMostOfTheTime) {
  const BernoulliEstimator bernoulli;
  int covered = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    testing::ObservationFactory factory(sim_config(
        dga::newgoz_config(), 64, 200 + static_cast<std::uint64_t>(t)));
    const IntervalEstimate estimate =
        bernoulli.estimate_with_interval(factory.observations()[0]);
    ASSERT_TRUE(estimate.interval.has_value());
    if (estimate.interval->first <= 64.0 && 64.0 <= estimate.interval->second) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 7) << covered << "/" << trials;
}

TEST(BernoulliIntervalTest, DeterministicBootstrap) {
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 32, 5));
  const BernoulliEstimator bernoulli;
  const auto a = bernoulli.estimate_with_interval(factory.observations()[0]);
  const auto b = bernoulli.estimate_with_interval(factory.observations()[0]);
  ASSERT_TRUE(a.interval && b.interval);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.interval->first, b.interval->first);
  EXPECT_EQ(a.interval->second, b.interval->second);
}

TEST(BernoulliIntervalTest, SegmentMethodPointOnly) {
  testing::ObservationFactory factory(sim_config(dga::newgoz_config(), 16, 5));
  const BernoulliEstimator segment(BernoulliMethod::kSegmentExpectation);
  const IntervalEstimate estimate =
      segment.estimate_with_interval(factory.observations()[0]);
  EXPECT_FALSE(estimate.interval.has_value());
}

}  // namespace
}  // namespace botmeter::estimators

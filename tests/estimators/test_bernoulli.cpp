#include "estimators/bernoulli.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "detect/detection_window.hpp"
#include "dga/barrel.hpp"
#include "dga/families.hpp"
#include "support/observation_factory.hpp"

namespace botmeter::estimators {
namespace {

TEST(BernoulliCoverageTest, ZeroBotsZeroCoverage) {
  auto model = dga::make_pool_model(dga::newgoz_config());
  const dga::EpochPool& pool = model->epoch_pool(0);
  EXPECT_DOUBLE_EQ(BernoulliEstimator::expected_coverage(
                       pool, dga::newgoz_config(), 0.0, {}),
                   0.0);
}

TEST(BernoulliCoverageTest, MonotoneIncreasingInN) {
  auto model = dga::make_pool_model(dga::newgoz_config());
  const dga::EpochPool& pool = model->epoch_pool(0);
  double prev = 0.0;
  for (double n : {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0}) {
    const double c = BernoulliEstimator::expected_coverage(
        pool, dga::newgoz_config(), n, {});
    EXPECT_GT(c, prev);
    prev = c;
  }
  // Bounded by the NXD count.
  EXPECT_LE(prev, static_cast<double>(pool.nxd_count()));
}

TEST(BernoulliCoverageTest, MatchesMonteCarloSimulation) {
  // Cross-validate the closed form against direct sampling of randomcut
  // bots on the real pool.
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  const std::uint32_t n = 64;

  Rng rng{123};
  RunningStats coverage;
  for (int trial = 0; trial < 40; ++trial) {
    std::unordered_set<std::uint32_t> covered;
    for (std::uint32_t b = 0; b < n; ++b) {
      Rng bot = rng.fork();
      for (std::uint32_t pos : dga::make_barrel(config, pool, bot)) {
        if (pool.is_valid_position(pos)) break;
        covered.insert(pos);
      }
    }
    coverage.add(static_cast<double>(covered.size()));
  }
  const double analytic =
      BernoulliEstimator::expected_coverage(pool, config, n, {});
  EXPECT_NEAR(coverage.mean(), analytic, 0.02 * analytic);
}

TEST(BernoulliCoverageTest, MissRateScalesExpectation) {
  auto model = dga::make_pool_model(dga::newgoz_config());
  const dga::EpochPool& pool = model->epoch_pool(0);
  const double full = BernoulliEstimator::expected_coverage(
      pool, dga::newgoz_config(), 32.0, {});
  const double missed = BernoulliEstimator::expected_coverage(
      pool, dga::newgoz_config(), 32.0, 0.25);
  EXPECT_NEAR(missed, 0.75 * full, 1e-9);
}

TEST(BernoulliInversionTest, RoundTripsExpectedCoverage) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  for (double n : {1.0, 8.0, 32.0, 128.0, 500.0}) {
    const double c = BernoulliEstimator::expected_coverage(pool, config, n, {});
    const double recovered =
        BernoulliEstimator::invert_coverage(pool, config, c, {});
    EXPECT_NEAR(recovered, n, 1e-4 * n + 1e-6) << n;
  }
}

TEST(BernoulliInversionTest, ZeroAndSaturatedInputs) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  EXPECT_DOUBLE_EQ(BernoulliEstimator::invert_coverage(pool, config, 0.0, {}),
                   0.0);
  const double saturated = BernoulliEstimator::invert_coverage(
      pool, config, static_cast<double>(pool.nxd_count()), {});
  // Full coverage pins the inversion at the largest population the floating-
  // point expectation can still distinguish — large but finite.
  EXPECT_GT(saturated, 1e5);
  EXPECT_TRUE(std::isfinite(saturated));
}

TEST(BernoulliEstimatorTest, ApplicabilityIsRandomCutOnly) {
  const BernoulliEstimator estimator;
  EXPECT_TRUE(estimator.applicable(dga::newgoz_config()));
  EXPECT_FALSE(estimator.applicable(dga::murofet_config()));
  EXPECT_FALSE(estimator.applicable(dga::conficker_c_config()));
}

TEST(BernoulliEstimatorTest, WrongBarrelThrows) {
  testing::ObservationFactory factory([] {
    botnet::SimulationConfig config;
    config.dga = dga::murofet_config();
    config.bot_count = 4;
    config.seed = 5;
    return config;
  }());
  const BernoulliEstimator estimator;
  EXPECT_THROW((void)estimator.estimate(factory.observations()[0]), ConfigError);
}

botnet::SimulationConfig newgoz_sim(std::uint32_t bots, std::uint64_t seed) {
  botnet::SimulationConfig config;
  config.dga = dga::newgoz_config();
  config.bot_count = bots;
  config.timestamp_granularity = milliseconds(100);
  config.seed = seed;
  return config;
}

TEST(BernoulliRealisticTest, AccurateAcrossPopulations) {
  const BernoulliEstimator estimator;
  for (std::uint32_t n : {16u, 64u, 256u}) {
    RunningStats errors;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      testing::ObservationFactory factory(newgoz_sim(n, seed));
      errors.add(absolute_relative_error(
          estimator.estimate(factory.observations()[0]),
          static_cast<double>(n)));
    }
    EXPECT_LT(errors.mean(), 0.25) << "N=" << n;
  }
}

TEST(BernoulliRealisticTest, CoverageMethodImmuneToNegativeTtl) {
  // Fig. 6(c): the distinct-NXD statistic is untouched by caching, so the
  // pure coverage method returns bit-identical estimates across TTLs.
  const BernoulliEstimator estimator(BernoulliMethod::kCoverageInversion);
  botnet::SimulationConfig short_ttl = newgoz_sim(64, 9);
  short_ttl.ttl.negative = minutes(20);
  botnet::SimulationConfig long_ttl = newgoz_sim(64, 9);
  long_ttl.ttl.negative = minutes(320);
  const double e_short = estimator.estimate(
      testing::ObservationFactory(short_ttl).observations()[0]);
  const double e_long = estimator.estimate(
      testing::ObservationFactory(long_ttl).observations()[0]);
  EXPECT_NEAR(e_short, e_long, 1e-9);
}

TEST(BernoulliRealisticTest, AdaptiveMethodAccurateAcrossTtls) {
  // The adaptive method models the TTL explicitly, so its *accuracy* (not
  // its raw statistic) stays flat as the negative TTL sweeps Fig. 6(c)'s
  // range.
  const BernoulliEstimator estimator;
  for (int ttl_minutes : {20, 80, 320}) {
    botnet::SimulationConfig sim = newgoz_sim(128, 15);
    sim.ttl.negative = minutes(ttl_minutes);
    testing::ObservationFactory factory(sim);
    const double estimate = estimator.estimate(factory.observations()[0]);
    EXPECT_LT(absolute_relative_error(estimate, 128.0), 0.25)
        << "ttl=" << ttl_minutes;
  }
}

TEST(BernoulliRealisticTest, UncorrectedMissRateUnderestimates) {
  // Fig. 6(e): hiding NXDs from the matcher drags the estimate down.
  const BernoulliEstimator estimator;
  testing::ObservationFactory full(newgoz_sim(128, 13), 0.0);
  testing::ObservationFactory missing(newgoz_sim(128, 13), 0.5);
  const double e_full = estimator.estimate(full.observations()[0]);
  const double e_missing = estimator.estimate(missing.observations()[0]);
  EXPECT_LT(e_missing, e_full * 0.75);
}

TEST(BernoulliRealisticTest, MissRateCorrectionRestoresAccuracy) {
  // Extension: telling the estimator the calibrated miss rate re-centres it.
  const BernoulliEstimator estimator;
  testing::ObservationFactory corrected(newgoz_sim(128, 13), 0.4, 0.4);
  const double estimate = estimator.estimate(corrected.observations()[0]);
  EXPECT_LT(absolute_relative_error(estimate, 128.0), 0.25);
}

TEST(BernoulliSegmentMethodTest, ReasonableOnRealisticTraffic) {
  const BernoulliEstimator estimator(BernoulliMethod::kSegmentExpectation);
  RunningStats errors;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    testing::ObservationFactory factory(newgoz_sim(64, seed * 7));
    errors.add(absolute_relative_error(
        estimator.estimate(factory.observations()[0]), 64.0));
  }
  EXPECT_LT(errors.mean(), 0.40);
}

TEST(BernoulliSegmentMethodTest, EmptyObservationIsZero) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  const auto window = detect::perfect_detection(pool);
  EpochObservation obs;
  obs.config = &config;
  obs.pool = &pool;
  obs.window = &window;
  obs.window_start = TimePoint{0};
  obs.window_length = days(1);
  const BernoulliEstimator estimator(BernoulliMethod::kSegmentExpectation);
  EXPECT_DOUBLE_EQ(estimator.estimate(obs), 0.0);
}

TEST(BernoulliEstimatorTest, DistinctCountCoversPositionsPastThePool) {
  // The coverage estimate is a function of the distinct NXD count alone, so
  // a stream naming three distinct positions — two of them past the pool,
  // as only a corrupted stream would — must estimate like any other stream
  // naming three.
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  const auto window = detect::perfect_detection(pool);
  std::vector<std::uint32_t> nxds;
  for (std::uint32_t d = 0; nxds.size() < 3; ++d) {
    if (!pool.is_valid_position(d)) nxds.push_back(d);
  }
  const auto observe = [&](const std::vector<std::uint32_t>& positions) {
    EpochObservation obs;
    obs.config = &config;
    obs.pool = &pool;
    obs.window = &window;
    std::int64_t t = 0;
    for (const std::uint32_t pos : positions) {
      obs.lookups.push_back({TimePoint{t++}, pos, false});
    }
    return obs;
  };
  const BernoulliEstimator coverage(BernoulliMethod::kCoverageInversion);
  const double in_pool = coverage.estimate(observe(nxds));
  EXPECT_GT(in_pool, 0.0);
  EXPECT_EQ(coverage.estimate(observe({nxds[0], pool.size() + 7, nxds[0],
                                       pool.size() + 5, pool.size() + 7})),
            in_pool);
}

TEST(BernoulliEstimatorTest, NamesDistinguishMethods) {
  EXPECT_EQ(BernoulliEstimator(BernoulliMethod::kAdaptive).name(), "bernoulli");
  EXPECT_EQ(BernoulliEstimator(BernoulliMethod::kCoverageInversion).name(),
            "bernoulli-coverage");
  EXPECT_EQ(BernoulliEstimator(BernoulliMethod::kSegmentExpectation).name(),
            "bernoulli-segment");
}

TEST(BernoulliForwardCountTest, MonotoneAndTtlAware) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  double prev = 0.0;
  for (double n : {1.0, 10.0, 100.0, 1000.0}) {
    const double f = BernoulliEstimator::expected_forward_count(
        pool, config, n, hours(2), days(1), {});
    EXPECT_GT(f, prev);
    prev = f;
  }
  // A longer negative TTL masks more lookups.
  const double short_ttl = BernoulliEstimator::expected_forward_count(
      pool, config, 128.0, minutes(20), days(1), {});
  const double long_ttl = BernoulliEstimator::expected_forward_count(
      pool, config, 128.0, minutes(320), days(1), {});
  EXPECT_GT(short_ttl, long_ttl);
}

TEST(BernoulliForwardCountTest, InversionRoundTrips) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  for (double n : {4.0, 32.0, 256.0, 2000.0}) {
    const double f = BernoulliEstimator::expected_forward_count(
        pool, config, n, hours(2), days(1), {});
    EXPECT_NEAR(BernoulliEstimator::invert_forward_count(pool, config, f,
                                                         hours(2), days(1), {}),
                n, 1e-3 * n);
  }
}

TEST(BernoulliForwardCountTest, InvalidArgumentsRejected) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& pool = model->epoch_pool(0);
  EXPECT_THROW((void)BernoulliEstimator::expected_forward_count(
                   pool, config, -1.0, hours(2), days(1), {}),
               ConfigError);
  EXPECT_THROW((void)BernoulliEstimator::expected_forward_count(
                   pool, config, 1.0, Duration{0}, days(1), {}),
               ConfigError);
}

}  // namespace
}  // namespace botmeter::estimators

// Golden bit-exact Bernoulli intervals.
//
// The parametric bootstrap behind BernoulliEstimator::estimate_with_interval
// is a deterministic function of the observation, so its value and interval
// bounds are pinned here as hex-float literals and compared with exact `==`.
// The grid spans both bootstrap regimes (distinct coverage below saturation,
// forwarded counts above it), keep < 1 (interleaved detection-thinning
// draws), a saturated KMV compact cell, a small synthetic pool whose runs
// wrap past position 0 with theta_q at least the arc length, domains dense
// with arrivals on the TTL scale, a barrel far shorter than its pool, runs
// spanning most of the window, and a short negative TTL under which one
// bot's run outlasts the TTL. The literals were produced by the per-bot walk
// re-simulation that the domain-sweep kernel replaced. The cells that
// exercise chain reuse (thinning draws over reused chains, chain members
// leaving the window, few bots on long arcs, 16384 bots) were recorded from
// the domain sweep before it reused chains across domains. Observations are
// synthesised directly from a seeded RNG so the goldens depend only on the
// estimator, not on the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "detect/detection_window.hpp"
#include "dga/families.hpp"
#include "dga/pool.hpp"
#include "estimators/bernoulli.hpp"
#include "estimators/compact_observation.hpp"

namespace botmeter::estimators {
namespace {

/// Lookups a randomcut population of `bots` leaves at one server: each bot
/// activates at a uniform time, starts at a uniform pool position and queries
/// one domain per interval until it reaches a valid position or theta_q
/// steps. An NXD is forwarded unless a forward of it is still negatively
/// cached; a fraction `miss` of NXD positions is invisible to the detector.
std::vector<detect::MatchedLookup> synthetic_lookups(
    const dga::EpochPool& pool, const dga::DgaConfig& config,
    std::uint32_t bots, Duration window_length, Duration negative_ttl,
    double miss, std::uint64_t seed) {
  Rng rng{seed};
  const std::uint32_t size = pool.size();
  std::vector<bool> missed(size);
  for (std::uint32_t d = 0; d < size; ++d) missed[d] = rng.bernoulli(miss);

  const std::int64_t window_ms = window_length.millis();
  const std::int64_t step_ms = config.query_interval.millis();
  std::vector<std::pair<std::int64_t, std::uint32_t>> queries;
  for (std::uint32_t b = 0; b < bots; ++b) {
    auto pos = static_cast<std::uint32_t>(rng.uniform(size));
    const auto t0 = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(window_ms)));
    for (std::uint32_t s = 0; s < config.barrel_size; ++s) {
      const std::int64_t t = t0 + s * step_ms;
      if (t >= window_ms) break;
      queries.emplace_back(t, pos);
      if (pool.is_valid_position(pos)) break;
      pos = (pos + 1) % size;
    }
  }
  std::sort(queries.begin(), queries.end());

  std::vector<detect::MatchedLookup> lookups;
  std::vector<std::int64_t> blocked_until(size, -1);
  for (const auto& [t, pos] : queries) {
    const bool valid = pool.is_valid_position(pos);
    if (!valid) {
      if (t < blocked_until[pos]) continue;
      blocked_until[pos] = t + negative_ttl.millis();
      if (missed[pos]) continue;
    }
    lookups.push_back({TimePoint{t}, pos, valid});
  }
  return lookups;
}

/// One golden cell: the pool/config it runs on plus the synthesis knobs.
struct CellSpec {
  const dga::EpochPool* pool = nullptr;
  const dga::DgaConfig* config = nullptr;
  std::uint32_t bots = 0;
  Duration window_length = days(1);
  Duration negative_ttl = hours(2);
  std::optional<double> miss_rate;
  std::optional<std::uint32_t> kmv_k;  // set: consume a compact cell
  std::uint64_t seed = 1;
};

struct Golden {
  double value;
  double lo;
  double hi;
};

std::string hex(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", x);
  return buffer;
}

/// Which statistic the bootstrap resamples: distinct coverage below 70% of
/// the detectable NXD ceiling, forwarded counts from there on.
enum class Regime { kCoverage, kForward };

void expect_golden(const CellSpec& spec, Regime regime, const Golden& golden) {
  const detect::DetectionWindow window = detect::perfect_detection(*spec.pool);
  EpochObservation obs;
  obs.lookups = synthetic_lookups(*spec.pool, *spec.config, spec.bots,
                                  spec.window_length, spec.negative_ttl,
                                  spec.miss_rate.value_or(0.0), spec.seed);
  obs.config = spec.config;
  obs.pool = spec.pool;
  obs.window = &window;
  obs.ttl.negative = spec.negative_ttl;
  obs.window_start = TimePoint{0};
  obs.window_length = spec.window_length;
  obs.assumed_miss_rate = spec.miss_rate;

  const BernoulliEstimator estimator;
  std::unordered_set<std::uint32_t> nxds;
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (!lookup.is_valid_domain) nxds.insert(lookup.pool_position);
  }
  double distinct = static_cast<double>(nxds.size());
  IntervalEstimate got;
  if (!spec.kmv_k) {
    got = estimator.estimate_with_interval(obs);
  } else {
    CompactObservationConfig compact;
    compact.kmv_k = *spec.kmv_k;
    CompactCell cell(make_compact_spec(compact, estimator.compact_support(),
                                       obs.window_start, obs.window_length,
                                       obs.ttl));
    cell.add_all(obs.lookups);
    ASSERT_TRUE(cell.distinct_nxd()->saturated());
    distinct = cell.distinct_nxd()->estimate();
    CompactObservation compact_obs;
    compact_obs.cell = &cell;
    compact_obs.config = obs.config;
    compact_obs.pool = obs.pool;
    compact_obs.window = obs.window;
    compact_obs.ttl = obs.ttl;
    compact_obs.window_start = obs.window_start;
    compact_obs.window_length = obs.window_length;
    compact_obs.assumed_miss_rate = obs.assumed_miss_rate;
    got = estimator.estimate_with_interval(compact_obs);
    EXPECT_TRUE(got.approximate);
  }

  const double keep = 1.0 - spec.miss_rate.value_or(0.0);
  const double ceiling = static_cast<double>(spec.pool->nxd_count()) * keep;
  EXPECT_EQ(distinct >= 0.7 * ceiling, regime == Regime::kForward)
      << distinct << " distinct of a " << ceiling << " ceiling";
  ASSERT_TRUE(got.interval.has_value());
  std::string actual = hex(got.value);
  actual += ", " + hex(got.interval->first);
  actual += ", " + hex(got.interval->second);
  EXPECT_EQ(got.value, golden.value) << actual;
  EXPECT_EQ(got.interval->first, golden.lo) << actual;
  EXPECT_EQ(got.interval->second, golden.hi) << actual;
}

/// A randomcut family over a synthetic ring of `size` positions.
void make_ring(dga::DgaConfig& config, dga::EpochPool& pool,
               std::uint32_t size, std::vector<std::uint32_t> valid,
               std::uint32_t theta_q, Duration query_interval) {
  config.name = "ring";
  config.taxonomy = {dga::PoolModel::kDrainReplenish,
                     dga::BarrelModel::kRandomCut};
  config.valid_count = static_cast<std::uint32_t>(valid.size());
  config.nxd_count = size - config.valid_count;
  config.barrel_size = theta_q;
  config.query_interval = query_interval;
  pool.epoch = 3;
  for (std::uint32_t d = 0; d < size; ++d) {
    pool.domains.push_back(std::to_string(d) + ".ring.example");
  }
  pool.valid_positions = std::move(valid);
}

class BernoulliGoldenTest : public ::testing::Test {
 protected:
  BernoulliGoldenTest()
      : newgoz_(dga::newgoz_config()),
        newgoz_model_(dga::make_pool_model(newgoz_)),
        newgoz_pool_(&newgoz_model_->epoch_pool(0)) {
    // Valid positions 5, 17 and 40 cut 61 positions into arcs of 11, 22
    // and 25 NXDs, the last wrapping past position 0, all no longer than
    // theta_q = 30.
    make_ring(wrap_, wrap_pool_, 61, {5, 17, 40}, 30, seconds(10));
    // Four arcs of 4999 NXDs walked 10 at a time.
    make_ring(short_barrel_, short_barrel_pool_, 20000,
              {0, 5000, 10000, 15000}, 10, seconds(1));
    // Two arcs of 99 NXDs; a run of up to 99 queries 20 s apart spans most
    // of an hour-long window.
    make_ring(long_runs_, long_runs_pool_, 200, {0, 100}, 150, seconds(20));
    // Two arcs of 14999 NXDs walked one second apart: a run lasts up to
    // about four hours, so a handful of bots leave thousands of domains
    // between consecutive run starts and ends.
    make_ring(long_arcs_, long_arcs_pool_, 30000, {0, 15000}, 15000,
              seconds(1));
  }

  CellSpec newgoz(std::uint32_t bots, std::optional<double> miss = {}) const {
    CellSpec spec;
    spec.pool = newgoz_pool_;
    spec.config = &newgoz_;
    spec.bots = bots;
    spec.miss_rate = miss;
    spec.seed = 0x60D1 + bots;
    return spec;
  }

  CellSpec wrap(std::uint32_t bots, std::optional<double> miss = {}) const {
    CellSpec spec;
    spec.pool = &wrap_pool_;
    spec.config = &wrap_;
    spec.bots = bots;
    spec.window_length = hours(1);
    spec.negative_ttl = minutes(2);
    spec.miss_rate = miss;
    spec.seed = 0x3A9 + bots;
    return spec;
  }

  dga::DgaConfig newgoz_;
  std::unique_ptr<dga::QueryPoolModel> newgoz_model_;
  const dga::EpochPool* newgoz_pool_;
  dga::DgaConfig wrap_;
  dga::EpochPool wrap_pool_;
  dga::DgaConfig short_barrel_;
  dga::EpochPool short_barrel_pool_;
  dga::DgaConfig long_runs_;
  dga::EpochPool long_runs_pool_;
  dga::DgaConfig long_arcs_;
  dga::EpochPool long_arcs_pool_;
};

TEST_F(BernoulliGoldenTest, NewGoZ) {
  expect_golden(newgoz(16), Regime::kCoverage,
                {0x1.1a7d8fdep+4, 0x1.a91621bep+3, 0x1.732e366ap+4});
  expect_golden(newgoz(64), Regime::kForward,
                {0x1.086abbe2p+6, 0x1.e39cf1e4p+5, 0x1.1fd3ddbep+6});
  expect_golden(newgoz(256), Regime::kForward,
                {0x1.038cf0a6p+8, 0x1.d973e71ep+7, 0x1.1c7e0b3ep+8});
  expect_golden(newgoz(1024), Regime::kForward,
                {0x1.fc5eaaacp+9, 0x1.d34da2fap+9, 0x1.157567f2p+10});
}

TEST_F(BernoulliGoldenTest, NewGoZAssumedMissRate) {
  // keep < 1 interleaves one thinning draw per covered domain or forward.
  expect_golden(newgoz(16, 0.2), Regime::kCoverage,
                {0x1.cba8fdaep+3, 0x1.68c4cfb6p+3, 0x1.1ffde75ep+4});
  expect_golden(newgoz(64, 0.2), Regime::kForward,
                {0x1.0316ce42p+6, 0x1.c2c513e6p+5, 0x1.269c71cap+6});
  expect_golden(newgoz(256, 0.2), Regime::kForward,
                {0x1.d24096cap+7, 0x1.a7c3527ep+7, 0x1.004dfed6p+8});
  expect_golden(newgoz(1024, 0.2), Regime::kForward,
                {0x1.e9455714p+9, 0x1.c22ebdeap+9, 0x1.0abf23f2p+10});
}

TEST_F(BernoulliGoldenTest, SaturatedCompactCell) {
  // The coverage band is widened by the KMV error; the forwarded count stays
  // exact in a compact cell.
  CellSpec coverage = newgoz(16);
  coverage.kmv_k = 32;
  expect_golden(coverage, Regime::kCoverage,
                {0x1.16a888aap+4, 0x1.2b59604ep+3, 0x1.ebf58604p+4});
  CellSpec forward = newgoz(1024);
  forward.kmv_k = 32;
  expect_golden(forward, Regime::kForward,
                {0x1.fc5eaaacp+9, 0x1.d34da2fap+9, 0x1.157567f2p+10});
}

TEST_F(BernoulliGoldenTest, RunsWrapPastPositionZero) {
  expect_golden(wrap(2), Regime::kCoverage,
                {0x1.66abd2b2p+0, 0x1.fedaf82p-4, 0x1.b2769d92p+1});
  expect_golden(wrap(16), Regime::kForward,
                {0x1.cbf8748ap+3, 0x1.44b453f6p+3, 0x1.2dddd6b6p+4});
  expect_golden(wrap(16, 0.2), Regime::kCoverage,
                {0x1.a8ec684ap+2, 0x1.3002269ep+1, 0x1.0ca717a2p+5});
  expect_golden(wrap(32, 0.2), Regime::kForward,
                {0x1.1405df92p+5, 0x1.af9a30c2p+4, 0x1.5606144ep+5});
}

TEST_F(BernoulliGoldenTest, DenseDomains) {
  // Enough bots that every domain sees many arrivals inside one negative
  // TTL window, so most of them are blocked rather than forwarded.
  expect_golden(newgoz(4096), Regime::kForward,
                {0x1.f2a083d4p+11, 0x1.d4e2462ep+11, 0x1.0cdaeeb2p+12});
  expect_golden(newgoz(4096, 0.2), Regime::kForward,
                {0x1.c9bdd2bap+11, 0x1.a101fd46p+11, 0x1.01f3f67ap+12});
  CellSpec spec = wrap(256);
  spec.negative_ttl = minutes(10);
  expect_golden(spec, Regime::kForward,
                {0x1.8b9ef1a6p+7, 0x1.3cdaf32ap+7, 0x1.01c3b72ap+8});
}

TEST_F(BernoulliGoldenTest, BarrelMuchShorterThanPool) {
  // A handful of bots active at each domain among thousands of ranks.
  CellSpec spec;
  spec.pool = &short_barrel_pool_;
  spec.config = &short_barrel_;
  spec.bots = 8192;
  spec.seed = 0x5B;
  expect_golden(spec, Regime::kForward,
                {0x1.000441b2p+13, 0x1.fb323ee4p+12, 0x1.02724a02p+13});
}

TEST_F(BernoulliGoldenTest, RunsSpanningMostOfTheWindow) {
  // With a 1 s negative TTL nearly every arrival is forwarded, and each
  // domain's arrivals lie far from the order of their bots' start times.
  CellSpec spec;
  spec.pool = &long_runs_pool_;
  spec.config = &long_runs_;
  spec.bots = 400;
  spec.window_length = hours(1);
  spec.negative_ttl = seconds(1);
  spec.seed = 0x10;
  expect_golden(spec, Regime::kForward,
                {0x1.569aab42p+8, 0x1.4606eeaep+8, 0x1.673add5ep+8});
}

TEST_F(BernoulliGoldenTest, ShortNegativeTtlLongChains) {
  // theta_q steps of one second outlast a 30 s negative TTL, so one
  // domain's forward chain runs through many arrivals.
  CellSpec spec = newgoz(1024);
  spec.negative_ttl = seconds(30);
  expect_golden(spec, Regime::kForward,
                {0x1.feaa95dcp+9, 0x1.f5cf6464p+9, 0x1.03c38c22p+10});
  spec.miss_rate = 0.2;
  expect_golden(spec, Regime::kForward,
                {0x1.f5567d14p+9, 0x1.ecc84384p+9, 0x1.fde5f134p+9});
}

TEST_F(BernoulliGoldenTest, ThinnedDrawsOverReusedChains) {
  // At 1024 bots most newGoZ domains see no run start or end, so one
  // domain's forward chain carries on to the next; keep < 1 draws once per
  // chain member there.
  CellSpec spec = newgoz(1024, 0.2);
  spec.seed = 0xD7A4;
  expect_golden(spec, Regime::kForward,
                {0x1.fa2e94d4p+9, 0x1.d2dc56a2p+9, 0x1.1342bd4ap+10});
  spec.negative_ttl = hours(6);
  expect_golden(spec, Regime::kForward,
                {0x1.b9e3059ep+9, 0x1.70bf10c2p+9, 0x1.2495bdeep+10});
}

TEST_F(BernoulliGoldenTest, ChainMembersLeaveTheWindow) {
  // Few bots on the long-runs ring: between run starts and ends, the
  // arrivals of a chain's last members move past the window's end.
  CellSpec spec;
  spec.pool = &long_runs_pool_;
  spec.config = &long_runs_;
  spec.bots = 24;
  spec.window_length = hours(1);
  spec.negative_ttl = minutes(5);
  spec.seed = 0x24;
  expect_golden(spec, Regime::kForward,
                {0x1.1c0947fap+4, 0x1.9800435ep+3, 0x1.7b9aab22p+4});
  spec.miss_rate = 0.2;
  expect_golden(spec, Regime::kForward,
                {0x1.b3bfac6ap+3, 0x1.21082bb6p+3, 0x1.3191b37ap+4});
}

TEST_F(BernoulliGoldenTest, FewBotsOnLongArcs) {
  // One chain stays unchanged across thousands of consecutive domains.
  CellSpec spec;
  spec.pool = &long_arcs_pool_;
  spec.config = &long_arcs_;
  spec.bots = 16;
  spec.seed = 0xA4C;
  expect_golden(spec, Regime::kForward,
                {0x1.0ae5dd52p+4, 0x1.5c066122p+3, 0x1.7e1684e6p+4});
  spec.miss_rate = 0.2;
  expect_golden(spec, Regime::kForward,
                {0x1.9bbb90e6p+3, 0x1.fbc8cbbcp+2, 0x1.2e120c8ep+4});
}

TEST_F(BernoulliGoldenTest, DenseSixteenThousandBots) {
  // The micro benchmark's densest cell: every domain has run starts and
  // ends, and hundreds of arrivals per negative-TTL window.
  expect_golden(newgoz(16384), Regime::kForward,
                {0x1.0087be06p+14, 0x1.b43bc5f2p+13, 0x1.36ec91dap+14});
}

}  // namespace
}  // namespace botmeter::estimators

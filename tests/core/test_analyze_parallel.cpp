// Determinism of the parallel, memoized analysis pipeline.
//
// BotMeterConfig::analyze_threads promises a bit-identical LandscapeReport
// for every thread count, and share_estimation_context promises the memo
// cache is a pure accelerator. Both are checked the strictest way we have:
// the canonical JSON rendering (byte-stable writer, every double bit
// included) compared as strings. Also pins the prepare_epochs batching
// invariance and the parallel matcher merge order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "core/botmeter.hpp"
#include "detect/matcher.hpp"
#include "dga/families.hpp"
#include "estimators/library.hpp"

namespace botmeter::core {
namespace {

struct Scenario {
  dga::DgaConfig dga;
  std::uint32_t bots = 16;
  std::size_t servers = 2;
  std::int64_t first_epoch = 0;
  std::int64_t epochs = 2;
  std::uint64_t seed = 5;
  double miss_rate = 0.0;
};

std::vector<dns::ForwardedLookup> simulate_stream(const Scenario& s) {
  botnet::SimulationConfig sim;
  sim.dga = s.dga;
  sim.bot_count = s.bots;
  sim.server_count = s.servers;
  sim.first_epoch = s.first_epoch;
  sim.epoch_count = s.epochs;
  sim.seed = s.seed;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

dga::DgaConfig thin_conficker() {
  dga::DgaConfig config = dga::conficker_c_config();
  config.nxd_count = 9995;
  config.barrel_size = 300;
  return config;
}

/// Every registered model applicable to the family, plus "" (the paper's
/// recommendation — exercises the hybrid for A_R families).
std::vector<std::string> estimator_names(const dga::DgaConfig& dga) {
  static const estimators::ModelLibrary library;
  std::vector<std::string> names{""};
  for (const estimators::Estimator* model : library.applicable(dga)) {
    names.emplace_back(model->name());
  }
  return names;
}

std::string landscape_json(const Scenario& s, const std::string& estimator,
                           std::span<const dns::ForwardedLookup> stream,
                           std::size_t threads, bool share_context = true) {
  BotMeterConfig config;
  config.dga = s.dga;
  config.estimator = estimator;
  config.detection_miss_rate = s.miss_rate;
  config.analyze_threads = threads;
  config.share_estimation_context = share_context;
  BotMeter meter(config);
  meter.prepare_epochs(s.first_epoch, s.epochs);
  return json::write(landscape_to_json(meter.analyze(stream, s.servers)));
}

std::vector<Scenario> flat_scenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back({dga::newgoz_config(), 16, 3, 0, 2, 5});
  scenarios.push_back({dga::murofet_config(), 24, 2, 0, 2, 6});
  scenarios.push_back({thin_conficker(), 16, 2, 0, 2, 7});
  // Imperfect detection exercises the window-sampling RNG too.
  scenarios.push_back({dga::newgoz_config(), 16, 2, 0, 2, 9, 0.3});
  return scenarios;
}

TEST(AnalyzeParallelTest, ThreadCountsAreByteIdentical) {
  for (const Scenario& s : flat_scenarios()) {
    const auto stream = simulate_stream(s);
    ASSERT_FALSE(stream.empty()) << s.dga.name;
    for (const std::string& estimator : estimator_names(s.dga)) {
      SCOPED_TRACE(s.dga.name + "/" +
                   (estimator.empty() ? "(recommended)" : estimator));
      const std::string serial = landscape_json(s, estimator, stream, 1);
      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        EXPECT_EQ(landscape_json(s, estimator, stream, threads), serial)
            << threads << " threads diverged from serial";
      }
    }
  }
}

TEST(AnalyzeParallelTest, HardwareThreadCountIsByteIdentical) {
  // analyze_threads == 0 resolves to hardware concurrency — whatever that
  // is on the host, the landscape must not move.
  const Scenario s{dga::newgoz_config(), 16, 3, 0, 2, 5};
  const auto stream = simulate_stream(s);
  EXPECT_EQ(landscape_json(s, "", stream, 0),
            landscape_json(s, "", stream, 1));
}

TEST(AnalyzeParallelTest, TieredTraceThreadCountsAreByteIdentical) {
  botnet::TieredSimulationConfig config;
  config.base.dga = dga::newgoz_config();
  config.base.bot_count = 48;
  config.base.server_count = 6;  // local resolvers
  config.base.seed = 11;
  config.base.record_raw = false;
  config.base.ttl.negative = minutes(10);
  config.regional_count = 2;
  config.regional_ttl.negative = hours(2);
  auto pool_model = dga::make_pool_model(config.base.dga);
  const auto result = botnet::simulate_tiered(config, *pool_model);
  ASSERT_FALSE(result.observable.empty());

  for (const std::string& estimator : estimator_names(config.base.dga)) {
    SCOPED_TRACE(estimator.empty() ? "(recommended)" : estimator);
    std::string serial;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      BotMeterConfig meter_config;
      meter_config.dga = config.base.dga;
      meter_config.ttl = config.regional_ttl;  // border sees the regional tier
      meter_config.estimator = estimator;
      meter_config.analyze_threads = threads;
      BotMeter meter(meter_config);
      meter.prepare_epochs(0, 1);
      const std::string rendered = json::write(
          landscape_to_json(meter.analyze(result.observable, 2)));
      if (threads == 1) {
        serial = rendered;
      } else {
        EXPECT_EQ(rendered, serial) << threads << " threads";
      }
    }
  }
}

TEST(AnalyzeParallelTest, MemoCacheIsAPureAccelerator) {
  for (const Scenario& s : flat_scenarios()) {
    const auto stream = simulate_stream(s);
    for (const std::string& estimator : estimator_names(s.dga)) {
      SCOPED_TRACE(s.dga.name + "/" +
                   (estimator.empty() ? "(recommended)" : estimator));
      const std::string cached = landscape_json(s, estimator, stream, 1, true);
      EXPECT_EQ(landscape_json(s, estimator, stream, 1, false), cached)
          << "serial memo-off diverged";
      EXPECT_EQ(landscape_json(s, estimator, stream, 8, false), cached)
          << "threaded memo-off diverged";
    }
  }
}

TEST(AnalyzeParallelTest, PrepareEpochsBatchingDoesNotMoveWindows) {
  // Each epoch samples its detection window from a (seed, epoch) substream,
  // so preparing [0,6) at once, in two halves, or back-to-front must yield
  // the same windows — and therefore the same landscape.
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 6, 13, 0.3};
  const auto stream = simulate_stream(s);

  const auto make_meter = [&] {
    BotMeterConfig config;
    config.dga = s.dga;
    config.detection_miss_rate = s.miss_rate;
    return config;
  };
  BotMeter whole(make_meter());
  whole.prepare_epochs(0, 6);
  BotMeter split(make_meter());
  split.prepare_epochs(0, 3);
  split.prepare_epochs(3, 3);
  BotMeter reversed(make_meter());
  reversed.prepare_epochs(3, 3);
  reversed.prepare_epochs(0, 3);

  for (std::int64_t e = 0; e < 6; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const detect::DetectionWindow& reference = whole.window_for_epoch(e);
    EXPECT_EQ(split.window_for_epoch(e).detected, reference.detected);
    EXPECT_EQ(reversed.window_for_epoch(e).detected, reference.detected);
  }
  const std::string reference =
      json::write(landscape_to_json(whole.analyze(stream, s.servers)));
  EXPECT_EQ(json::write(landscape_to_json(split.analyze(stream, s.servers))),
            reference);
  EXPECT_EQ(json::write(landscape_to_json(reversed.analyze(stream, s.servers))),
            reference);
}

TEST(AnalyzeParallelTest, UnpreparedEpochStillThrows) {
  BotMeterConfig config;
  config.dga = dga::newgoz_config();
  BotMeter meter(config);
  meter.prepare_epochs(0, 2);
  EXPECT_THROW((void)meter.window_for_epoch(5), ConfigError);
}

TEST(AnalyzeParallelTest, ShardedMatcherEqualsSerialMatch) {
  const Scenario s{dga::newgoz_config(), 24, 3, 0, 2, 17, 0.2};
  const auto stream = simulate_stream(s);
  ASSERT_FALSE(stream.empty());

  BotMeterConfig config;
  config.dga = s.dga;
  config.detection_miss_rate = s.miss_rate;
  BotMeter meter(config);
  meter.prepare_epochs(s.first_epoch, s.epochs);

  detect::MatchStats serial_stats;
  const detect::MatchedStreams serial =
      meter.matcher().match(stream, &serial_stats);
  ASSERT_GT(serial_stats.matched, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    WorkerPool workers(threads, WorkerPool::Oversubscribe::kAllow);
    detect::MatchStats sharded_stats;
    const detect::MatchedStreams sharded =
        meter.matcher().match(stream, &sharded_stats, &workers);
    EXPECT_EQ(sharded_stats.stream_size, serial_stats.stream_size);
    EXPECT_EQ(sharded_stats.matched, serial_stats.matched);
    EXPECT_EQ(sharded_stats.unmatched, serial_stats.unmatched);
    EXPECT_EQ(sharded_stats.valid_domain, serial_stats.valid_domain);
    EXPECT_EQ(sharded_stats.nxd, serial_stats.nxd);
    EXPECT_EQ(sharded, serial);
  }
}

TEST(AnalyzeParallelTest, MatchStatsTalliedWithoutRegistry) {
  // Satellite regression: tallies must not require an attached metrics
  // registry — the stats out-parameter alone is enough.
  const Scenario s{dga::newgoz_config(), 8, 2, 0, 1, 19};
  const auto stream = simulate_stream(s);
  BotMeterConfig config;
  config.dga = s.dga;
  BotMeter meter(config);
  meter.prepare_epochs(0, 1);
  detect::MatchStats stats;
  (void)meter.matcher().match(stream, &stats);
  EXPECT_EQ(stats.stream_size, stream.size());
  EXPECT_EQ(stats.matched + stats.unmatched, stats.stream_size);
  EXPECT_EQ(stats.valid_domain + stats.nxd, stats.matched);
}

TEST(AnalyzeParallelTest, BlockMatchedLandscapeEqualsAnalyze) {
  // The tools' batch path: resolve each block of columns, bucket it through
  // match_block as it arrives, then estimate. Same landscape bytes and the
  // same tallies as analyze() over the whole stream, with benign traffic
  // mixed in and on a sliding-window family whose domains span epochs.
  std::vector<Scenario> scenarios = flat_scenarios();
  scenarios.push_back({dga::family_config("Ranbyus"), 16, 3, 40, 3, 23});
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.dga.name);
    std::vector<dns::ForwardedLookup> stream = simulate_stream(s);
    for (std::size_t i = 0; i < stream.size(); i += 3) {
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(i),
                    {stream[i].timestamp, stream[i].forwarder,
                     "benign" + std::to_string(i) + ".example"});
    }
    BotMeterConfig config;
    config.dga = s.dga;
    config.detection_miss_rate = s.miss_rate;
    BotMeter meter(config);
    meter.prepare_epochs(s.first_epoch, s.epochs);
    const detect::DomainMatcher& matcher = meter.matcher();

    detect::MatchStats whole_stats;
    (void)matcher.match(stream, &whole_stats);
    detect::MatchStats stats;
    detect::MatchedStreams matched;
    constexpr std::size_t kBlock = 1000;
    for (std::size_t lo = 0; lo < stream.size(); lo += kBlock) {
      const std::size_t n = std::min(kBlock, stream.size() - lo);
      std::vector<std::int64_t> t_ms(n);
      std::vector<std::uint32_t> server(n), entry(n);
      std::vector<std::string_view> domain(n);
      for (std::size_t i = 0; i < n; ++i) {
        t_ms[i] = stream[lo + i].timestamp.millis();
        server[i] = stream[lo + i].forwarder.value();
        domain[i] = stream[lo + i].domain;
      }
      std::vector<detect::DomainMatcher::Resolved> resolved(n);
      matcher.resolve_many(domain, resolved);
      for (std::size_t i = 0; i < n; ++i) entry[i] = resolved[i].entry();
      matcher.match_block({t_ms, server, entry}, matched, stats);
    }
    EXPECT_EQ(stats, whole_stats);
    EXPECT_GT(stats.matched, 0u);
    EXPECT_GT(stats.unmatched, 0u);
    EXPECT_EQ(json::write(landscape_to_json(
                  meter.analyze_matched(std::move(matched), stats, s.servers))),
              json::write(landscape_to_json(meter.analyze(stream, s.servers))));
  }
}

TEST(AnalyzeParallelTest, MatchBlockRejectsIdsOutsideTheIndex) {
  BotMeterConfig config;
  config.dga = dga::newgoz_config();
  BotMeter meter(config);
  meter.prepare_epochs(0, 1);
  const std::int64_t t[] = {0, 1};
  const std::uint32_t server[] = {0, 0};
  const std::uint32_t entry[] = {detect::DomainMatcher::kNoEntry,
                                 meter.matcher().entry_count()};
  detect::MatchedStreams matched;
  detect::MatchStats stats;
  EXPECT_THROW(meter.matcher().match_block({t, server, entry}, matched, stats),
               DataError);
  EXPECT_EQ(stats.stream_size, 0u);  // rejected before any tuple
  const std::uint32_t short_server[] = {0};
  EXPECT_THROW(
      meter.matcher().match_block({t, short_server, entry}, matched, stats),
      DataError);
}

}  // namespace
}  // namespace botmeter::core

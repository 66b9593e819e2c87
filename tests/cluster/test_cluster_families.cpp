// Cluster determinism beyond newGoZ: a sliding-window family observed far
// from epoch 0 (Ranbyus from epoch 40, where a domain sits in many epochs'
// pools and attribution walks its occurrence chain) and a 50k-domain pool
// family (Conficker.C), each with benign misses interleaved. For shard
// counts {1, 3, 8} and the three producer paths — per-tuple ingest, the
// cluster-level block path, and per-shard ShardFeed blocks — the merged
// landscape, the history and the tallies must equal the single engine's
// byte for byte, and every shard engine must run on the runtime's one
// prepared meter.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "obs/landscape_history.hpp"
#include "stream/stream_engine.hpp"
#include "trace/block.hpp"

namespace botmeter::cluster {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::int64_t kEpochs = 2;

struct Family {
  dga::DgaConfig dga;
  std::int64_t first_epoch;
  std::uint32_t bots;
};

/// The family's simulated union trace with a benign miss after every other
/// DGA tuple (same time and server, so watermarks are unchanged).
std::vector<dns::ForwardedLookup> union_trace(const Family& family) {
  botnet::SimulationConfig sim;
  sim.dga = family.dga;
  sim.bot_count = family.bots;
  sim.server_count = kServers;
  sim.first_epoch = family.first_epoch;
  sim.epoch_count = kEpochs;
  sim.seed = 91;
  sim.record_raw = false;
  const std::vector<dns::ForwardedLookup> dga = botnet::simulate(sim).observable;
  std::vector<dns::ForwardedLookup> out;
  out.reserve(dga.size() * 3 / 2 + 1);
  for (std::size_t i = 0; i < dga.size(); ++i) {
    out.push_back(dga[i]);
    if (i % 2 == 0) {
      out.push_back(dns::ForwardedLookup{
          dga[i].timestamp, dga[i].forwarder,
          "benign" + std::to_string(i % 997) + ".example"});
    }
  }
  return out;
}

core::BotMeterConfig meter_config(const Family& family) {
  core::BotMeterConfig config;
  config.dga = family.dga;
  return config;
}

std::string landscape_bytes(const core::LandscapeReport& report) {
  return json::write(core::landscape_to_json(report));
}

struct Reference {
  std::string landscape;
  std::string history;
  std::uint64_t ingested = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
};

Reference single_engine(const Family& family,
                        std::span<const dns::ForwardedLookup> stream) {
  obs::LandscapeHistory history;
  stream::StreamEngineConfig config;
  config.meter = meter_config(family);
  config.first_epoch = family.first_epoch;
  config.epoch_count = kEpochs;
  config.server_count = kServers;
  config.history = &history;
  stream::StreamEngine engine(std::move(config));
  engine.ingest(stream);
  Reference ref;
  ref.landscape = landscape_bytes(engine.finish());
  ref.history = json::write(history.to_json());
  ref.ingested = engine.ingested();
  ref.matched = engine.matched();
  ref.unmatched = engine.unmatched();
  EXPECT_EQ(engine.late_dropped(), 0u);
  return ref;
}

std::string to_blocks(std::span<const dns::ForwardedLookup> stream) {
  std::ostringstream os;
  trace::write_blocks(os, stream, 1 << 10);  // several blocks per trace
  return os.str();
}

enum class Path { kPerTuple, kBlock, kShardFeed };

void run_family(const Family& family) {
  const std::vector<dns::ForwardedLookup> stream = union_trace(family);
  ASSERT_FALSE(stream.empty());
  const Reference ref = single_engine(family, stream);
  ASSERT_GT(ref.matched, 0u);
  ASSERT_GT(ref.unmatched, 0u);
  const std::string blocks = to_blocks(stream);

  for (const Path path : {Path::kPerTuple, Path::kBlock, Path::kShardFeed}) {
    for (const std::size_t shards : {1u, 3u, 8u}) {
      SCOPED_TRACE("path=" + std::to_string(static_cast<int>(path)) +
                   " shards=" + std::to_string(shards));
      obs::LandscapeHistory history;
      ClusterConfig config;
      config.meter = meter_config(family);
      config.first_epoch = family.first_epoch;
      config.epoch_count = kEpochs;
      config.router = ShardRouter::by_range(kServers, shards);
      config.flush_tuples = 512;  // many batches per shard
      config.history = &history;
      ClusterRuntime runtime(std::move(config));
      for (std::size_t i = 0; i < shards; ++i) {
        EXPECT_EQ(&runtime.shard_meter(i), &runtime.meter());
      }

      if (path == Path::kPerTuple) {
        runtime.ingest(stream);
      } else if (path == Path::kBlock) {
        std::istringstream is(blocks);
        trace::for_each_block(
            is, [&runtime](const dns::LookupColumns& columns,
                           std::span<const std::string_view> table) {
              runtime.ingest_block(columns, table);
            });
      } else {
        // One binary sub-trace per shard, each its own interning lineage.
        std::vector<std::vector<dns::ForwardedLookup>> per_shard(shards);
        for (const dns::ForwardedLookup& lookup : stream) {
          per_shard[runtime.router().shard_of(lookup.forwarder.value())]
              .push_back(lookup);
        }
        for (std::size_t i = 0; i < shards; ++i) {
          ShardFeed feed = runtime.shard_feed(i);
          std::istringstream is(to_blocks(per_shard[i]));
          trace::for_each_block(
              is, [&feed](const dns::LookupColumns& columns,
                          std::span<const std::string_view> table) {
                feed.ingest_block(columns, table);
              });
          feed.flush();
        }
      }

      EXPECT_EQ(landscape_bytes(runtime.finish()), ref.landscape);
      EXPECT_EQ(json::write(history.to_json()), ref.history);
      std::uint64_t ingested = 0, matched = 0, unmatched = 0, late = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        const ShardStats stats = runtime.shard_stats(i);
        ingested += stats.ingested;
        matched += stats.matched;
        unmatched += stats.unmatched;
        late += stats.late_dropped;
      }
      EXPECT_EQ(ingested, ref.ingested);
      EXPECT_EQ(matched, ref.matched);
      EXPECT_EQ(unmatched, ref.unmatched);
      EXPECT_EQ(late, 0u);
    }
  }
}

TEST(ClusterFamiliesTest, RanbyusSlidingWindowFromEpoch40IsByteIdentical) {
  run_family(Family{dga::ranbyus_config(), 40, 24});
}

TEST(ClusterFamiliesTest, ConfickerCIsByteIdentical) {
  run_family(Family{dga::conficker_c_config(), 0, 16});
}

TEST(ClusterFamiliesTest, ShardEnginesBorrowOneMeter) {
  // Also after a restore, which builds fresh engines on the same meter.
  const Family family{dga::newgoz_config(), 0, 8};
  ClusterConfig config;
  config.meter = meter_config(family);
  config.epoch_count = kEpochs;
  config.router = ShardRouter::by_range(kServers, 3);
  ClusterRuntime source(config);
  ClusterRuntime resumed(config);
  resumed.restore(source.checkpoint());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(&resumed.shard_meter(i), &resumed.meter());
  }
  EXPECT_NE(&resumed.meter(), &source.meter());
}

}  // namespace
}  // namespace botmeter::cluster

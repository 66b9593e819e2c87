// Bounded-memory streaming (DESIGN.md §13): the compact-state spill path of
// stream::StreamEngine. Unspilled cells must stay byte-identical to the
// exact engine, spilled state must checkpoint/restore bit-identically, and
// the byte accounting must show the bound the sketches buy.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "stream/stream_engine.hpp"

#ifndef BOTMETER_TEST_DATA_DIR
#error "BOTMETER_TEST_DATA_DIR must name tests/stream/data"
#endif

namespace botmeter::stream {
namespace {

constexpr std::size_t kSmallThreshold = 64;

StreamEngineConfig base_config(std::int64_t epochs, std::size_t servers) {
  StreamEngineConfig config;
  config.meter.dga = dga::newgoz_config();
  config.first_epoch = 0;
  config.epoch_count = epochs;
  config.server_count = servers;
  return config;
}

StreamEngineConfig compact_config(std::int64_t epochs, std::size_t servers,
                                  std::size_t threshold = kSmallThreshold,
                                  std::uint32_t kmv_k = 64) {
  StreamEngineConfig config = base_config(epochs, servers);
  config.compact_state = true;
  config.compact_spill_threshold = threshold;
  config.compact.kmv_k = kmv_k;
  return config;
}

std::vector<dns::ForwardedLookup> simulate_stream(std::uint32_t bots,
                                                  std::int64_t epochs,
                                                  std::size_t servers,
                                                  std::uint64_t seed) {
  botnet::SimulationConfig sim;
  sim.dga = dga::newgoz_config();
  sim.bot_count = bots;
  sim.server_count = servers;
  sim.epoch_count = epochs;
  sim.seed = seed;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

TEST(CompactStateTest, UnspilledCellsAreByteIdenticalToExactEngine) {
  // A threshold no bucket reaches keeps every cell exact: the compact
  // engine's landscape must serialize to the same bytes as the exact one,
  // with nothing flagged approximate and zero spills.
  const auto stream = simulate_stream(16, 2, 2, 61);
  StreamEngine exact(base_config(2, 2));
  exact.ingest(stream);
  const std::string exact_json = json::write(
      core::landscape_to_json(exact.finish()));

  StreamEngine compact(compact_config(2, 2, /*threshold=*/1u << 30));
  compact.ingest(stream);
  const core::LandscapeReport report = compact.finish();
  EXPECT_EQ(json::write(core::landscape_to_json(report)), exact_json);
  EXPECT_EQ(compact.compact_spills(), 0u);
  for (const core::ServerEstimate& s : report.servers) {
    EXPECT_FALSE(s.approximate);
  }
}

TEST(CompactStateTest, SpilledRunBoundsBytesAndFlagsEstimates) {
  const auto stream = simulate_stream(64, 2, 2, 63);

  StreamEngine exact(base_config(2, 2));
  exact.ingest(stream);
  (void)exact.finish();

  StreamEngine compact(compact_config(2, 2));
  compact.ingest(stream);
  const core::LandscapeReport report = compact.finish();

  EXPECT_GT(compact.compact_spills(), 0u);
  EXPECT_LT(compact.peak_open_buffer_bytes(), exact.peak_open_buffer_bytes());
  EXPECT_EQ(compact.open_buffer_bytes(), 0u);  // everything closed
  EXPECT_GE(compact.peak_open_buffer_bytes(), 1u);

  // Spilled cells saturate the small KMV, so their statistics are flagged
  // with a propagated error bound.
  bool any_flagged = false;
  for (const core::ServerEstimate& s : report.servers) {
    if (s.approximate) {
      any_flagged = true;
      EXPECT_GT(s.sketch_rse, 0.0);
    }
  }
  EXPECT_TRUE(any_flagged);
}

TEST(CompactStateTest, SpilledCheckpointRoundTripContinuesBitIdentically) {
  const auto stream = simulate_stream(64, 3, 2, 65);
  ASSERT_GT(stream.size(), 100u);

  StreamEngine reference(compact_config(3, 2));
  reference.ingest(stream);
  const core::LandscapeReport want = reference.finish();
  ASSERT_GT(reference.compact_spills(), 0u);

  // Checkpoint after 60% — far past the spill threshold, so serialized
  // sketch state (not just exact buffers) crosses the restart.
  const std::size_t split = (stream.size() * 3) / 5;
  std::string checkpoint_text;
  {
    StreamEngine first(compact_config(3, 2));
    first.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
    EXPECT_GT(first.compact_spills(), 0u);
    checkpoint_text = json::write(first.checkpoint());
    // Byte-stable through a parse/write cycle.
    EXPECT_EQ(json::write(json::parse(checkpoint_text)), checkpoint_text);
  }
  StreamEngine resumed(compact_config(3, 2));
  resumed.restore(json::parse(checkpoint_text));
  resumed.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  const core::LandscapeReport got = resumed.finish();

  EXPECT_EQ(json::write(core::landscape_to_json(got)),
            json::write(core::landscape_to_json(want)));
  EXPECT_EQ(resumed.ingested(), reference.ingested());
  EXPECT_EQ(resumed.compact_spills(), reference.compact_spills());
}

TEST(CompactStateTest, ExactCheckpointRestoresIntoCompactEngineAndSpills) {
  // Upgrading a monitor to bounded memory mid-horizon: an exact checkpoint
  // restores into a compact engine, whose over-threshold buffers spill on
  // load; the continued run equals a compact run over the whole stream.
  const auto stream = simulate_stream(64, 2, 2, 67);
  const std::size_t split = stream.size() / 2;

  StreamEngine whole(compact_config(2, 2));
  whole.ingest(stream);
  const core::LandscapeReport want = whole.finish();

  std::string checkpoint_text;
  {
    StreamEngine exact(base_config(2, 2));
    exact.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
    checkpoint_text = json::write(exact.checkpoint());
  }
  StreamEngine upgraded(compact_config(2, 2));
  upgraded.restore(json::parse(checkpoint_text));
  EXPECT_GT(upgraded.compact_spills(), 0u);  // spilled on load
  upgraded.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  EXPECT_EQ(json::write(core::landscape_to_json(upgraded.finish())),
            json::write(core::landscape_to_json(want)));
}

TEST(CompactStateTest, CompactCheckpointRejectedByExactEngine) {
  const auto stream = simulate_stream(64, 2, 2, 69);
  StreamEngine compact(compact_config(2, 2));
  compact.ingest(
      std::span<const dns::ForwardedLookup>(stream).first(stream.size() / 2));
  ASSERT_GT(compact.compact_spills(), 0u);
  const json::Value checkpoint = compact.checkpoint();

  StreamEngine exact(base_config(2, 2));
  EXPECT_THROW(exact.restore(checkpoint), DataError);
}

// A compact checkpoint written before the count-min tally was removed: its
// fingerprint carries compact_cms_depth/width (4/256) and
// compact_position_counts false, and each spilled cell's spec carries
// cms_depth/width 0/0. Taken after 60% of simulate_stream(48, 2, 2, 67)
// under compact_config(2, 2, 64, 16); all four buckets had spilled.
std::string legacy_compact_checkpoint() {
  std::ifstream file(BOTMETER_TEST_DATA_DIR "/legacy_compact_checkpoint.json");
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void replace_first(std::string& text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
}

TEST(CompactStateTest, LegacyCompactCheckpointResumesBitIdentically) {
  const auto stream = simulate_stream(48, 2, 2, 67);
  StreamEngine reference(compact_config(2, 2, 64, 16));
  reference.ingest(stream);
  const core::LandscapeReport want = reference.finish();

  const std::string text = legacy_compact_checkpoint();
  ASSERT_NE(text.find("\"compact_position_counts\": false"), std::string::npos);
  StreamEngine resumed(compact_config(2, 2, 64, 16));
  resumed.restore(json::parse(text));
  ASSERT_EQ(resumed.compact_spills(), 4u);
  resumed.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(
      resumed.ingested()));
  const core::LandscapeReport got = resumed.finish();
  EXPECT_EQ(json::write(core::landscape_to_json(got)),
            json::write(core::landscape_to_json(want)));
  EXPECT_TRUE(got.servers[0].approximate);  // the sketch state crossed over
}

TEST(CompactStateTest, LegacyCountMinCheckpointsRejected) {
  std::string position_counts = legacy_compact_checkpoint();
  replace_first(position_counts, "\"compact_position_counts\": false",
                "\"compact_position_counts\": true");
  StreamEngine a(compact_config(2, 2, 64, 16));
  EXPECT_THROW(a.restore(json::parse(position_counts)), DataError);

  std::string cell_cms = legacy_compact_checkpoint();
  replace_first(cell_cms, "\"cms_depth\": 0", "\"cms_depth\": 4");
  StreamEngine b(compact_config(2, 2, 64, 16));
  EXPECT_THROW(b.restore(json::parse(cell_cms)), DataError);
  // A rejected restore leaves the engine empty and usable.
  EXPECT_EQ(b.ingested(), 0u);
}

TEST(CompactStateTest, ConstructorRejectsEstimatorsWithoutCompactPath) {
  StreamEngineConfig config = compact_config(2, 2);
  config.meter.estimator = "timing";
  EXPECT_THROW(StreamEngine{config}, ConfigError);
}

TEST(CompactStateTest, OpenByteAccountingTracksSpills) {
  const auto stream = simulate_stream(64, 1, 1, 71);
  StreamEngine engine(compact_config(1, 1));
  std::size_t last_peak = 0;
  for (const dns::ForwardedLookup& lookup : stream) {
    engine.ingest(lookup);
    EXPECT_LE(engine.open_buffer_bytes(), engine.peak_open_buffer_bytes());
    EXPECT_GE(engine.peak_open_buffer_bytes(), last_peak);
    last_peak = engine.peak_open_buffer_bytes();
  }
  ASSERT_GT(engine.compact_spills(), 0u);
  // One spilled cell per (server, epoch): resident state is the constant
  // cell footprint, far below the spill threshold's worth of raw lookups.
  EXPECT_LT(engine.open_buffer_bytes(),
            kSmallThreshold * sizeof(detect::MatchedLookup) * 4);
  (void)engine.finish();
  EXPECT_EQ(engine.open_buffer_bytes(), 0u);
}

}  // namespace
}  // namespace botmeter::stream

#include "detect/matcher.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "common/error.hpp"
#include "dga/families.hpp"

namespace botmeter::detect {
namespace {

dga::DgaConfig tiny_config() {
  dga::DgaConfig c;
  c.name = "tiny";
  c.taxonomy = {dga::PoolModel::kDrainReplenish, dga::BarrelModel::kUniform};
  c.nxd_count = 9;
  c.valid_count = 1;
  c.barrel_size = 10;
  c.query_interval = milliseconds(500);
  c.seed = 55;
  return c;
}

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : matcher_(days(1)) {
    model_ = dga::make_pool_model(tiny_config());
    for (std::int64_t e = 0; e < 2; ++e) {
      const dga::EpochPool& pool = model_->epoch_pool(e);
      windows_.push_back(perfect_detection(pool));
      matcher_.add_epoch(pool, windows_.back());
    }
  }

  dns::ForwardedLookup lookup_for(std::int64_t epoch, std::uint32_t pos,
                                  Duration offset,
                                  dns::ServerId server = dns::ServerId{0}) {
    return dns::ForwardedLookup{
        TimePoint{epoch * days(1).millis()} + offset, server,
        model_->epoch_pool(epoch).domains[pos]};
  }

  std::unique_ptr<dga::QueryPoolModel> model_;
  std::vector<DetectionWindow> windows_;
  DomainMatcher matcher_;
};

TEST_F(MatcherTest, MatchesKnownDomainWithPositionAndValidity) {
  const dga::EpochPool& pool = model_->epoch_pool(0);
  const std::uint32_t valid = pool.valid_positions.front();
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 0, seconds(10)),
      lookup_for(0, valid, seconds(20)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  ASSERT_EQ(matched.size(), 1u);
  const auto& lookups = matched.at(StreamKey{dns::ServerId{0}, 0});
  ASSERT_EQ(lookups.size(), 2u);
  EXPECT_EQ(lookups[0].pool_position, 0u);
  EXPECT_EQ(lookups[0].is_valid_domain, pool.is_valid_position(0));
  EXPECT_EQ(lookups[1].pool_position, valid);
  EXPECT_TRUE(lookups[1].is_valid_domain);
}

TEST_F(MatcherTest, DropsUnknownDomains) {
  std::vector<dns::ForwardedLookup> stream{
      {TimePoint{100}, dns::ServerId{0}, "benign.example"},
      {TimePoint{200}, dns::ServerId{0}, "another.example"},
  };
  EXPECT_TRUE(matcher_.match(stream).empty());
}

TEST_F(MatcherTest, GroupsByServer) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 1, seconds(1), dns::ServerId{0}),
      lookup_for(0, 2, seconds(2), dns::ServerId{1}),
  };
  const MatchedStreams matched = matcher_.match(stream);
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{1}, 0}));
}

TEST_F(MatcherTest, GroupsByPoolEpoch) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 1, seconds(1)),
      lookup_for(1, 1, seconds(1)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 1}));
}

TEST_F(MatcherTest, BoundarySpillAttributedToPoolEpoch) {
  // An epoch-0 domain looked up a few minutes past midnight still belongs to
  // epoch 0's pool.
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 3, days(1) + minutes(5)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
}

TEST_F(MatcherTest, StreamsSortedByTime) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 5, seconds(50)),
      lookup_for(0, 1, seconds(10)),
      lookup_for(0, 3, seconds(30)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  const auto& lookups = matched.at(StreamKey{dns::ServerId{0}, 0});
  ASSERT_EQ(lookups.size(), 3u);
  EXPECT_LT(lookups[0].t, lookups[1].t);
  EXPECT_LT(lookups[1].t, lookups[2].t);
}

TEST_F(MatcherTest, UndetectedDomainsNotMatchable) {
  DomainMatcher partial(days(1));
  const dga::EpochPool& pool = model_->epoch_pool(0);
  DetectionWindow window = perfect_detection(pool);
  window.detected[4] = false;
  partial.add_epoch(pool, window);
  std::vector<dns::ForwardedLookup> stream{lookup_for(0, 4, seconds(1))};
  EXPECT_TRUE(partial.match(stream).empty());
  EXPECT_EQ(partial.matchable_domain_count(), pool.size() - 1);
}

TEST_F(MatcherTest, WindowMismatchRejected) {
  DomainMatcher other(days(1));
  const dga::EpochPool& pool0 = model_->epoch_pool(0);
  DetectionWindow wrong_epoch = perfect_detection(pool0);
  wrong_epoch.epoch = 5;
  EXPECT_THROW(other.add_epoch(pool0, wrong_epoch), ConfigError);
  DetectionWindow wrong_size = perfect_detection(pool0);
  wrong_size.detected.pop_back();
  EXPECT_THROW(other.add_epoch(pool0, wrong_size), ConfigError);
}

TEST(MatcherConfigTest, PositiveEpochLengthRequired) {
  EXPECT_THROW(DomainMatcher{Duration{0}}, ConfigError);
}

TEST_F(MatcherTest, ResolveDistinguishesMembership) {
  const dga::EpochPool& pool = model_->epoch_pool(0);
  EXPECT_TRUE(static_cast<bool>(matcher_.resolve(pool.domains[0])));
  EXPECT_FALSE(static_cast<bool>(matcher_.resolve("benign.example")));
  EXPECT_FALSE(static_cast<bool>(DomainMatcher::Resolved{}));  // default falsy
}

TEST_F(MatcherTest, MatchResolvedAttributesLikeMatchOne) {
  // resolve + match_resolved must reproduce match_one's attribution exactly,
  // including the interesting cases: boundary spill into the previous
  // epoch's pool and a domain present in both epochs' pools (epoch chosen by
  // the nominal timestamp).
  std::vector<dns::ForwardedLookup> probes;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    for (std::uint32_t pos = 0; pos < model_->epoch_pool(epoch).size(); ++pos) {
      probes.push_back(lookup_for(epoch, pos, seconds(17), dns::ServerId{1}));
      probes.push_back(lookup_for(epoch, pos, days(1) + minutes(9)));
    }
  }
  for (const dns::ForwardedLookup& probe : probes) {
    SCOPED_TRACE(probe.domain + " @" + std::to_string(probe.timestamp.millis()));
    const auto via_one = matcher_.match_one(probe);
    const DomainMatcher::Resolved resolved = matcher_.resolve(probe.domain);
    ASSERT_TRUE(via_one.has_value());
    ASSERT_TRUE(static_cast<bool>(resolved));
    const DomainMatcher::MatchOutcome via_resolved =
        matcher_.match_resolved(resolved, probe.timestamp, probe.forwarder);
    EXPECT_EQ(via_resolved.key, via_one->key);
    EXPECT_EQ(via_resolved.lookup, via_one->lookup);
  }
}

TEST_F(MatcherTest, ResolveManyAgreesWithResolve) {
  // The batched pipeline (flat probe table + prefetch waves) must answer
  // exactly like the canonical map lookup, member and non-member alike,
  // across several pipeline chunks.
  std::vector<std::string_view> domains;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    for (const std::string& d : model_->epoch_pool(epoch).domains) {
      domains.push_back(d);
    }
  }
  std::vector<std::string> misses;
  for (int i = 0; i < 150; ++i) {
    misses.push_back("benign" + std::to_string(i) + ".example");
  }
  for (const std::string& miss : misses) domains.push_back(miss);

  std::vector<DomainMatcher::Resolved> batched(domains.size());
  matcher_.resolve_many(domains, batched);
  const TimePoint t{seconds(17).millis()};
  for (std::size_t i = 0; i < domains.size(); ++i) {
    SCOPED_TRACE(std::string(domains[i]));
    const DomainMatcher::Resolved single = matcher_.resolve(domains[i]);
    ASSERT_EQ(static_cast<bool>(batched[i]), static_cast<bool>(single));
    if (single) {
      const auto via_batched =
          matcher_.match_resolved(batched[i], t, dns::ServerId{2});
      const auto via_single =
          matcher_.match_resolved(single, t, dns::ServerId{2});
      EXPECT_EQ(via_batched.key, via_single.key);
      EXPECT_EQ(via_batched.lookup, via_single.lookup);
    }
  }

  std::vector<DomainMatcher::Resolved> wrong_size(domains.size() + 1);
  EXPECT_THROW(matcher_.resolve_many(domains, wrong_size), ConfigError);
}

// One registration of a domain, as a brute-force reference keeps it.
struct Registration {
  std::int64_t epoch;
  std::uint32_t position;
  bool valid;
};

TEST(MatcherIndexTest, SlidingWindowAttributionMatchesClosestEpochScan) {
  // Ranbyus pools hold the last 31 days' domains, so most domains sit in
  // every registered epoch's pool. Registering 44, 42, 40, 43 out of order
  // leaves nominal epoch 41 a tie that only the registration order breaks
  // (42, registered before 40), and puts the exact hit for nominal 43 last
  // in the chain, behind two candidates one epoch away.
  auto model = dga::make_pool_model(dga::ranbyus_config());
  DomainMatcher matcher(days(1));
  std::map<std::string, std::vector<Registration>> reference;
  for (const std::int64_t epoch : {44, 42, 40, 43}) {
    const dga::EpochPool& pool = model->epoch_pool(epoch);
    matcher.add_epoch(pool, perfect_detection(pool));
    for (std::uint32_t pos = 0; pos < pool.size(); ++pos) {
      reference[pool.domains[pos]].push_back(
          {epoch, pos, pool.is_valid_position(pos)});
    }
  }
  std::size_t occurrences = 0, ties_broken = 0;
  for (const auto& [domain, registrations] : reference) {
    occurrences += registrations.size();
    const DomainMatcher::Resolved resolved = matcher.resolve(domain);
    ASSERT_TRUE(static_cast<bool>(resolved)) << domain;
    for (std::int64_t nominal = 36; nominal <= 48; ++nominal) {
      const Registration* best = &registrations.front();
      for (const Registration& r : registrations) {
        if (std::abs(r.epoch - nominal) < std::abs(best->epoch - nominal)) {
          best = &r;
        }
      }
      if (nominal == 41 && best->epoch == 42 && registrations.size() == 4) {
        ++ties_broken;
      }
      const TimePoint t{nominal * days(1).millis() + 1234};
      const auto outcome = matcher.match_resolved(resolved, t, dns::ServerId{3});
      EXPECT_EQ(outcome.key, (StreamKey{dns::ServerId{3}, best->epoch}))
          << domain << " @" << nominal;
      EXPECT_EQ(outcome.lookup, (MatchedLookup{t, best->position, best->valid}))
          << domain << " @" << nominal;
      const auto one = matcher.match_one({t, dns::ServerId{3}, domain});
      ASSERT_TRUE(one.has_value());
      EXPECT_EQ(one->key, outcome.key);
      EXPECT_EQ(one->lookup, outcome.lookup);
    }
  }
  EXPECT_EQ(matcher.matchable_domain_count(), occurrences);
  EXPECT_LT(reference.size(), occurrences);  // chains longer than one exist
  EXPECT_GT(ties_broken, 0u);
}

TEST(MatcherIndexTest, GrowthKeepsEarlierAttribution) {
  // 500 domains fit the initial 1024 slots at load 1/2; a second epoch of
  // 500 more cannot, so the slot table grows and rehashes.
  dga::DgaConfig config = tiny_config();
  config.nxd_count = 499;
  config.barrel_size = 500;
  auto model = dga::make_pool_model(config);
  const dga::EpochPool& first = model->epoch_pool(0);
  const dga::EpochPool& second = model->epoch_pool(1);
  DomainMatcher matcher(days(1));
  matcher.add_epoch(first, perfect_detection(first));
  const TimePoint t{minutes(3).millis()};
  std::vector<DomainMatcher::MatchOutcome> before;
  for (const std::string& domain : first.domains) {
    before.push_back(
        matcher.match_resolved(matcher.resolve(domain), t, dns::ServerId{1}));
  }
  matcher.add_epoch(second, perfect_detection(second));
  EXPECT_EQ(matcher.matchable_domain_count(), first.size() + second.size());
  for (std::uint32_t pos = 0; pos < first.size(); ++pos) {
    SCOPED_TRACE(first.domains[pos]);
    const DomainMatcher::Resolved resolved = matcher.resolve(first.domains[pos]);
    ASSERT_TRUE(static_cast<bool>(resolved));
    const auto after = matcher.match_resolved(resolved, t, dns::ServerId{1});
    EXPECT_EQ(after.key, before[pos].key);
    EXPECT_EQ(after.lookup, before[pos].lookup);
  }
  const TimePoint later{days(1).millis() + minutes(3).millis()};
  for (std::uint32_t pos = 0; pos < second.size(); ++pos) {
    const auto outcome = matcher.match_one({later, dns::ServerId{1},
                                            second.domains[pos]});
    ASSERT_TRUE(outcome.has_value()) << second.domains[pos];
    EXPECT_EQ(outcome->key.epoch, 1);
  }
}

TEST(MatcherIndexTest, ResolveManyMatchesResolveElementByElement) {
  const auto agree = [](const DomainMatcher& matcher,
                        const std::vector<std::string_view>& domains) {
    std::vector<DomainMatcher::Resolved> batched(domains.size());
    matcher.resolve_many(domains, batched);
    const TimePoint t{seconds(17).millis()};
    std::size_t members = 0;
    for (std::size_t i = 0; i < domains.size(); ++i) {
      SCOPED_TRACE(std::string(domains[i]));
      const DomainMatcher::Resolved single = matcher.resolve(domains[i]);
      EXPECT_EQ(static_cast<bool>(batched[i]), static_cast<bool>(single));
      if (!single || !batched[i]) continue;
      ++members;
      const auto a = matcher.match_resolved(batched[i], t, dns::ServerId{2});
      const auto b = matcher.match_resolved(single, t, dns::ServerId{2});
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.lookup, b.lookup);
    }
    return members;
  };
  // Members and non-members interleaved over three full 64-wide chunks and
  // a partial fourth.
  auto model = dga::make_pool_model(dga::murofet_config());
  const dga::EpochPool& pool = model->epoch_pool(0);
  std::vector<std::string> misses;
  for (int i = 0; i < 100; ++i) {
    misses.push_back("benign" + std::to_string(i) + ".example");
  }
  std::vector<std::string_view> domains;
  for (std::size_t i = 0; i < 100; ++i) {
    domains.push_back(pool.domains[i * 3]);
    domains.push_back(misses[i]);
  }
  domains.push_back(pool.domains[7]);  // a repeat in the same batch
  ASSERT_GT(domains.size(), 3u * 64u);

  const DomainMatcher empty(days(1));
  EXPECT_EQ(agree(empty, domains), 0u);
  EXPECT_EQ(agree(empty, {}), 0u);

  DomainMatcher matcher(days(1));
  matcher.add_epoch(pool, perfect_detection(pool));
  EXPECT_EQ(agree(matcher, domains), 101u);
}

TEST(AlgorithmicPatternTest, MatchesGeneratedDomains) {
  const AlgorithmicPattern pattern(8, 19, {".com", ".net", ".org", ".biz",
                                           ".info", ".ru"});
  auto model = dga::make_pool_model(dga::murofet_config());
  for (const std::string& d : model->epoch_pool(0).domains) {
    EXPECT_TRUE(pattern.matches(d)) << d;
  }
}

TEST(AlgorithmicPatternTest, RejectsBenignShapes) {
  const AlgorithmicPattern pattern(8, 19, {".com", ".net"});
  EXPECT_FALSE(pattern.matches("host12.corp3.example"));  // wrong TLD
  EXPECT_FALSE(pattern.matches("www.google.com"));        // dots in label
  EXPECT_FALSE(pattern.matches("short.com"));             // too short
  EXPECT_FALSE(pattern.matches("UPPERCASEDOMAIN.com"));   // wrong charset
  EXPECT_FALSE(pattern.matches("1startsdigit.com"));      // leading digit
  EXPECT_FALSE(pattern.matches(".com"));                  // empty label
}

TEST(AlgorithmicPatternTest, InvalidConstruction) {
  EXPECT_THROW(AlgorithmicPattern(0, 5, {".com"}), ConfigError);
  EXPECT_THROW(AlgorithmicPattern(5, 4, {".com"}), ConfigError);
  EXPECT_THROW(AlgorithmicPattern(5, 9, {"com"}), ConfigError);
}

}  // namespace
}  // namespace botmeter::detect

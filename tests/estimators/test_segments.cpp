#include "estimators/segments.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace botmeter::estimators {
namespace {

/// Hand-built pool: 20 positions with valid domains at 5 and 12.
dga::EpochPool hand_pool() {
  dga::EpochPool pool;
  pool.epoch = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    std::string domain = "d";
    domain += std::to_string(i);
    domain += ".com";
    pool.domains.push_back(std::move(domain));
  }
  pool.valid_positions = {5, 12};
  return pool;
}

TEST(ArcDepthTest, DepthCountsFromPrecedingBoundary) {
  const dga::EpochPool pool = hand_pool();
  EXPECT_EQ(arc_depth(pool, 6), 1u);
  EXPECT_EQ(arc_depth(pool, 11), 6u);
  EXPECT_EQ(arc_depth(pool, 13), 1u);
  // Wrap-around arc: positions 13..19 then 0..4 belong to the arc after 12.
  EXPECT_EQ(arc_depth(pool, 0), 8u);
  EXPECT_EQ(arc_depth(pool, 4), 12u);
}

TEST(ArcDepthTest, ValidPositionsHaveDepthZero) {
  const dga::EpochPool pool = hand_pool();
  EXPECT_EQ(arc_depth(pool, 5), 0u);
  EXPECT_EQ(arc_depth(pool, 12), 0u);
}

TEST(ArcDepthTest, NoValidPositionsMeansOneArc) {
  dga::EpochPool pool = hand_pool();
  pool.valid_positions.clear();
  EXPECT_EQ(arc_depth(pool, 7), 20u);
}

TEST(ArcDepthTest, OutOfRangeRejected) {
  const dga::EpochPool pool = hand_pool();
  EXPECT_THROW((void)arc_depth(pool, 20), ConfigError);
}

TEST(SegmentsTest, EmptyObservationNoSegments) {
  const dga::EpochPool pool = hand_pool();
  EXPECT_TRUE(extract_segments(pool, std::vector<std::uint32_t>{}).empty());
}

TEST(SegmentsTest, SingleRunMidArcIsMSegment) {
  const dga::EpochPool pool = hand_pool();
  const std::vector<std::uint32_t> observed{6, 7, 8};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].start, 6u);
  EXPECT_EQ(segments[0].length, 3u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kMiddle);
}

TEST(SegmentsTest, RunEndingAtBoundaryIsBSegment) {
  const dga::EpochPool pool = hand_pool();
  const std::vector<std::uint32_t> observed{9, 10, 11};  // 12 is valid
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kBoundary);
  EXPECT_EQ(segments[0].length, 3u);
}

TEST(SegmentsTest, GapsSplitSegments) {
  const dga::EpochPool pool = hand_pool();
  const std::vector<std::uint32_t> observed{6, 7, 9, 10, 11};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].start, 6u);
  EXPECT_EQ(segments[0].length, 2u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kMiddle);
  EXPECT_EQ(segments[1].start, 9u);
  EXPECT_EQ(segments[1].kind, SegmentKind::kBoundary);
}

TEST(SegmentsTest, ValidPositionsIgnoredAndSplitRuns) {
  const dga::EpochPool pool = hand_pool();
  // Positions 4 and 6 sandwich valid position 5: two separate segments,
  // the first a b-segment.
  const std::vector<std::uint32_t> observed{4, 5, 6};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].start, 4u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kBoundary);
  EXPECT_EQ(segments[1].start, 6u);
  EXPECT_EQ(segments[1].kind, SegmentKind::kMiddle);
}

TEST(SegmentsTest, UnsortedDuplicatedInputHandled) {
  const dga::EpochPool pool = hand_pool();
  const std::vector<std::uint32_t> observed{8, 6, 7, 7, 6};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].start, 6u);
  EXPECT_EQ(segments[0].length, 3u);
}

TEST(SegmentsTest, WrapAroundRunMerged) {
  const dga::EpochPool pool = hand_pool();
  // 19 and 0,1 form one circular run (position 12 < 19 is the nearest
  // boundary; positions 13..18 unobserved).
  const std::vector<std::uint32_t> observed{19, 0, 1};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].start, 19u);
  EXPECT_EQ(segments[0].length, 3u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kMiddle);
}

TEST(SegmentsTest, WrapAroundEndingAtBoundary) {
  const dga::EpochPool pool = hand_pool();
  // Run 18,19,0..4 ends right before valid position 5: b-segment.
  const std::vector<std::uint32_t> observed{18, 19, 0, 1, 2, 3, 4};
  const auto segments = extract_segments(pool, observed);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].start, 18u);
  EXPECT_EQ(segments[0].length, 7u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kBoundary);
}

TEST(SegmentsTest, OutOfRangePositionRejected) {
  const dga::EpochPool pool = hand_pool();
  EXPECT_THROW(extract_segments(pool, std::vector<std::uint32_t>{25}),
               ConfigError);
}

}  // namespace
}  // namespace botmeter::estimators

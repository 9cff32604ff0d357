#include "stream/features.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "features/acf.h"
#include "stream/streaming_compressor.h"

namespace lossyts::stream {
namespace {

compress::SegmentModel MakeSegment(uint64_t start, uint32_t length,
                                   double anchor, double slope) {
  compress::SegmentModel s;
  s.start = static_cast<uint32_t>(start);
  s.length = length;
  s.anchor = anchor;
  s.slope = slope;
  return s;
}

TEST(SegmentFeaturesTest, ExtractLevelIsSegmentMean) {
  // Level of a sloped segment = anchor + slope * (len-1)/2, the mean of the
  // reconstructed ramp.
  const SegmentFeatures f =
      SegmentFeatureTracker::Extract(MakeSegment(10, 5, 2.0, 1.0));
  EXPECT_EQ(f.start_index, 10u);
  EXPECT_EQ(f.length, 5u);
  EXPECT_DOUBLE_EQ(f.level, 2.0 + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(f.slope, 1.0);
  // Length-1 segment: level is the anchor itself.
  const SegmentFeatures one =
      SegmentFeatureTracker::Extract(MakeSegment(0, 1, 7.0, 3.0));
  EXPECT_DOUBLE_EQ(one.level, 7.0);
}

TEST(SegmentFeatureTrackerTest, SummaryOverBoundedWindow) {
  SegmentFeatureTracker tracker(/*segment_window=*/3, /*value_window=*/100);
  for (int s = 0; s < 10; ++s) {
    tracker.OnSegment(
        MakeSegment(static_cast<uint64_t>(s) * 4, 4,
                    static_cast<double>(s), 0.5));
  }
  const FeatureSummary summary = tracker.Summary();
  EXPECT_EQ(summary.segments, 3u);  // Window keeps the newest 3.
  EXPECT_EQ(summary.total_segments, 10u);
  EXPECT_EQ(summary.total_points, 40u);
  EXPECT_DOUBLE_EQ(summary.mean_length, 4.0);
  // Levels of segments 7, 8, 9: anchor + 0.5 * 1.5.
  EXPECT_DOUBLE_EQ(summary.mean_level, 8.0 + 0.75);
  EXPECT_DOUBLE_EQ(summary.mean_slope, 0.5);
  EXPECT_DOUBLE_EQ(summary.slope_variance, 0.0);
  EXPECT_NEAR(summary.level_variance, 2.0 / 3.0, 1e-12);
}

TEST(SegmentFeatureTrackerTest, ValueRingIsOldestFirstAndBounded) {
  SegmentFeatureTracker tracker(/*segment_window=*/8, /*value_window=*/5);
  tracker.OnSegment(MakeSegment(0, 4, 1.0, 1.0));  // 1 2 3 4
  tracker.OnSegment(MakeSegment(4, 3, 10.0, 0.0));  // 10 10 10
  const std::vector<double> window = tracker.Window();
  ASSERT_EQ(window.size(), 5u);
  EXPECT_EQ(window, (std::vector<double>{3.0, 4.0, 10.0, 10.0, 10.0}));
  EXPECT_EQ(tracker.points(), 7u);
}

TEST(SegmentFeatureTrackerTest, RollingAcfMatchesBatchAcf) {
  Rng rng(31);
  SegmentFeatureTracker tracker(/*segment_window=*/64, /*value_window=*/128);
  // Feed sloped segments; the ring ends up with the last 128 reconstructions.
  std::vector<double> reference;
  uint64_t start = 0;
  for (int s = 0; s < 40; ++s) {
    const double anchor = 10.0 + 3.0 * rng.Normal();
    const double slope = 0.2 * rng.Normal();
    compress::SegmentModel segment = MakeSegment(start, 6, anchor, slope);
    start += segment.length;
    tracker.OnSegment(segment);
    for (size_t k = 0; k < segment.length; ++k) {
      reference.push_back(segment.ValueAt(k));
    }
  }
  while (reference.size() > 128) reference.erase(reference.begin());
  Result<std::vector<double>> rolling = tracker.RollingAcf(6);
  ASSERT_TRUE(rolling.ok());
  const std::vector<double> batch = features::Acf(reference, 6);
  ASSERT_EQ(rolling->size(), batch.size());
  for (size_t i = 0; i < rolling->size(); ++i) {
    EXPECT_DOUBLE_EQ((*rolling)[i], batch[i]) << "lag " << (i + 1);
  }
}

TEST(SegmentFeatureTrackerTest, AcfNeedsTwoPoints) {
  SegmentFeatureTracker tracker(4, 16);
  EXPECT_EQ(tracker.RollingAcf(3).status().code(),
            StatusCode::kFailedPrecondition);
  tracker.OnSegment(MakeSegment(0, 1, 5.0, 0.0));
  EXPECT_EQ(tracker.RollingAcf(3).status().code(),
            StatusCode::kFailedPrecondition);
  tracker.OnSegment(MakeSegment(1, 1, 6.0, 0.0));
  EXPECT_TRUE(tracker.RollingAcf(1).ok());
}

}  // namespace
}  // namespace lossyts::stream

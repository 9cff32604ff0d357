// Closed-form segment aggregates (store/segments.h), called directly.

#include "store/segments.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace lossyts::store {
namespace {

compress::SegmentModel Segment(uint32_t length, double anchor, double slope) {
  compress::SegmentModel s;
  s.length = length;
  s.anchor = anchor;
  s.slope = slope;
  return s;
}

// The point-by-point reference over local offsets [first, last].
SegmentAggregate Reference(const compress::SegmentModel& s, uint32_t first,
                           uint32_t last) {
  SegmentAggregate agg;
  agg.min = s.ValueAt(first);
  agg.max = agg.min;
  for (uint32_t k = first; k <= last; ++k) {
    const double v = s.ValueAt(k);
    agg.sum += v;
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
    agg.abs_sum += std::fabs(v);
    agg.max_abs = std::max(agg.max_abs, std::fabs(v));
    ++agg.count;
  }
  return agg;
}

TEST(AggregateSegmentTest, PmcSegmentIsExact) {
  const compress::SegmentModel s = Segment(10, -2.5, 0.0);
  const SegmentAggregate agg = AggregateSegment(s, 2, 6);
  EXPECT_EQ(agg.count, 5u);
  EXPECT_EQ(agg.sum, -12.5);
  EXPECT_EQ(agg.min, -2.5);
  EXPECT_EQ(agg.max, -2.5);
  EXPECT_EQ(agg.abs_sum, 12.5);
  EXPECT_EQ(agg.max_abs, 2.5);
}

TEST(AggregateSegmentTest, LengthOneSegment) {
  const SegmentAggregate agg = AggregateSegment(Segment(1, 4.0, 3.0), 0, 0);
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.sum, 4.0);
  EXPECT_EQ(agg.min, 4.0);
  EXPECT_EQ(agg.max, 4.0);
  EXPECT_EQ(agg.abs_sum, 4.0);
  EXPECT_EQ(agg.max_abs, 4.0);
}

TEST(AggregateSegmentTest, SwingSegmentMatchesReference) {
  const compress::SegmentModel s = Segment(100, 3.0, 0.25);
  const SegmentAggregate agg = AggregateSegment(s, 10, 90);
  const SegmentAggregate ref = Reference(s, 10, 90);
  EXPECT_EQ(agg.count, ref.count);
  EXPECT_NEAR(agg.sum, ref.sum, 1e-9 * std::fabs(ref.sum));
  EXPECT_EQ(agg.min, ref.min);
  EXPECT_EQ(agg.max, ref.max);
  EXPECT_NEAR(agg.abs_sum, ref.abs_sum, 1e-9 * ref.abs_sum);
  EXPECT_EQ(agg.max_abs, ref.max_abs);
}

TEST(AggregateSegmentTest, ZeroCrossingAbsSumIsAnUpperBound) {
  // Descends from 5 through 0 to -4.5 over offsets 0..19.
  const compress::SegmentModel s = Segment(20, 5.0, -0.5);
  const SegmentAggregate agg = AggregateSegment(s, 0, 19);
  const SegmentAggregate ref = Reference(s, 0, 19);
  EXPECT_EQ(agg.min, ref.min);
  EXPECT_EQ(agg.max, ref.max);
  EXPECT_EQ(agg.max_abs, 5.0);
  EXPECT_NEAR(agg.sum, ref.sum, 1e-12);
  EXPECT_GE(agg.abs_sum, ref.abs_sum);
  // Σ|v̂| exceeds |Σ v̂| here, so the exact-sum shortcut would undercount.
  EXPECT_GT(ref.abs_sum, std::fabs(ref.sum));
}

}  // namespace
}  // namespace lossyts::store

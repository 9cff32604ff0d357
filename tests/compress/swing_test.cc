#include "compress/swing.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/rng.h"

namespace lossyts::compress {
namespace {

TimeSeries NoisySine(size_t n, uint64_t seed, double base = 20.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = base + 5.0 * std::sin(static_cast<double>(i) * 0.05) +
           0.2 * rng.Normal();
  }
  return TimeSeries(0, 60, std::move(v));
}

TEST(SwingTest, RoundTripPreservesMetadata) {
  TimeSeries ts = NoisySine(500, 1);
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), ts.size());
  EXPECT_EQ(out->start_timestamp(), ts.start_timestamp());
  EXPECT_EQ(out->interval_seconds(), ts.interval_seconds());
}

TEST(SwingTest, RespectsRelativeErrorBound) {
  SwingCompressor swing;
  for (double eb : {0.01, 0.05, 0.1, 0.3, 0.8}) {
    TimeSeries ts = NoisySine(2000, 7);
    Result<std::vector<uint8_t>> blob = swing.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = swing.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-9)) << "eb=" << eb;
  }
}

TEST(SwingTest, PerfectLineIsOneSegment) {
  std::vector<double> v(5000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 10.0 + 0.01 * static_cast<double>(i);
  }
  TimeSeries ts(0, 60, std::move(v));
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.01);
  ASSERT_TRUE(blob.ok());
  // Header (11) + segment count (4) + one segment (2 + 8 + 8).
  EXPECT_EQ(blob->size(), 11u + 4u + 18u);
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.01);
}

TEST(SwingTest, FirstPointOfSegmentIsExact) {
  TimeSeries ts = NoisySine(300, 5);
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  // The very first value is always a segment anchor and stored exactly.
  EXPECT_DOUBLE_EQ((*out)[0], ts[0]);
}

TEST(SwingTest, LinearTrendBeatsPmcStyleConstantFit) {
  // On a pure trend Swing needs 1 segment while a constant fit needs many;
  // sanity-check Swing's segment economy on trends.
  std::vector<double> v(2000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 100.0 + 0.5 * static_cast<double>(i);
  }
  TimeSeries ts(0, 60, std::move(v));
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  EXPECT_LT(blob->size(), 100u);
}

TEST(SwingTest, ZeroCrossingsBreakSegments) {
  // Relative bounds give zero tolerance at v == 0, so a series passing
  // through exact zeros cannot be covered by long swing segments.
  std::vector<double> v;
  for (int rep = 0; rep < 50; ++rep) {
    for (int i = 0; i < 10; ++i) v.push_back(static_cast<double>(i));
    for (int i = 10; i > 0; --i) v.push_back(static_cast<double>(i));
    v.push_back(0.0);
  }
  TimeSeries ts(0, 600, std::move(v));
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.3);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] == 0.0) {
      EXPECT_EQ((*out)[i], 0.0) << "i=" << i;
    }
  }
}

TEST(SwingTest, InvalidErrorBoundFails) {
  TimeSeries ts = NoisySine(10, 1);
  SwingCompressor swing;
  EXPECT_FALSE(swing.Compress(ts, 0.0).ok());
  EXPECT_FALSE(swing.Compress(ts, 2.0).ok());
}

TEST(SwingTest, EmptySeriesFails) {
  SwingCompressor swing;
  EXPECT_FALSE(swing.Compress(TimeSeries(), 0.1).ok());
}

TEST(SwingTest, DecompressRejectsWrongAlgorithm) {
  TimeSeries ts = NoisySine(100, 1);
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  (*blob)[0] = 1;  // PMC's algorithm id.
  EXPECT_FALSE(swing.Decompress(*blob).ok());
}

TEST(SwingTest, SingleValueSeries) {
  TimeSeries ts(0, 60, {42.0});
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_DOUBLE_EQ((*out)[0], 42.0);
}

class SwingPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SwingPropertyTest, BoundHoldsOnRandomWalks) {
  const double eb = GetParam();
  SwingCompressor swing;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed + 100);
    std::vector<double> v(1500);
    double x = 100.0;
    for (auto& val : v) {
      x += rng.Normal();
      val = x;
    }
    TimeSeries ts(0, 1, std::move(v));
    Result<std::vector<uint8_t>> blob = swing.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = swing.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-9)) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SwingPropertyTest,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2, 0.5));

// Regression (conformance harness, "zero-blocks"/"sign-flips" families): an
// exact zero inside a segment has a zero-width allowance, but the midpoint
// slope times the in-segment index rounds — fl(-1/3)*3 is about -1+1.1e-16,
// so the reconstruction drifts off zero unless the compressor verifies with
// the decoder's exact arithmetic and shortens the segment.
TEST(SwingTest, ExactZeroInsideSlopeIsReconstructedExactly) {
  TimeSeries ts(0, 60, {1.0, 0.7, 0.35, 0.0});
  SwingCompressor swing;
  Result<std::vector<uint8_t>> blob = swing.Compress(ts, 0.2);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = swing.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  EXPECT_EQ((*out)[3], 0.0);
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.2);
}

// Regression (conformance harness, "steep" family): for values near
// DBL_MAX the slope-interval endpoints overflow to ±inf, the midpoint slope
// becomes ±inf or NaN, and at decode time inf*0 = NaN poisoned even the
// anchor point. The allowance endpoints can overflow to ±inf too, letting an
// infinite reconstruction "pass" the bound comparison.
TEST(SwingTest, NearMaxMagnitudesStayFiniteAndBounded) {
  std::vector<double> v;
  for (int i = 0; i < 16; ++i) {
    const double c = 0.1 + 0.05 * static_cast<double>(i);
    v.push_back((i % 2 == 0 ? 1.0 : -1.0) * c * 1.7976931348623157e308);
  }
  TimeSeries ts(0, 60, std::move(v));
  SwingCompressor swing;
  for (const double eb : {0.2, 0.8}) {
    Result<std::vector<uint8_t>> blob = swing.Compress(ts, eb);
    ASSERT_TRUE(blob.ok()) << "eb=" << eb;
    Result<TimeSeries> out = swing.Decompress(*blob);
    ASSERT_TRUE(out.ok()) << "eb=" << eb;
    ASSERT_EQ(out->size(), ts.size());
    for (size_t i = 0; i < ts.size(); ++i) {
      ASSERT_TRUE(std::isfinite((*out)[i])) << "eb=" << eb << " i=" << i;
      const Allowance a = RelativeAllowance(ts[i], eb);
      EXPECT_GE((*out)[i], a.lo) << "eb=" << eb << " i=" << i;
      EXPECT_LE((*out)[i], a.hi) << "eb=" << eb << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace lossyts::compress

#include "compress/ppa.h"

#include <cmath>

#include <gtest/gtest.h>

#include "compress/pmc.h"
#include "compress/swing.h"
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

TEST(PpaTest, RoundTripPreservesMetadata) {
  TimeSeries ts = NoisySine(500, 1);
  PpaCompressor ppa;
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = ppa.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), ts.size());
  EXPECT_EQ(out->start_timestamp(), ts.start_timestamp());
  EXPECT_EQ(out->interval_seconds(), ts.interval_seconds());
}

TEST(PpaTest, RespectsRelativeErrorBound) {
  PpaCompressor ppa;
  for (double eb : {0.01, 0.05, 0.1, 0.3}) {
    TimeSeries ts = NoisySine(1500, 7);
    Result<std::vector<uint8_t>> blob = ppa.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = ppa.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-9)) << "eb=" << eb;
  }
}

TEST(PpaTest, QuadraticSeriesNeedsFewSegments) {
  // A parabola far from zero: one degree-2 segment per 2048-point cap.
  std::vector<double> v(3000);
  for (size_t i = 0; i < v.size(); ++i) {
    const double t = static_cast<double>(i) / 1000.0;
    v[i] = 100.0 + 5.0 * t + 20.0 * t * t;
  }
  TimeSeries ts(0, 60, std::move(v));
  PpaCompressor ppa;
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.01);
  ASSERT_TRUE(blob.ok());
  // A handful of polynomial segments (the 2048-point cap forces at least
  // two); far below one coefficient per point.
  EXPECT_LE(blob->size(), 120u);
}

TEST(PpaTest, BeatsConstantAndLinearModelsOnCurvedData) {
  std::vector<double> v(4000);
  for (size_t i = 0; i < v.size(); ++i) {
    const double t = static_cast<double>(i) * 0.01;
    v[i] = 50.0 + 10.0 * std::sin(t * 0.2);  // Slowly curving, no noise.
  }
  TimeSeries ts(0, 60, std::move(v));
  PpaCompressor ppa;
  PmcCompressor pmc;
  SwingCompressor swing;
  Result<std::vector<uint8_t>> ppa_blob = ppa.Compress(ts, 0.01);
  Result<std::vector<uint8_t>> pmc_blob = pmc.Compress(ts, 0.01);
  Result<std::vector<uint8_t>> swing_blob = swing.Compress(ts, 0.01);
  ASSERT_TRUE(ppa_blob.ok());
  ASSERT_TRUE(pmc_blob.ok());
  ASSERT_TRUE(swing_blob.ok());
  EXPECT_LT(ppa_blob->size(), pmc_blob->size());
  EXPECT_LT(ppa_blob->size(), swing_blob->size());
}

TEST(PpaTest, HigherBoundGivesSmallerOutput) {
  TimeSeries ts = NoisySine(3000, 9);
  PpaCompressor ppa;
  Result<std::vector<uint8_t>> small_eb = ppa.Compress(ts, 0.01);
  Result<std::vector<uint8_t>> large_eb = ppa.Compress(ts, 0.3);
  ASSERT_TRUE(small_eb.ok());
  ASSERT_TRUE(large_eb.ok());
  EXPECT_LT(large_eb->size(), small_eb->size());
}

TEST(PpaTest, ExactZerosAreReconstructedExactly) {
  std::vector<double> v(300, 0.0);
  for (size_t i = 100; i < 200; ++i) v[i] = 10.0 + static_cast<double>(i);
  TimeSeries ts(0, 600, std::move(v));
  PpaCompressor ppa;
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.2);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = ppa.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ((*out)[i], 0.0) << i;
  for (size_t i = 200; i < 300; ++i) EXPECT_EQ((*out)[i], 0.0) << i;
}

TEST(PpaTest, MaxDegreeZeroDegeneratesToPiecewiseConstant) {
  PpaCompressor::Options options;
  options.max_degree = 0;
  PpaCompressor ppa(options);
  TimeSeries ts = NoisySine(500, 11);
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = ppa.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.1 * (1.0 + 1e-9));
}

TEST(PpaTest, InvalidErrorBoundFails) {
  PpaCompressor ppa;
  TimeSeries ts = NoisySine(10, 1);
  EXPECT_FALSE(ppa.Compress(ts, 0.0).ok());
  EXPECT_FALSE(ppa.Compress(ts, 1.5).ok());
}

TEST(PpaTest, EmptySeriesFails) {
  PpaCompressor ppa;
  EXPECT_FALSE(ppa.Compress(TimeSeries(), 0.1).ok());
}

// Regression: FitPolynomial solves at most a 3x3 system, so max_degree 3
// indexed past its arrays. Options are checked before any segment is fit.
TEST(PpaTest, MaxDegreeOutsideZeroToTwoIsInvalidArgument) {
  const TimeSeries ts = NoisySine(100, 1);
  for (int degree : {-1, 3}) {
    PpaCompressor::Options options;
    options.max_degree = degree;
    Result<std::vector<uint8_t>> blob =
        PpaCompressor(options).Compress(ts, 0.05);
    ASSERT_FALSE(blob.ok()) << "max_degree=" << degree;
    EXPECT_EQ(blob.status().code(), StatusCode::kInvalidArgument);
  }
}

// Regression: a segment length is stored as a u16, so a feasible 65536-point
// run (here: a constant series) stored length 0, never advanced, and grew
// the segment list without bound. The cap is now checked up front.
TEST(PpaTest, MaxSegmentLengthOutsideU16RangeIsInvalidArgument) {
  const TimeSeries ts(0, 60, std::vector<double>(70000, 5.0));
  for (size_t cap : {size_t{0}, size_t{65536}}) {
    PpaCompressor::Options options;
    options.max_segment_length = cap;
    Result<std::vector<uint8_t>> blob =
        PpaCompressor(options).Compress(ts, 0.05);
    ASSERT_FALSE(blob.ok()) << "max_segment_length=" << cap;
    EXPECT_EQ(blob.status().code(), StatusCode::kInvalidArgument);
  }
  // The largest storable cap still round-trips: 65535 + 4465 points.
  PpaCompressor::Options options;
  options.max_segment_length = 65535;
  const PpaCompressor ppa(options);
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok()) << blob.status().message();
  Result<TimeSeries> out = ppa.Decompress(*blob);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(out->values(), ts.values());
}

TEST(PpaTest, DecompressRejectsCorruption) {
  PpaCompressor ppa;
  TimeSeries ts = NoisySine(200, 1);
  Result<std::vector<uint8_t>> blob = ppa.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> truncated(*blob);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ppa.Decompress(truncated).ok());
  std::vector<uint8_t> wrong(*blob);
  wrong[0] = 1;
  EXPECT_FALSE(ppa.Decompress(wrong).ok());
}

class PpaPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(PpaPropertyTest, BoundHoldsOnRandomWalks) {
  const double eb = GetParam();
  PpaCompressor ppa;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed + 300);
    std::vector<double> v(1000);
    double x = 100.0;
    for (auto& val : v) {
      x += rng.Normal();
      val = x;
    }
    TimeSeries ts(0, 1, std::move(v));
    Result<std::vector<uint8_t>> blob = ppa.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = ppa.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-9)) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, PpaPropertyTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.3));

// Regression (conformance harness, "steep" family): fitting near-DBL_MAX
// values overflows the normal equations into NaN coefficients, and the old
// feasibility check `rec < lo || rec > hi` is all-false for NaN — the NaN
// polynomial sailed through and every point decoded as NaN.
TEST(PpaTest, NearMaxMagnitudesStayFiniteAndBounded) {
  std::vector<double> v;
  for (int i = 0; i < 12; ++i) {
    const double c = 0.1 + 0.07 * static_cast<double>(i);
    v.push_back((i % 2 == 0 ? 1.0 : -1.0) * c * 1.7976931348623157e308);
  }
  TimeSeries ts(0, 60, std::move(v));
  PpaCompressor ppa;
  for (const double eb : {0.01, 0.2, 0.8}) {
    Result<std::vector<uint8_t>> blob = ppa.Compress(ts, eb);
    ASSERT_TRUE(blob.ok()) << "eb=" << eb;
    Result<TimeSeries> out = ppa.Decompress(*blob);
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

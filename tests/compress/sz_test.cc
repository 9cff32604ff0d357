#include "compress/sz.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "compress/serde.h"
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

TEST(SzTest, RoundTripPreservesMetadata) {
  TimeSeries ts = NoisySine(500, 1);
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), ts.size());
  EXPECT_EQ(out->start_timestamp(), ts.start_timestamp());
  EXPECT_EQ(out->interval_seconds(), ts.interval_seconds());
}

TEST(SzTest, RespectsRelativeErrorBound) {
  SzCompressor sz;
  for (double eb : {0.01, 0.05, 0.1, 0.3, 0.8}) {
    TimeSeries ts = NoisySine(2000, 7);
    Result<std::vector<uint8_t>> blob = sz.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = sz.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-6)) << "eb=" << eb;
  }
}

TEST(SzTest, ExactZerosAreReconstructedExactly) {
  std::vector<double> v(400, 0.0);
  for (size_t i = 100; i < 300; ++i) {
    v[i] = 5.0 + std::sin(static_cast<double>(i) * 0.1);
  }
  TimeSeries ts(0, 600, std::move(v));
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ((*out)[i], 0.0);
  for (size_t i = 300; i < 400; ++i) EXPECT_EQ((*out)[i], 0.0);
}

TEST(SzTest, NegativeValuesKeepSign) {
  Rng rng(5);
  std::vector<double> v(1000);
  for (auto& x : v) x = -30.0 + rng.Normal();
  TimeSeries ts(0, 60, std::move(v));
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_LT((*out)[i], 0.0);
  }
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.05 * (1.0 + 1e-6));
}

TEST(SzTest, MixedSignSeriesRespectsBound) {
  Rng rng(6);
  std::vector<double> v(2000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 10.0 * std::sin(static_cast<double>(i) * 0.02) + 0.1 * rng.Normal();
  }
  TimeSeries ts(0, 60, std::move(v));
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.1 * (1.0 + 1e-6));
}

TEST(SzTest, QuantizationCreatesConstantRuns) {
  // The paper's Figure 1 observation: SZ output looks piecewise constant.
  TimeSeries ts = NoisySine(2000, 11);
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  size_t runs = 1;
  for (size_t i = 1; i < out->size(); ++i) {
    if ((*out)[i] != (*out)[i - 1]) ++runs;
  }
  EXPECT_LT(runs, ts.size());
}

TEST(SzTest, HigherBoundGivesSmallerOutput) {
  TimeSeries ts = NoisySine(4000, 9);
  SzCompressor sz;
  Result<std::vector<uint8_t>> small_eb = sz.Compress(ts, 0.01);
  Result<std::vector<uint8_t>> large_eb = sz.Compress(ts, 0.5);
  ASSERT_TRUE(small_eb.ok());
  ASSERT_TRUE(large_eb.ok());
  EXPECT_LE(large_eb->size(), small_eb->size());
}

TEST(SzTest, TinyValuesStoredWithinBound) {
  std::vector<double> v = {1e-8, 2e-8, -3e-8, 1e-300, -1e-300, 4.0};
  TimeSeries ts(0, 60, std::move(v));
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.1 * (1.0 + 1e-6));
}

TEST(SzTest, InvalidErrorBoundFails) {
  TimeSeries ts = NoisySine(10, 1);
  SzCompressor sz;
  EXPECT_FALSE(sz.Compress(ts, 0.0).ok());
  EXPECT_FALSE(sz.Compress(ts, 1.0).ok());
}

TEST(SzTest, EmptySeriesFails) {
  SzCompressor sz;
  EXPECT_FALSE(sz.Compress(TimeSeries(), 0.1).ok());
}

TEST(SzTest, DecompressRejectsCorruptedBlob) {
  TimeSeries ts = NoisySine(500, 1);
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> truncated(*blob);
  truncated.resize(truncated.size() / 3);
  EXPECT_FALSE(sz.Decompress(truncated).ok());
  std::vector<uint8_t> wrong_alg(*blob);
  wrong_alg[0] = 1;
  EXPECT_FALSE(sz.Decompress(wrong_alg).ok());
}

TEST(SzTest, CustomBlockSizeWorks) {
  SzCompressor::Options options;
  options.block_size = 32;
  SzCompressor sz(options);
  TimeSeries ts = NoisySine(777, 2);
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.05 * (1.0 + 1e-6));
}

class SzPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SzPropertyTest, BoundHoldsOnRandomWalks) {
  const double eb = GetParam();
  SzCompressor sz;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed + 200);
    std::vector<double> v(1500);
    double x = 100.0;
    for (auto& val : v) {
      x += rng.Normal();
      val = x;
    }
    TimeSeries ts(0, 1, std::move(v));
    Result<std::vector<uint8_t>> blob = sz.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = sz.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-6)) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzPropertyTest,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2, 0.5));

// Regression (conformance harness, "steep" family): ε·min|v| past FLT_MAX
// used to cast to a +inf block bound, and every "predictable" point then
// reconstructed as pred + 2·inf·0 = NaN.
TEST(SzTest, NearMaxMagnitudesStayFiniteAndBounded) {
  std::vector<double> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back((i % 2 == 0 ? 1.0 : -1.0) * 1.5e308);
  }
  TimeSeries ts(0, 60, std::move(v));
  SzCompressor sz;
  for (const double eb : {0.2, 0.8}) {
    Result<std::vector<uint8_t>> blob = sz.Compress(ts, eb);
    ASSERT_TRUE(blob.ok()) << "eb=" << eb;
    Result<TimeSeries> out = sz.Decompress(*blob);
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

// Regression (conformance harness, "tiny" family): for subnormal magnitudes
// ε·min|v| underflows the f32 block bound to zero; every point must then be
// stored verbatim, making the round trip exact.
TEST(SzTest, SubnormalMagnitudesRoundTripExactly) {
  TimeSeries ts(0, 60, {1e-320, -3e-321, 5e-324, -1e-310, 2e-315});
  SzCompressor sz;
  Result<std::vector<uint8_t>> blob = sz.Compress(ts, 0.5);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = sz.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ((*out)[i], ts[i]) << "i=" << i;
  }
}

// Builds a minimal single-point raw-mode (mode byte 1) SZ blob carrying the
// given symbol, with one Lorenzo block of bound 0.5 and no unpredictable
// values. Exercises the decoder path the encoder reaches only when Huffman
// construction fails.
std::vector<uint8_t> RawModeBlob(uint32_t symbol) {
  ByteWriter w;
  w.PutU8(3);   // AlgorithmId::kSz.
  w.PutI32(0);  // First timestamp.
  w.PutU16(60);
  w.PutU32(1);  // num_points.
  w.PutU32(1);  // Non-zero count.
  w.PutU8(1);   // Class: non-zero.
  w.PutU32(1);  // One block model.
  w.PutU8(0);   // Lorenzo predictor.
  const float bound = 0.5f;
  uint32_t bound_bits;
  std::memcpy(&bound_bits, &bound, sizeof(bound_bits));
  w.PutU32(bound_bits);
  w.PutU8(1);  // Raw symbol mode.
  w.PutU32(symbol);
  w.PutU32(0);  // No unpredictable values.
  return w.Finish();
}

TEST(SzTest, RawModeBlobDecodes) {
  // Default quant_radius is 32768, so symbol radius+1 carries code +1:
  // value = prev_rec(0) + 2·0.5·1 = 1.
  SzCompressor sz;
  Result<TimeSeries> out = sz.Decompress(RawModeBlob(32769));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_DOUBLE_EQ((*out)[0], 1.0);
}

// Regression: raw symbols were cast to int *before* the range check, so a
// value >= 2^31 wrapped negative, slipped past `sym > unpredictable_symbol`,
// and indexed the reconstruction with garbage.
TEST(SzTest, RawSymbolPastIntRangeIsCorruption) {
  SzCompressor sz;
  Result<TimeSeries> out = sz.Decompress(RawModeBlob(0x80000000u));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(SzTest, RawSymbolJustPastAlphabetIsCorruption) {
  // unpredictable_symbol = 2·32768; one past it is invalid.
  SzCompressor sz;
  Result<TimeSeries> out = sz.Decompress(RawModeBlob(65537));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(SzTest, UnpredictableSymbolWithEmptyStreamIsCorruption) {
  // The symbol itself is in range but the unpredictable value stream is
  // empty; the decoder must fail cleanly instead of reading past it.
  SzCompressor sz;
  Result<TimeSeries> out = sz.Decompress(RawModeBlob(65536));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

// A series of exact zeros has no quantization symbols, so its Huffman
// table is empty (mode 0, n_used 0). The encoder's bytes stay as they were;
// the decoder must accept the empty table when there is nothing to decode.
TEST(SzTest, AllZeroSeriesRoundTrips) {
  const SzCompressor codec;
  for (size_t n : {size_t{1}, size_t{1024}}) {
    const TimeSeries zeros(0, 60, std::vector<double>(n, 0.0));
    Result<std::vector<uint8_t>> blob = codec.Compress(zeros, 0.05);
    ASSERT_TRUE(blob.ok());
    if (n == 1024) {
      // Header 11, counts 4 + 4, classes 1024, mode 1, n_used 4, payload
      // size 4, unpredictable count 4.
      EXPECT_EQ(blob->size(), 1056u);
    }
    Result<TimeSeries> out = codec.Decompress(*blob);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), n);
    for (double v : out->values()) {
      EXPECT_EQ(v, 0.0);
      EXPECT_FALSE(std::signbit(v));
    }
  }
}

}  // namespace
}  // namespace lossyts::compress

#include "compress/lfzip.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <limits>

#include <gtest/gtest.h>

#include "compress/serde.h"
#include "damaged_blob.h"
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

TEST(LfzipTest, RoundTripPreservesMetadata) {
  TimeSeries ts = NoisySine(500, 1);
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), ts.size());
  EXPECT_EQ(out->start_timestamp(), ts.start_timestamp());
  EXPECT_EQ(out->interval_seconds(), ts.interval_seconds());
}

TEST(LfzipTest, RespectsRelativeErrorBound) {
  LfzipCompressor lfzip;
  for (double eb : {0.01, 0.05, 0.1, 0.3, 0.8}) {
    TimeSeries ts = NoisySine(2000, 7);
    Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = lfzip.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-6)) << "eb=" << eb;
  }
}

TEST(LfzipTest, ExactZerosAreReconstructedExactly) {
  std::vector<double> v(400, 0.0);
  for (size_t i = 100; i < 300; ++i) {
    v[i] = 5.0 + std::sin(static_cast<double>(i) * 0.1);
  }
  TimeSeries ts(0, 600, std::move(v));
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ((*out)[i], 0.0);
  for (size_t i = 300; i < 400; ++i) EXPECT_EQ((*out)[i], 0.0);
}

TEST(LfzipTest, NlmsPredictionShrinksOutputOnCorrelatedData) {
  // A strongly autocorrelated ramp: the NLMS filter should converge to
  // near-perfect prediction, leaving residual codes that Huffman packs much
  // tighter than the 8-byte values.
  std::vector<double> v(4000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 100.0 + 0.01 * static_cast<double>(i);
  }
  TimeSeries ts(0, 60, std::move(v));
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.01);
  ASSERT_TRUE(blob.ok());
  EXPECT_LT(blob->size(), ts.size() * sizeof(double) / 4);
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.01 * (1.0 + 1e-6));
}

TEST(LfzipTest, HigherBoundGivesSmallerOrEqualOutput) {
  TimeSeries ts = NoisySine(4000, 9);
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> small_eb = lfzip.Compress(ts, 0.01);
  Result<std::vector<uint8_t>> large_eb = lfzip.Compress(ts, 0.5);
  ASSERT_TRUE(small_eb.ok());
  ASSERT_TRUE(large_eb.ok());
  EXPECT_LE(large_eb->size(), small_eb->size());
}

TEST(LfzipTest, InvalidErrorBoundFails) {
  TimeSeries ts = NoisySine(10, 1);
  LfzipCompressor lfzip;
  EXPECT_FALSE(lfzip.Compress(ts, 0.0).ok());
  EXPECT_FALSE(lfzip.Compress(ts, 1.0).ok());
}

TEST(LfzipTest, EmptySeriesFails) {
  LfzipCompressor lfzip;
  EXPECT_FALSE(lfzip.Compress(TimeSeries(), 0.1).ok());
}

TEST(LfzipTest, DecompressRejectsCorruptedBlob) {
  TimeSeries ts = NoisySine(500, 1);
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> truncated(*blob);
  truncated.resize(truncated.size() / 3);
  EXPECT_FALSE(lfzip.Decompress(truncated).ok());
  std::vector<uint8_t> wrong_alg(*blob);
  wrong_alg[0] = 1;
  EXPECT_FALSE(lfzip.Decompress(wrong_alg).ok());
}

class LfzipPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(LfzipPropertyTest, BoundHoldsOnRandomWalks) {
  const double eb = GetParam();
  LfzipCompressor lfzip;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed + 300);
    std::vector<double> v(1500);
    double x = 100.0;
    for (auto& val : v) {
      x += rng.Normal();
      val = x;
    }
    TimeSeries ts(0, 1, std::move(v));
    Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, eb);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> out = lfzip.Decompress(*blob);
    ASSERT_TRUE(out.ok());
    Result<double> max_rel = MaxRelError(ts.values(), out->values());
    ASSERT_TRUE(max_rel.ok());
    EXPECT_LE(*max_rel, eb * (1.0 + 1e-6)) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, LfzipPropertyTest,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2, 0.5));

// Regression (residual-quantizer overflow near DBL_MAX): the residual
// (w − pred)/(2δ) for sign-alternating ±1.5e308 values divides to ±inf or an
// enormous double whose unchecked int cast is UB; the range check must run
// on the double *before* the cast and route the point to verbatim storage,
// and the f32 block bound must saturate to FLT_MAX, not +inf.
TEST(LfzipTest, NearMaxMagnitudesStayFiniteAndBounded) {
  std::vector<double> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back((i % 2 == 0 ? 1.0 : -1.0) * 1.5e308);
  }
  TimeSeries ts(0, 60, std::move(v));
  LfzipCompressor lfzip;
  for (const double eb : {0.2, 0.8}) {
    Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, eb);
    ASSERT_TRUE(blob.ok()) << "eb=" << eb;
    Result<TimeSeries> out = lfzip.Decompress(*blob);
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
// ε·min|v| underflows the f32 step to zero; every point must then be stored
// verbatim, making the round trip exact.
TEST(LfzipTest, SubnormalMagnitudesRoundTripExactly) {
  TimeSeries ts(0, 60, {1e-320, -3e-321, 5e-324, -1e-310, 2e-315});
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.5);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ((*out)[i], ts[i]) << "i=" << i;
  }
}

// Builds a minimal raw-mode (mode byte 1) LFZip blob over `symbols`, one
// block with the given f32 step and the given verbatim value stream — the
// handle for feeding the decoder's NLMS replay adversarial inputs the
// encoder itself can never produce.
std::vector<uint8_t> RawModeBlob(const std::vector<uint32_t>& symbols,
                                 float step,
                                 const std::vector<double>& verbatim) {
  ByteWriter w;
  w.PutU8(7);   // AlgorithmId::kLfzip.
  w.PutI32(0);  // First timestamp.
  w.PutU16(60);
  w.PutU32(static_cast<uint32_t>(symbols.size()));  // num_points.
  w.PutU32(static_cast<uint32_t>(symbols.size()));  // Non-zero count.
  for (size_t i = 0; i < symbols.size(); ++i) w.PutU8(1);
  w.PutU32(1);  // One block.
  uint32_t step_bits;
  std::memcpy(&step_bits, &step, sizeof(step_bits));
  w.PutU32(step_bits);
  w.PutU8(1);  // Raw symbol mode.
  for (uint32_t s : symbols) w.PutU32(s);
  w.PutU32(static_cast<uint32_t>(verbatim.size()));
  for (double x : verbatim) w.PutDouble(x);
  return w.Finish();
}

constexpr uint32_t kUnpredictable = 65536;  // 2 · default quant_radius.

// Regression (predictor divergence on non-finite prefixes): a corrupted blob
// can replay inf/NaN verbatim values straight into the NLMS history. The
// filter's normalizer and weight update then produce NaN gradients; the
// deterministic reset guard must keep the replay crash-free and bring the
// filter back to a sane state once finite values resume.
TEST(LfzipTest, NonFinitePrefixDoesNotPoisonNlmsReplay) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Two poisoned verbatim points, then quantized codes predicted from the
  // poisoned history (code 0 ⇒ value == prediction).
  Result<TimeSeries> out = LfzipCompressor().Decompress(
      RawModeBlob({kUnpredictable, kUnpredictable, 32768, 32768, 32768},
                  0.5f, {inf, nan}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 5u);
  EXPECT_TRUE(std::isinf((*out)[0]));
  EXPECT_TRUE(std::isnan((*out)[1]));
  // The divergence guard pins every post-poison prediction to a finite
  // value, so the decoded tail must be finite — not NaN forever.
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(std::isfinite((*out)[i])) << "i=" << i;
  }
}

TEST(LfzipTest, EncoderNeverEmitsNonFinite) {
  // The encoder's own divergence guard: whatever the NLMS weights do on this
  // adversarially spiky input, every emitted reconstruction must be finite
  // and in-bound (the conform corpus "steep" family in miniature).
  std::vector<double> v;
  double sign = 1.0;
  for (int i = 0; i < 64; ++i) {
    v.push_back(sign * std::pow(10.0, 1.0 + (i % 30) * 10.0));
    sign = -sign;
  }
  TimeSeries ts(0, 60, std::move(v));
  LfzipCompressor lfzip;
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(std::isfinite((*out)[i])) << "i=" << i;
    const Allowance a = RelativeAllowance(ts[i], 0.1);
    EXPECT_GE((*out)[i], a.lo) << "i=" << i;
    EXPECT_LE((*out)[i], a.hi) << "i=" << i;
  }
}

TEST(LfzipTest, RawSymbolPastIntRangeIsCorruption) {
  // Unsigned comparison before the int cast: 2^31 must be rejected, not
  // wrapped negative.
  Result<TimeSeries> out = LfzipCompressor().Decompress(
      RawModeBlob({0x80000000u}, 0.5f, {}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(LfzipTest, UnpredictableSymbolWithEmptyStreamIsCorruption) {
  Result<TimeSeries> out = LfzipCompressor().Decompress(
      RawModeBlob({kUnpredictable}, 0.5f, {}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(LfzipTest, SymbolStreamPastDeltaBlocksIsCorruption) {
  // 200 symbols but only one declared block (block_size 128): the delta
  // stream runs out at index 128 and the decoder must fail, not read past
  // the deltas vector.
  std::vector<uint32_t> symbols(200, 32768);
  Result<TimeSeries> out =
      LfzipCompressor().Decompress(RawModeBlob(symbols, 0.5f, {}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(LfzipTest, CustomFilterOrderRoundTrips) {
  LfzipCompressor::Options options;
  options.filter_order = 2;
  options.block_size = 32;
  LfzipCompressor lfzip(options);
  TimeSeries ts = NoisySine(777, 2);
  Result<std::vector<uint8_t>> blob = lfzip.Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  Result<TimeSeries> out = lfzip.Decompress(*blob);
  ASSERT_TRUE(out.ok());
  Result<double> max_rel = MaxRelError(ts.values(), out->values());
  ASSERT_TRUE(max_rel.ok());
  EXPECT_LE(*max_rel, 0.05 * (1.0 + 1e-6));
}

// A series of exact zeros has no quantization symbols, so its Huffman
// table is empty (mode 0, n_used 0). The encoder's bytes stay as they were;
// the decoder must accept the empty table when there is nothing to decode.
TEST(LfzipTest, AllZeroSeriesRoundTrips) {
  const LfzipCompressor codec;
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

// A noisy sine with exact zeros and two jumps no quantization code reaches,
// so every stream of the blob is populated.
TimeSeries DamageCorpus() {
  TimeSeries ts = NoisySine(600, 5);
  std::vector<double>& v = ts.mutable_values();
  for (size_t i = 40; i < 45; ++i) v[i] = 0.0;
  v[300] = 0.0;
  v[200] = 1e12;
  v[450] = -3e11;
  return ts;
}

// Pins the decode outcome of Lfzip blobs damaged one way each, so a
// faster decoder must fail with exactly the same status at the same step.
TEST(LfzipTest, DamagedBlobOutcomesArePinned) {
  const LfzipCompressor codec;
  Result<std::vector<uint8_t>> blob = codec.Compress(DamageCorpus(), 0.05);
  ASSERT_TRUE(blob.ok());
  const BlobLayout layout = MapBlob(*blob, AlgorithmId::kLfzip);
  ASSERT_GT(layout.unpredictable, 0u);
  struct Pin {
    const char* damage;
    const char* outcome;
  };
  const Pin pins[] = {
      {"last class byte 2", "Corruption: invalid LFZip value class"},
      {"class stream truncated", "Corruption: LFZip class stream truncated"},
      {"unpredictable stream exhausted",
       "Corruption: LFZip unpredictable stream exhausted"},
      {"symbol mode 2", "Corruption: invalid LFZip symbol coding mode"},
      {"payload byte flipped",
       "Corruption: LFZip unpredictable stream exhausted"},
      {"payload last bit flipped", "OutOfRange: bit stream exhausted"},
      {"payload all ones", "OutOfRange: bit stream exhausted"},
      {"payload one byte short", "OutOfRange: bit stream exhausted"},
      {"payload size past end", "Corruption: LFZip Huffman payload truncated"},
      {"table cut to one pair", "Corruption: invalid Huffman code in stream"},
  };
  std::string table;
  for (const Pin& pin : pins) {
    const std::string outcome =
        DecodeOutcome(codec, Damage(pin.damage, *blob, layout));
    table += std::string("      {\"") + pin.damage + "\", \"" + outcome +
             "\"},\n";
    EXPECT_EQ(outcome, pin.outcome) << pin.damage;
  }
  if (HasFailure()) std::printf("outcome table:\n%s", table.c_str());
}

}  // namespace
}  // namespace lossyts::compress

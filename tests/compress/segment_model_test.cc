// The shared PMC/Swing segment core (compress/segment_model.h): the wire
// parser and writer called directly, plus the encoder windows' edge cases.

#include "compress/segment_model.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "compress/pmc.h"
#include "compress/swing.h"
#include "compress/sz.h"

namespace lossyts::compress {
namespace {

SegmentModel Segment(uint32_t length, double anchor, double slope = 0.0,
                     bool f32 = false) {
  SegmentModel s;
  s.length = length;
  s.anchor = anchor;
  s.slope = slope;
  s.f32 = f32;
  return s;
}

std::vector<uint8_t> WriteBlob(AlgorithmId algorithm,
                               const std::vector<SegmentModel>& segments,
                               uint32_t num_points) {
  SegmentBlobWriter writer;
  writer.Begin(algorithm, 1000, 60);
  for (const SegmentModel& s : segments) writer.Put(s);
  Result<std::vector<uint8_t>> blob = writer.Finish(num_points);
  EXPECT_TRUE(blob.ok());
  return *blob;
}

Result<std::vector<SegmentModel>> Parse(const std::vector<uint8_t>& blob) {
  std::vector<SegmentModel> out;
  Result<BlobHeader> header =
      ParseSegments(blob, [&](const SegmentModel& s) { out.push_back(s); });
  if (!header.ok()) return header.status();
  return out;
}

TEST(SegmentParserTest, PmcWidthsRoundTrip) {
  // 1.5 is exact in f32; 0.1 is stored as f64 to keep its exact value.
  const std::vector<uint8_t> blob = WriteBlob(
      AlgorithmId::kPmc, {Segment(3, 1.5, 0.0, true), Segment(2, 0.1)}, 5);
  // Header (11) + count (4) + [u16 + u8 + f32] + [u16 + u8 + f64].
  EXPECT_EQ(blob.size(), 11u + 4u + 7u + 11u);
  Result<std::vector<SegmentModel>> parsed = Parse(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].start, 0u);
  EXPECT_EQ((*parsed)[0].length, 3u);
  EXPECT_EQ((*parsed)[0].anchor, 1.5);
  EXPECT_TRUE((*parsed)[0].f32);
  EXPECT_EQ((*parsed)[1].start, 3u);
  EXPECT_EQ((*parsed)[1].anchor, 0.1);
  EXPECT_FALSE((*parsed)[1].f32);
  // Writing the parsed segments back reproduces the blob byte for byte.
  EXPECT_EQ(WriteBlob(AlgorithmId::kPmc, *parsed, 5), blob);
}

TEST(SegmentParserTest, MatchesTheDecoders) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) {
    v.push_back(10.0 + std::sin(i * 0.1) * 3.0 + (i % 7) * 0.01);
  }
  const TimeSeries series(0, 60, v);
  const PmcCompressor pmc;
  const SwingCompressor swing;
  for (const Compressor* codec :
       {static_cast<const Compressor*>(&pmc),
        static_cast<const Compressor*>(&swing)}) {
    Result<std::vector<uint8_t>> blob = codec->Compress(series, 0.05);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> decoded = codec->Decompress(*blob);
    ASSERT_TRUE(decoded.ok());
    Result<std::vector<SegmentModel>> parsed = Parse(*blob);
    ASSERT_TRUE(parsed.ok());
    size_t i = 0;
    for (const SegmentModel& s : *parsed) {
      ASSERT_EQ(s.start, i);
      for (uint32_t k = 0; k < s.length; ++k, ++i) {
        EXPECT_EQ(s.ValueAt(k), decoded->values()[i]) << codec->name();
      }
    }
    EXPECT_EQ(i, series.size());
  }
}

TEST(SegmentParserTest, LengthOneSegments) {
  const std::vector<uint8_t> blob = WriteBlob(
      AlgorithmId::kSwing, {Segment(1, -2.0, 7.0), Segment(1, 3.0)}, 2);
  Result<std::vector<SegmentModel>> parsed = Parse(blob);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].ValueAt(0), -2.0);
  EXPECT_EQ((*parsed)[1].start, 1u);
  Result<TimeSeries> decoded = SwingCompressor().Decompress(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->values(), (std::vector<double>{-2.0, 3.0}));
}

TEST(SegmentParserTest, BadWidthFlagIsCorruption) {
  std::vector<uint8_t> blob =
      WriteBlob(AlgorithmId::kPmc, {Segment(4, 1.5, 0.0, true)}, 4);
  blob[11 + 4 + 2] = 7;  // The width flag after the u16 length.
  Result<std::vector<SegmentModel>> parsed = Parse(blob);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(PmcCompressor().Decompress(blob).status().code(),
            StatusCode::kCorruption);
}

TEST(SegmentParserTest, LengthOverrunIsCorruption) {
  for (AlgorithmId algorithm : {AlgorithmId::kPmc, AlgorithmId::kSwing}) {
    const std::vector<uint8_t> blob =
        WriteBlob(algorithm, {Segment(3, 1.0), Segment(3, 2.0)}, 5);
    Result<std::vector<SegmentModel>> parsed = Parse(blob);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    EXPECT_NE(parsed.status().message().find("overrun"), std::string::npos);
  }
}

TEST(SegmentParserTest, ShortSumIsCorruption) {
  for (AlgorithmId algorithm : {AlgorithmId::kPmc, AlgorithmId::kSwing}) {
    const std::vector<uint8_t> blob =
        WriteBlob(algorithm, {Segment(3, 1.0), Segment(1, 2.0)}, 5);
    Result<std::vector<SegmentModel>> parsed = Parse(blob);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    EXPECT_NE(parsed.status().message().find("do not sum"), std::string::npos);
  }
}

TEST(SegmentParserTest, TruncationIsCorruption) {
  const std::vector<uint8_t> full =
      WriteBlob(AlgorithmId::kSwing, {Segment(2, 1.0, 0.5)}, 2);
  const std::vector<uint8_t> blob(full.begin(), full.end() - 1);
  Result<std::vector<SegmentModel>> parsed = Parse(blob);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(SegmentParserTest, NonModelAlgorithmIsInvalidArgument) {
  const TimeSeries series(0, 60, {1.0, 2.0, 3.0, 4.0});
  Result<std::vector<uint8_t>> sz = SzCompressor().Compress(series, 0.05);
  ASSERT_TRUE(sz.ok());
  Result<std::vector<SegmentModel>> parsed = Parse(*sz);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({}).status().code(), StatusCode::kCorruption);
}

TEST(SegmentWindowTest, PmcWidthOption) {
  // 0.1 is not f32-exact; at a tight bound only the f64 mean fits.
  PmcWindow narrow(true);
  PmcWindow wide(false);
  for (PmcWindow* w : {&narrow, &wide}) {
    EXPECT_TRUE(w->Accept(0.1, 1e-12));
    EXPECT_TRUE(w->Accept(0.1, 1e-12));
  }
  EXPECT_FALSE(narrow.Close().f32);
  EXPECT_EQ(narrow.Close().anchor, 0.1);
  // At a loose bound the f32 rounding is inside the interval.
  PmcWindow loose(true);
  EXPECT_TRUE(loose.Accept(0.1, 0.01));
  EXPECT_TRUE(loose.Close().f32);
  EXPECT_EQ(loose.Close().anchor, static_cast<double>(0.1f));
  EXPECT_FALSE(wide.Close().f32);
}

TEST(SegmentWindowTest, PmcRejectsPastTheLengthCap) {
  PmcWindow window;
  for (size_t i = 0; i < kMaxSegmentLength; ++i) {
    ASSERT_TRUE(window.Accept(5.0, 0.1));
  }
  EXPECT_FALSE(window.Accept(5.0, 0.1));
  EXPECT_EQ(window.Close().length, kMaxSegmentLength);
}

TEST(SegmentWindowTest, SwingVerifyShrinkKeepsTheBound) {
  // An exact zero has a zero-width allowance: the closed line must hit it
  // exactly or stop before it.
  const std::vector<double> v = {1.0, 0.5, 0.0, -0.5, 7.0};
  SwingWindow window;
  window.Start(v[0]);
  size_t i = 1;
  while (i < v.size() && window.Accept(v[i], 0.01)) ++i;
  const SegmentModel s = window.Close(v.data(), 0.01);
  ASSERT_GE(s.length, 1u);
  ASSERT_LE(s.length, i);
  for (uint32_t k = 0; k < s.length; ++k) {
    const Allowance a = RelativeAllowance(v[k], 0.01);
    EXPECT_GE(s.ValueAt(k), a.lo);
    EXPECT_LE(s.ValueAt(k), a.hi);
  }
}

}  // namespace
}  // namespace lossyts::compress

#include "zip/gzip.h"

#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace lossyts::zip {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(GzipTest, RoundTripText) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "gzip container round trip ";
  std::vector<uint8_t> input = Bytes(text);
  std::vector<uint8_t> gz = GzipCompress(input);
  Result<std::vector<uint8_t>> out = GzipDecompress(gz);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
}

TEST(GzipTest, RoundTripEmpty) {
  std::vector<uint8_t> gz = GzipCompress({});
  Result<std::vector<uint8_t>> out = GzipDecompress(gz);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GzipTest, HeaderHasGzipMagic) {
  std::vector<uint8_t> gz = GzipCompress(Bytes("x"));
  ASSERT_GE(gz.size(), 18u);
  EXPECT_EQ(gz[0], 0x1F);
  EXPECT_EQ(gz[1], 0x8B);
  EXPECT_EQ(gz[2], 8);  // DEFLATE.
}

TEST(GzipTest, DetectsCorruptedBody) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "some compressible payload ";
  std::vector<uint8_t> gz = GzipCompress(Bytes(text));
  gz[gz.size() / 2] ^= 0x5A;  // Flip bits mid-body.
  EXPECT_FALSE(GzipDecompress(gz).ok());
}

TEST(GzipTest, DetectsCorruptedCrc) {
  std::vector<uint8_t> gz = GzipCompress(Bytes("check the trailer"));
  gz[gz.size() - 5] ^= 0xFF;  // Inside the CRC field.
  Result<std::vector<uint8_t>> out = GzipDecompress(gz);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(GzipTest, DetectsBadMagic) {
  std::vector<uint8_t> gz = GzipCompress(Bytes("hello"));
  gz[0] = 0x00;
  EXPECT_FALSE(GzipDecompress(gz).ok());
}

TEST(GzipTest, RejectsReservedFlagBits) {
  // RFC 1952 §2.3.1.2: a decompressor must report an error when a reserved
  // FLG bit (5, 6 or 7) is set.
  for (const uint8_t bit : {uint8_t{0x20}, uint8_t{0x40}, uint8_t{0x80}}) {
    std::vector<uint8_t> gz = GzipCompress(Bytes("hello"));
    gz[3] |= bit;
    Result<std::vector<uint8_t>> out = GzipDecompress(gz);
    ASSERT_FALSE(out.ok()) << "FLG bit " << int{bit};
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
  }
}

TEST(GzipTest, RejectsTooShortInput) {
  std::vector<uint8_t> tiny = {0x1F, 0x8B, 0x08};
  EXPECT_FALSE(GzipDecompress(tiny).ok());
}

TEST(GzipTest, CompressesDoublePayloadBelowRawSize) {
  // Smooth time-series doubles (the raw-dataset baseline case).
  Rng rng(17);
  std::vector<double> values;
  double v = 50.0;
  for (int i = 0; i < 20000; ++i) {
    v += 0.05 * rng.Normal();
    values.push_back(v);
  }
  std::vector<uint8_t> input(
      reinterpret_cast<const uint8_t*>(values.data()),
      reinterpret_cast<const uint8_t*>(values.data()) + values.size() * 8);
  std::vector<uint8_t> gz = GzipCompress(input);
  EXPECT_LT(gz.size(), input.size());
  Result<std::vector<uint8_t>> out = GzipDecompress(gz);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(GzipTest, RandomPayloadSweep) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint8_t> input;
    const size_t n = rng.UniformInt(20000);
    for (size_t i = 0; i < n; ++i) {
      input.push_back(static_cast<uint8_t>(rng.UniformInt(64)));
    }
    std::vector<uint8_t> gz = GzipCompress(input);
    Result<std::vector<uint8_t>> out = GzipDecompress(gz);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(*out, input);
  }
}

}  // namespace
}  // namespace lossyts::zip

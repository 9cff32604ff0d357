// Decoder robustness: every Decompress implementation (and DecompressAny)
// must reject arbitrary garbage with a clean Status — never crash, hang or
// read out of bounds. This is a light deterministic fuzz over random blobs
// and bit-flipped valid blobs.

#include <cmath>
#include <cstring>
#include <span>

#include <gtest/gtest.h>

#include "compress/pipeline.h"
#include "compress/serde.h"
#include "compress/sz.h"
#include "damaged_blob.h"
#include "core/rng.h"

namespace lossyts::compress {
namespace {

const std::vector<std::string>& AllCodecs() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "PMC", "SWING", "SZ", "PPA", "GORILLA", "CHIMP", "LFZIP", "CAMEO"};
  return names;
}

TimeSeries SampleSeries(size_t n) {
  Rng rng(5);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 15.0 + 3.0 * std::sin(static_cast<double>(i) * 0.07) +
           0.2 * rng.Normal();
  }
  return TimeSeries(0, 60, std::move(v));
}

TEST(DecompressAnyTest, DispatchesEveryCodec) {
  TimeSeries ts = SampleSeries(600);
  for (const std::string& name : AllCodecs()) {
    Result<std::unique_ptr<Compressor>> codec = MakeCompressor(name);
    ASSERT_TRUE(codec.ok()) << name;
    Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.1);
    ASSERT_TRUE(blob.ok()) << name;
    Result<TimeSeries> out = DecompressAny(*blob);
    ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
    EXPECT_EQ(out->size(), ts.size()) << name;
  }
}

TEST(DecompressAnyTest, RejectsEmptyAndUnknown) {
  EXPECT_FALSE(DecompressAny({}).ok());
  EXPECT_FALSE(DecompressAny(std::vector<uint8_t>{0x00, 0x01, 0x02}).ok());
  EXPECT_FALSE(DecompressAny(std::vector<uint8_t>{0xFF}).ok());
}

TEST(RobustnessTest, RandomBlobsNeverCrash) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(400));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.UniformInt(256));
    // Must return (usually an error); must not crash or hang.
    Result<TimeSeries> out = DecompressAny(garbage);
    (void)out;
  }
  SUCCEED();
}

TEST(RobustnessTest, BitFlippedBlobsNeverCrash) {
  TimeSeries ts = SampleSeries(400);
  Rng rng(78);
  for (const std::string& name : AllCodecs()) {
    Result<std::unique_ptr<Compressor>> codec = MakeCompressor(name);
    ASSERT_TRUE(codec.ok());
    Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.1);
    ASSERT_TRUE(blob.ok());
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint8_t> mutated = *blob;
      // Flip 1-4 random bits outside the algorithm-id byte.
      const int flips = 1 + static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = 1 + rng.UniformInt(mutated.size() - 1);
        mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
      }
      Result<TimeSeries> out = (*codec)->Decompress(mutated);
      // A flip may survive as a (wrong) but well-formed payload; crashes and
      // unbounded allocations are the failures this test exists to catch.
      (void)out;
    }
  }
  SUCCEED();
}

TEST(ByteReaderTest, SkipPastEndIsCorruptionNotUnderflow) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4};
  ByteReader reader(bytes);
  EXPECT_TRUE(reader.Skip(2).ok());
  EXPECT_EQ(reader.remaining(), 2u);
  // Regression: Skip used to advance unchecked, so a corrupted length field
  // pushed pos_ past size_ and remaining() underflowed to a huge value.
  EXPECT_EQ(reader.Skip(3).code(), StatusCode::kCorruption);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.GetU8().ok());
  // Skip(0) at the end is still fine.
  EXPECT_TRUE(reader.Skip(0).ok());
}

TEST(RobustnessTest, CorruptedSzLengthFieldsAlwaysError) {
  // Regression for the payload_size path in sz.cc: stamp 0xFFFFFFFF over
  // every 4-byte window of a valid SZ blob (one of them is the Huffman
  // payload size), and 0xFF over every byte. Decoding must fail cleanly or
  // succeed — never crash, hang or read out of bounds.
  TimeSeries ts = SampleSeries(600);
  SzCompressor codec;
  Result<std::vector<uint8_t>> blob = codec.Compress(ts, 0.1);
  ASSERT_TRUE(blob.ok());
  const uint32_t huge = 0xFFFFFFFFu;
  for (size_t pos = 1; pos + 4 <= blob->size(); ++pos) {
    std::vector<uint8_t> mutated = *blob;
    std::memcpy(mutated.data() + pos, &huge, sizeof(huge));
    Result<TimeSeries> out = codec.Decompress(mutated);
    if (out.ok()) {
      EXPECT_EQ(out->size(), ts.size()) << "pos=" << pos;
    }
  }
  for (size_t pos = 1; pos < blob->size(); ++pos) {
    std::vector<uint8_t> mutated = *blob;
    mutated[pos] = 0xFF;
    (void)codec.Decompress(mutated);
  }
  SUCCEED();
}

TEST(RobustnessTest, TruncatedBlobsAlwaysError) {
  TimeSeries ts = SampleSeries(400);
  for (const std::string& name : AllCodecs()) {
    Result<std::unique_ptr<Compressor>> codec = MakeCompressor(name);
    ASSERT_TRUE(codec.ok());
    Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.1);
    ASSERT_TRUE(blob.ok());
    for (size_t keep : {size_t{0}, size_t{5}, blob->size() / 2,
                        blob->size() - 1}) {
      std::vector<uint8_t> truncated(blob->begin(), blob->begin() + keep);
      EXPECT_FALSE((*codec)->Decompress(truncated).ok())
          << name << " keep=" << keep;
      // A view with the rest of the blob still behind it, as a chunk sits
      // inside a store image, decodes exactly as the owning copy: a decoder
      // stops at the end of its view.
      EXPECT_EQ(DecodeOutcome(**codec, std::span(*blob).first(keep)),
                DecodeOutcome(**codec, truncated))
          << name << " keep=" << keep;
    }
  }
}

}  // namespace
}  // namespace lossyts::compress

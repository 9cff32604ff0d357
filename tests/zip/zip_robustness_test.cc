// Corruption robustness for the lossless layer, mirroring
// tests/compress/robustness_test.cc: truncated and bit-flipped gzip and raw
// DEFLATE streams must come back as a clean error Status (or, for flips the
// format cannot detect, a successful decode) — never a crash, hang or
// out-of-bounds read.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "zip/deflate.h"
#include "zip/gzip.h"

namespace lossyts::zip {
namespace {

// Mixed text/binary sample with enough structure to exercise dynamic
// Huffman blocks and LZ77 matches.
std::vector<uint8_t> SampleData(size_t n) {
  Rng rng(11);
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 < 4) {
      data[i] = static_cast<uint8_t>('a' + (i % 13));
    } else {
      data[i] = static_cast<uint8_t>(rng.UniformInt(256));
    }
  }
  return data;
}

TEST(ZipRobustnessTest, TruncatedGzipAlwaysErrors) {
  const std::vector<uint8_t> gz = GzipCompress(SampleData(2000));
  for (size_t keep = 0; keep < gz.size(); ++keep) {
    std::vector<uint8_t> truncated(gz.begin(), gz.begin() + keep);
    Result<std::vector<uint8_t>> out = GzipDecompress(truncated);
    EXPECT_FALSE(out.ok()) << "keep=" << keep;
    // A view with the rest of the member behind it fails alike: the inflater
    // and the trailer check stop at the end of the view.
    Result<std::vector<uint8_t>> view =
        GzipDecompress(std::span(gz).first(keep));
    ASSERT_FALSE(view.ok()) << "keep=" << keep;
    EXPECT_EQ(view.status().code(), out.status().code()) << "keep=" << keep;
  }
}

TEST(ZipRobustnessTest, TruncatedDeflateAlwaysErrors) {
  const std::vector<uint8_t> deflated = DeflateCompress(SampleData(2000));
  for (size_t keep = 0; keep < deflated.size(); ++keep) {
    std::vector<uint8_t> truncated(deflated.begin(), deflated.begin() + keep);
    Result<std::vector<uint8_t>> out = DeflateDecompress(truncated);
    EXPECT_FALSE(out.ok()) << "keep=" << keep;
  }
}

TEST(ZipRobustnessTest, BitFlippedGzipNeverCrashes) {
  const std::vector<uint8_t> data = SampleData(3000);
  const std::vector<uint8_t> gz = GzipCompress(data);
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = gz;
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
    }
    // Flips in ignored header fields (e.g. MTIME) may legitimately decode;
    // a flip that changes the payload must be caught by the CRC trailer.
    Result<std::vector<uint8_t>> out = GzipDecompress(mutated);
    if (out.ok()) {
      EXPECT_EQ(*out, data);
    }
  }
  SUCCEED();
}

TEST(ZipRobustnessTest, BitFlippedDeflateNeverCrashes) {
  const std::vector<uint8_t> deflated = DeflateCompress(SampleData(3000));
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = deflated;
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
    }
    // Raw DEFLATE has no checksum, so a flip may decode to wrong bytes; the
    // invariant under test is bounded, crash-free decoding.
    Result<std::vector<uint8_t>> out = DeflateDecompress(mutated);
    (void)out;
  }
  SUCCEED();
}

TEST(ZipRobustnessTest, RandomGarbageNeverCrashes) {
  Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(600));
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.UniformInt(256));
    (void)GzipDecompress(garbage);
    (void)DeflateDecompress(garbage);
  }
  SUCCEED();
}

TEST(ZipRobustnessTest, EveryByteZeroedGzipIsHandled) {
  const std::vector<uint8_t> data = SampleData(600);
  const std::vector<uint8_t> gz = GzipCompress(data);
  for (size_t pos = 0; pos < gz.size(); ++pos) {
    std::vector<uint8_t> mutated = gz;
    mutated[pos] = 0;
    Result<std::vector<uint8_t>> out = GzipDecompress(mutated);
    if (out.ok()) {
      EXPECT_EQ(*out, data) << "pos=" << pos;
    }
  }
}

}  // namespace
}  // namespace lossyts::zip

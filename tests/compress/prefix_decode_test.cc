// Early-stop prefix decoding for the XOR codecs: DecompressPrefix(blob, n)
// must return exactly the first n points of the full decode, bit for bit —
// the contract the store's point reads rely on (src/compress/gorilla.cc,
// src/compress/chimp.cc).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "compress/chimp.h"
#include "compress/gorilla.h"
#include "damaged_blob.h"
#include "core/rng.h"

namespace lossyts::compress {
namespace {

TimeSeries MakeSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 1000.0;
  for (auto& val : v) {
    x += rng.Normal();
    val = x;
  }
  return TimeSeries(500, 30, std::move(v));
}

template <typename Codec>
void CheckPrefixEquivalence(const TimeSeries& series) {
  Codec codec;
  Result<std::vector<uint8_t>> blob = codec.Compress(series, 0.0);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<TimeSeries> full = codec.Decompress(*blob);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), series.size());
  for (size_t n : {size_t{1}, size_t{2}, series.size() / 2,
                   series.size() - 1, series.size()}) {
    if (n == 0 || n > series.size()) continue;
    Result<TimeSeries> prefix = codec.DecompressPrefix(*blob, n);
    ASSERT_TRUE(prefix.ok()) << "n=" << n;
    ASSERT_EQ(prefix->size(), n);
    EXPECT_EQ(prefix->start_timestamp(), full->start_timestamp());
    EXPECT_EQ(prefix->interval_seconds(), full->interval_seconds());
    for (size_t i = 0; i < n; ++i) {
      // Bit-identical, NaN included.
      const double a = full->values()[i];
      const double b = prefix->values()[i];
      EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double))) << "n=" << n
                                                        << " i=" << i;
    }
  }
  // Asking past the end clamps to the full decode.
  Result<TimeSeries> over =
      codec.DecompressPrefix(*blob, series.size() + 100);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->size(), series.size());
  // Zero points is an argument error, not an empty series.
  EXPECT_EQ(codec.DecompressPrefix(*blob, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrefixDecodeTest, GorillaPrefixMatchesFullDecode) {
  CheckPrefixEquivalence<GorillaCompressor>(MakeSeries(1000, 1));
}

TEST(PrefixDecodeTest, ChimpPrefixMatchesFullDecode) {
  CheckPrefixEquivalence<ChimpCompressor>(MakeSeries(1000, 2));
}

TEST(PrefixDecodeTest, PrefixHandlesSpecialValues) {
  std::vector<double> v = {0.0, -0.0, 1.0, 1.0, 1.0,
                           std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -1e308};
  const TimeSeries series(0, 60, std::move(v));
  CheckPrefixEquivalence<GorillaCompressor>(series);
  CheckPrefixEquivalence<ChimpCompressor>(series);
}

TEST(PrefixDecodeTest, SinglePointSeries) {
  const TimeSeries series(0, 60, {3.25});
  CheckPrefixEquivalence<GorillaCompressor>(series);
  CheckPrefixEquivalence<ChimpCompressor>(series);
}

TEST(PrefixDecodeTest, PrefixRejectsCorruptBlobs) {
  GorillaCompressor codec;
  Result<std::vector<uint8_t>> blob =
      codec.Compress(MakeSeries(100, 3), 0.0);
  ASSERT_TRUE(blob.ok());
  std::vector<uint8_t> truncated(blob->begin(), blob->begin() + 5);
  EXPECT_FALSE(codec.DecompressPrefix(truncated, 10).ok());
  // Every cut decodes alike as an owning copy and as a view with the rest of
  // the blob behind it: the prefix walk stops at the end of its view.
  for (size_t keep = 0; keep < blob->size(); ++keep) {
    const std::vector<uint8_t> copy(blob->begin(), blob->begin() + keep);
    EXPECT_EQ(Outcome(codec.DecompressPrefix(std::span(*blob).first(keep), 10)),
              Outcome(codec.DecompressPrefix(copy, 10)))
        << "keep=" << keep;
  }
}

}  // namespace
}  // namespace lossyts::compress

// Checks on the fixed 2^17-point seed-42 random walk (oracles::RandomWalk)
// that no other case makes: the GORILLA and CHIMP payloads against the
// bit-at-a-time reference coders, and the LFZIP and CAMEO pointwise bound and
// size floors on an easy, strongly autocorrelated series.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "compress/cameo.h"
#include "compress/chimp.h"
#include "compress/compressor.h"
#include "compress/gorilla.h"
#include "compress/lfzip.h"
#include "oracles/gorilla_chimp.h"
#include "oracles/walk.h"

namespace lossyts::compress {
namespace {

constexpr size_t kWalkPoints = size_t{1} << 17;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitIdentical(const std::vector<double>& got, const TimeSeries& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " at index " << i;
  }
}

// The production blob is header + u32 payload size + payload, and the
// payload must be exactly the reference encoder's bytes; both decoders must
// give back the input bit for bit (the formats are lossless).
template <typename RefEncode, typename RefDecode>
void ExpectMatchesReference(const Compressor& codec, const TimeSeries& walk,
                            RefEncode ref_encode, RefDecode ref_decode) {
  Result<std::vector<uint8_t>> blob = codec.Compress(walk, 0.05);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<TimeSeries> decoded = codec.Decompress(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(decoded->values(), walk, "production decode");

  const std::vector<uint8_t> payload = ref_encode(walk);
  ExpectBitIdentical(ref_decode(payload, walk.size()), walk,
                     "reference decode");
  ASSERT_GE(blob->size(), payload.size());
  EXPECT_EQ(std::memcmp(blob->data() + blob->size() - payload.size(),
                        payload.data(), payload.size()),
            0)
      << codec.name() << " payload differs from the reference encoder's";
}

TEST(RandomWalkTest, GorillaAndChimpPayloadsEqualTheReferenceCoders) {
  const TimeSeries walk = oracles::RandomWalk(kWalkPoints);
  ExpectMatchesReference(GorillaCompressor(), walk,
                         oracles::ReferenceGorillaEncode,
                         oracles::ReferenceGorillaDecode);
  ExpectMatchesReference(ChimpCompressor(), walk,
                         oracles::ReferenceChimpEncode,
                         oracles::ReferenceChimpDecode);
}

// Every decoded point lies inside its closed relative allowance, and the
// blob is at least `size_floor` times smaller than the raw 8-byte values:
// the codec must compress this series, not just round-trip it. The floors
// are about half the factors the codecs reach here (6.9x and 2127x).
void ExpectBoundAndSizeFloor(const Compressor& codec, const TimeSeries& walk,
                             double size_floor) {
  constexpr double kEb = 0.05;
  Result<std::vector<uint8_t>> blob = codec.Compress(walk, kEb);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<TimeSeries> decoded = codec.Decompress(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), walk.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    const Allowance a = RelativeAllowance(walk[i], kEb);
    const double rec = (*decoded)[i];
    ASSERT_TRUE(rec >= a.lo && rec <= a.hi)
        << codec.name() << " breaks the pointwise bound at index " << i
        << ": " << rec << " not in [" << a.lo << ", " << a.hi << "]";
  }
  const double factor = static_cast<double>(walk.size()) * 8.0 /
                        static_cast<double>(blob->size());
  EXPECT_GE(factor, size_floor) << codec.name() << " vs raw 8-byte values";
}

TEST(RandomWalkTest, LfzipAndCameoHoldTheBoundAndTheirSizeFloors) {
  const TimeSeries walk = oracles::RandomWalk(kWalkPoints);
  ExpectBoundAndSizeFloor(LfzipCompressor(), walk, 3.5);
  ExpectBoundAndSizeFloor(CameoCompressor(), walk, 1000.0);
}

}  // namespace
}  // namespace lossyts::compress

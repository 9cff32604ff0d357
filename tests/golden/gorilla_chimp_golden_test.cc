// Golden byte pin for the GORILLA and CHIMP wire formats. Every row was
// printed by gorilla_chimp_golden_gen; a change to either codec must leave
// every blob byte and every decoded value bit unchanged.

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "conform/corpus.h"
#include "golden/gorilla_chimp_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* family;
  const char* codec;
  uint64_t blob_bytes;
  uint64_t blob_fnv;
  uint64_t decoded_fnv;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"constant", "GORILLA", 522, 0x751410C84132154CULL, 0x07489702ACF08725ULL},
    {"constant", "CHIMP", 906, 0x80639D365A1515C2ULL, 0x07489702ACF08725ULL},
    {"zero-blocks", "GORILLA", 13778, 0x10278C556753EED6ULL, 0xA4AD80D9F99651E9ULL},
    {"zero-blocks", "CHIMP", 12869, 0x8F98683CA4153E59ULL, 0xA4AD80D9F99651E9ULL},
    {"tiny", "GORILLA", 25459, 0x49DAE3C059BA2C47ULL, 0xCD0BF4250BCD8AC0ULL},
    {"tiny", "CHIMP", 25444, 0xF16373EDF361B9BBULL, 0xCD0BF4250BCD8AC0ULL},
    {"sign-flips", "GORILLA", 24382, 0x0DFAEE2E0F6F5C31ULL, 0xCC8AF5413FA8F9C5ULL},
    {"sign-flips", "CHIMP", 24439, 0x035C43D41CBE081EULL, 0xCC8AF5413FA8F9C5ULL},
    {"wide-range", "GORILLA", 25452, 0x46BB31AEC0ACD5B4ULL, 0x65ED075E8E99E2FBULL},
    {"wide-range", "CHIMP", 25349, 0xF9384A15F058BE90ULL, 0x65ED075E8E99E2FBULL},
    {"steep", "GORILLA", 25448, 0x8BF87A23A11645EAULL, 0xFC46D45E578434ECULL},
    {"steep", "CHIMP", 25450, 0xFD8A533FA068610FULL, 0xFC46D45E578434ECULL},
    {"lengths", "GORILLA", 1502147, 0x980A5DDAE86FCD85ULL, 0xE8418752566B7DE7ULL},
    {"lengths", "CHIMP", 1296448, 0x01706DDB6E83D749ULL, 0xE8418752566B7DE7ULL},
    {"random-walk", "GORILLA", 24945, 0xEBF851BC32B96FDDULL, 0xF5ACCD98A2069407ULL},
    {"random-walk", "CHIMP", 21557, 0xB889C28866A5AABAULL, 0xF5ACCD98A2069407ULL},
    {"subnormal", "GORILLA", 24869, 0x986158C0890E9BBCULL, 0x422AA22C2E821066ULL},
    {"subnormal", "CHIMP", 22803, 0x66628532FCE5E43CULL, 0x422AA22C2E821066ULL},
    {"ftz-edge", "GORILLA", 21588, 0x1170EE8461D5127EULL, 0xA7F6F9BD8B1E9743ULL},
    {"ftz-edge", "CHIMP", 21237, 0x9CA030F84DED76BAULL, 0xA7F6F9BD8B1E9743ULL},
};

// The six datasets, each once, one row per codec.
constexpr GoldenRow kDatasetGolden[] = {
    {"datasets", "GORILLA", 375019, 0x2686FE3E6420EF18ULL, 0xCB53F25186C8512EULL},
    {"datasets", "CHIMP", 327921, 0x43C8C5C572C310C0ULL, 0xCB53F25186C8512EULL},
};
// clang-format on

void ExpectRow(const GoldenRow& row, const Result<CodecDigest>& d) {
  ASSERT_TRUE(d.ok()) << d.status().message();
  EXPECT_EQ(d->blob_bytes, row.blob_bytes);
  EXPECT_EQ(d->blob_fnv, row.blob_fnv);
  EXPECT_EQ(d->decoded_fnv, row.decoded_fnv);
}

TEST(GorillaChimpGoldenTest, EveryRowMatches) {
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(row.family) + " " + row.codec);
    ExpectRow(row, ComputeGorillaChimpDigest(row.family, row.codec));
  }
}

TEST(GorillaChimpGoldenTest, DatasetRowsMatch) {
  ASSERT_EQ(std::size(kDatasetGolden), GorillaChimpCodecs().size());
  for (size_t i = 0; i < GorillaChimpCodecs().size(); ++i) {
    const GoldenRow& row = kDatasetGolden[i];
    SCOPED_TRACE(row.codec);
    ASSERT_EQ(row.codec, GorillaChimpCodecs()[i]);
    ExpectRow(row, ComputeGorillaChimpDatasetDigest(row.codec));
  }
}

// The table covers every family x codec exactly once, so trimming the
// corpus cannot shrink the pin silently.
TEST(GorillaChimpGoldenTest, TableCoversTheCorpus) {
  std::set<std::pair<std::string, std::string>> rows;
  for (const GoldenRow& row : kGolden) {
    EXPECT_TRUE(rows.emplace(row.family, row.codec).second)
        << "duplicate row " << row.family << " " << row.codec;
  }
  for (const std::string& family : conform::CorpusFamilies()) {
    for (const std::string& codec : GorillaChimpCodecs()) {
      EXPECT_EQ(rows.count({family, codec}), 1u)
          << "missing row " << family << " " << codec;
    }
  }
  EXPECT_EQ(rows.size(),
            conform::CorpusFamilies().size() * GorillaChimpCodecs().size());
}

}  // namespace
}  // namespace lossyts::golden

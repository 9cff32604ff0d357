// Golden pin of gradient-boosted-tree fits. Every row was printed by
// gbm_golden_gen; a change to how trees are fitted must leave every node,
// every threshold and every prediction bit unchanged.

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "golden/gbm_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* name;
  uint64_t digest;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"untied/s1.0/shallow", 0xC0C118A45CC0A0DAULL},
    {"untied/s1.0/deep", 0x79C4A9E2EA74967CULL},
    {"untied/s0.8/shallow", 0xD5F9D9AEC65762D9ULL},
    {"untied/s0.8/deep", 0xE9603F9646CC5100ULL},
    {"tied/s1.0/shallow", 0xE4410A837433D7CBULL},
    {"tied/s1.0/deep", 0xAFA2D348114C62EEULL},
    {"tied/s0.8/shallow", 0x62D25CB9606E8852ULL},
    {"tied/s0.8/deep", 0x53D7E3FC7BB7199DULL},
    {"forecaster/ETTm1/PMC@0.4", 0x0643B39715C54227ULL},
};
// clang-format on

TEST(GbmGoldenTest, EveryRowMatches) {
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(row.name);
    Result<uint64_t> digest = ComputeGbmDigest(row.name);
    ASSERT_TRUE(digest.ok()) << digest.status().message();
    EXPECT_EQ(*digest, row.digest);
  }
}

// The table covers every case exactly once, so dropping a case cannot
// shrink the pin silently.
TEST(GbmGoldenTest, TableCoversEveryCase) {
  std::set<std::string> rows;
  for (const GoldenRow& row : kGolden) {
    EXPECT_TRUE(rows.insert(row.name).second) << "duplicate row " << row.name;
  }
  const std::vector<std::string> names = GbmCaseNames();
  EXPECT_EQ(rows, std::set<std::string>(names.begin(), names.end()));
}

}  // namespace
}  // namespace lossyts::golden

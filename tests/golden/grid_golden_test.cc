// Golden pin of evaluation-grid output. Every row was printed by
// grid_golden_gen; a change to how the grid schedules or shares its stages
// must leave every record byte, and the order of the records, unchanged at
// every --jobs value and under injected fit failures.

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "golden/grid_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* name;
  uint64_t digest;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"jobs1/ETTm1/GBoost", 0xC4D0417EFE3E00B6ULL},
    {"jobs1/ETTm1/DLinear", 0xB54958B2C54CBD21ULL},
    {"jobs1/Solar/GBoost", 0x015098AEB39A1396ULL},
    {"jobs1/Solar/DLinear", 0xC34F8DF9893A524BULL},
    {"jobs1/all", 0x120E53257F9D7A19ULL},
    {"jobs4/ETTm1/GBoost", 0xC4D0417EFE3E00B6ULL},
    {"jobs4/ETTm1/DLinear", 0xB54958B2C54CBD21ULL},
    {"jobs4/Solar/GBoost", 0x015098AEB39A1396ULL},
    {"jobs4/Solar/DLinear", 0xC34F8DF9893A524BULL},
    {"jobs4/all", 0x120E53257F9D7A19ULL},
    {"jobs1/train_step/ETTm1/GBoost", 0xC4D0417EFE3E00B6ULL},
    {"jobs1/train_step/ETTm1/DLinear", 0x04BD37E4BB2AEE50ULL},
    {"jobs1/train_step/Solar/GBoost", 0x015098AEB39A1396ULL},
    {"jobs1/train_step/Solar/DLinear", 0xCB7A394C85BC9864ULL},
    {"jobs1/train_step/all", 0x8C8F5FC372366E69ULL},
};
// clang-format on

TEST(GridGoldenTest, EveryRowMatches) {
  std::set<std::string> seen;
  for (const GridVariant& variant : GridVariants()) {
    SCOPED_TRACE(variant.name);
    Result<std::vector<GridDigestRow>> rows = ComputeGridDigests(variant);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    for (const GridDigestRow& row : *rows) {
      seen.insert(row.name);
      const GoldenRow* golden = nullptr;
      for (const GoldenRow& g : kGolden) {
        if (row.name == g.name) golden = &g;
      }
      ASSERT_NE(golden, nullptr) << "no golden row " << row.name;
      EXPECT_EQ(row.digest, golden->digest) << row.name;
    }
  }
  // The table covers every computed row exactly once, so dropping a variant
  // or a group cannot shrink the pin silently.
  std::set<std::string> table;
  for (const GoldenRow& g : kGolden) {
    EXPECT_TRUE(table.insert(g.name).second) << "duplicate row " << g.name;
  }
  EXPECT_EQ(table, seen);
}

}  // namespace
}  // namespace lossyts::golden

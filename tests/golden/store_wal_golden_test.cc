// Golden byte pin for the on-disk files: .lts stores written by StoreWriter,
// a shard session's WAL and checkpoint stores, and the daemon's shards file.
// Every row was printed by store_wal_golden_gen; a change to the store
// writer, the WAL, the checkpoint or the shard-count file must leave every
// byte of every row unchanged.

#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "golden/store_wal_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* label;
  uint64_t bytes;
  uint64_t fnv;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"store/ETTm1", 17729, 0x6038B2E375DBB79BULL},
    {"store/ETTm2", 12477, 0x982B83A92CAB6C0EULL},
    {"store/Solar", 15510, 0xC187AFA15073BFEAULL},
    {"store/Weather", 523, 0x37E3EF177CDF4E40ULL},
    {"store/ElecDem", 36619, 0x9595EDB705D8EE1EULL},
    {"store/Wind", 38440, 0xA2A5F560AA4B2195ULL},
    {"store/ETTm1/span100", 22940, 0xFA2DE668EEB9A186ULL},
    {"wal/before-flush", 861, 0xE7A423BF3E5839CBULL},
    {"wal/after-flush", 9, 0x26E6FC09866CA20AULL},
    {"checkpoint/cpu.lts", 323, 0xA55701D1DB1DE8AEULL},
    {"checkpoint/mem.lts", 150, 0x88998C86640D1A2AULL},
    {"checkpoint/disk.io.lts", 228, 0xAFA4D72C18073FDFULL},
    {"daemon/shards", 2, 0x07FF9407B4C02AB8ULL},
};
// clang-format on

TEST(StoreWalGoldenTest, EveryFileMatches) {
  const std::string scratch = ::testing::TempDir() + "store_wal_golden";
  ASSERT_TRUE(RemoveTree(scratch).ok());
  ASSERT_EQ(std::system(("mkdir -p '" + scratch + "'").c_str()), 0);
  Result<std::vector<FileDigest>> rows = ComputeStoreWalDigests(scratch);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), std::size(kGolden));
  for (size_t i = 0; i < rows->size(); ++i) {
    const GoldenRow& want = kGolden[i];
    const FileDigest& got = (*rows)[i];
    SCOPED_TRACE(want.label);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.fnv, want.fnv);
  }
  EXPECT_TRUE(RemoveTree(scratch).ok());
}

}  // namespace
}  // namespace lossyts::golden

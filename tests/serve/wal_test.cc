// WAL format and writer: record round trip, torn-tail salvage, atomic
// reset, failpoint crash semantics, and the conform mutation battery over
// the log framing (src/serve/wal.{h,cc}, src/conform/mutate.cc).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "conform/mutate.h"
#include "core/failpoint.h"
#include "serve/wal.h"

namespace lossyts::serve {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

WalRecord MakeRecord(const std::string& series, uint64_t first_index,
                     size_t n) {
  WalRecord record;
  record.series = series;
  record.first_timestamp =
      1000 + static_cast<int64_t>(first_index) * 60;
  record.interval_seconds = 60;
  record.first_index = first_index;
  for (size_t i = 0; i < n; ++i) {
    record.values.push_back(static_cast<double>(first_index + i) * 1.25 -
                            3.0);
  }
  return record;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

TEST_F(WalTest, AppendSyncReplayRoundTrip) {
  const std::string path = TempPath("wal_roundtrip.log");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, kWalHeaderSize);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  const WalRecord a = MakeRecord("cpu", 0, 5);
  const WalRecord b = MakeRecord("cpu", 5, 3);
  const WalRecord c = MakeRecord("mem-rss", 0, 1);
  ASSERT_TRUE((*writer)->Append(a).ok());
  ASSERT_TRUE((*writer)->Append(b).ok());
  ASSERT_TRUE((*writer)->Append(c).ok());
  ASSERT_TRUE((*writer)->Sync().ok());

  auto replay = ReplayWalFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->clean);
  EXPECT_EQ(replay->valid_bytes, (*writer)->bytes());
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].series, "cpu");
  EXPECT_EQ(replay->records[0].first_index, 0u);
  EXPECT_EQ(replay->records[0].values, a.values);
  EXPECT_EQ(replay->records[1].first_index, 5u);
  EXPECT_EQ(replay->records[1].values, b.values);
  EXPECT_EQ(replay->records[2].series, "mem-rss");
  EXPECT_EQ(replay->records[2].first_timestamp, c.first_timestamp);
}

TEST_F(WalTest, TornTailIsDroppedAndTruncatedOnReopen) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, kWalHeaderSize);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("a", 0, 4)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());

    // The second record tears mid-frame (the wal_write crash model) and the
    // writer is dead afterwards.
    FailPoints::Arm("wal_write", 1);
    EXPECT_EQ((*writer)->Append(MakeRecord("a", 4, 4)).code(),
              StatusCode::kInternal);
    FailPoints::DisarmAll();
    EXPECT_EQ((*writer)->Append(MakeRecord("a", 8, 1)).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ((*writer)->Sync().code(), StatusCode::kFailedPrecondition);
  }

  auto replay = ReplayWalFile(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->clean);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].values.size(), 4u);

  // Reopening truncates the torn tail; new appends continue from the valid
  // prefix and replay cleanly.
  auto reopened = WalWriter::Open(path, replay->valid_bytes);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->Append(MakeRecord("a", 4, 2)).ok());
  ASSERT_TRUE((*reopened)->Sync().ok());
  auto again = ReplayWalFile(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->clean);
  ASSERT_EQ(again->records.size(), 2u);
  EXPECT_EQ(again->records[1].first_index, 4u);
}

TEST_F(WalTest, FsyncFailpointKillsTheWriterBeforeTheSync) {
  const std::string path = TempPath("wal_fsync.log");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, kWalHeaderSize);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord("s", 0, 2)).ok());
  FailPoints::Arm("wal_fsync", 1);
  EXPECT_EQ((*writer)->Sync().code(), StatusCode::kInternal);
  FailPoints::DisarmAll();
  // Dead: nothing may be acked through this writer again.
  EXPECT_EQ((*writer)->Append(MakeRecord("s", 2, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->Sync().code(), StatusCode::kFailedPrecondition);

  // The record itself was fully written before the failed sync, so replay
  // legitimately finds it: a complete un-acked record may survive a crash
  // (record-level atomicity), it just must never be half-visible.
  auto replay = ReplayWalFile(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].values.size(), 2u);
}

TEST_F(WalTest, ResetReplacesTheLogAtomically) {
  const std::string path = TempPath("wal_reset.log");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, kWalHeaderSize);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("x", 0, 8)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  ASSERT_TRUE(ResetWalFile(path).ok());
  auto replay = ReplayWalFile(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->clean);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, kWalHeaderSize);
}

TEST_F(WalTest, EmptyOrAlienFileIsCorruptionNotACrash) {
  EXPECT_EQ(ReplayWalBytes({}).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReplayWalBytes(
                std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5})
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReplayWalFile(TempPath("nope_does_not_exist.log"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// The conform battery over the WAL framing: every structured mutation of a
// valid log must either reject cleanly or replay to exactly the longest
// valid prefix — bit-for-bit reproducible from the replayed records.
TEST_F(WalTest, MutationBatteryHoldsThePrefixContract) {
  const std::string path = TempPath("wal_mutants.log");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, kWalHeaderSize);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("srv.cpu", 0, 16)).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("srv.cpu", 16, 16)).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("srv.mem", 0, 7)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::vector<uint8_t> image = ReadFileBytes(path);
  ASSERT_GT(image.size(), kWalHeaderSize);

  // The unmutated image must pass its own oracle.
  EXPECT_FALSE(
      conform::CheckWalMutant(conform::Mutant{"identity", image}).has_value());

  const std::vector<conform::Mutant> mutants =
      conform::GenerateWalMutants(image, 91, 64);
  EXPECT_GT(mutants.size(), 100u);
  size_t failures = 0;
  for (const conform::Mutant& mutant : mutants) {
    if (auto failure = conform::CheckWalMutant(mutant)) {
      ++failures;
      ADD_FAILURE() << failure->detail;
    }
  }
  EXPECT_EQ(failures, 0u);
}

TEST_F(WalTest, MutantGenerationIsDeterministicInTheSeed) {
  const std::string path = TempPath("wal_mutants_det.log");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, kWalHeaderSize);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord("d", 0, 9)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::vector<uint8_t> image = ReadFileBytes(path);
  const auto a = conform::GenerateWalMutants(image, 7, 16);
  const auto b = conform::GenerateWalMutants(image, 7, 16);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].blob, b[i].blob);
  }
}

}  // namespace
}  // namespace lossyts::serve

// Shard semantics: group commit, per-op validation, checkpoint + idempotent
// WAL replay, crash failpoints at every stage, and snapshot-consistent
// concurrent reads (src/serve/shard.{h,cc}).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "serve/shard.h"

namespace lossyts::serve {
namespace {

class ServeShardTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  // Start from a clean slate: stale files from a previous run would change
  // recovery behaviour.
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

ShardOptions LosslessOptions() {
  ShardOptions options;
  options.codecs = {"GORILLA"};  // Bit-exact recovery assertions.
  options.sync = false;          // No checkpoint fsyncs; WAL fsyncs stay.
  return options;
}

AppendOp MakeOp(const std::string& series, int64_t first_timestamp,
                std::vector<double> values) {
  AppendOp op;
  op.series = series;
  op.first_timestamp = first_timestamp;
  op.interval_seconds = 60;
  op.values = std::move(values);
  return op;
}

TEST_F(ServeShardTest, GroupCommitAppliesTheWholeBatch) {
  const std::string dir = TempDir("shard_batch");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  const std::vector<Status> statuses = (*shard)->AppendBatch({
      MakeOp("cpu", 0, {1.0, 2.0}),
      MakeOp("mem", 500, {-3.5}),
      MakeOp("cpu", 120, {3.0, 4.0}),  // Chains onto the first op's grid.
  });
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();

  auto cpu = (*shard)->ReadRange("cpu", 0, 10000);
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu->values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  auto mem = (*shard)->ReadRange("mem", 0, 10000);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->start_timestamp(), 500);
  EXPECT_EQ((*shard)->ListSeries(),
            (std::vector<std::string>{"cpu", "mem"}));
}

TEST_F(ServeShardTest, InvalidOpsFailTheirSlotWithoutPoisoningTheBatch) {
  const std::string dir = TempDir("shard_slot");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok());

  const std::vector<Status> statuses = (*shard)->AppendBatch({
      MakeOp("ok", 0, {1.0}),
      MakeOp("bad name!", 0, {1.0}),   // Invalid id.
      MakeOp("ok", 999, {2.0}),        // Breaks the grid (expected 60).
      MakeOp("ok", 60, {2.0}),         // Valid continuation.
      MakeOp("empty", 0, {}),          // No points.
  });
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(statuses[2].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(statuses[3].ok()) << statuses[3].ToString();
  EXPECT_EQ(statuses[4].code(), StatusCode::kInvalidArgument);

  auto ok = (*shard)->ReadRange("ok", 0, 10000);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->values(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ((*shard)->ReadRange("empty", 0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServeShardTest, CheckpointThenReopenIsBitExactWithLosslessCodecs) {
  const std::string dir = TempDir("shard_ckpt");
  std::vector<double> values;
  for (int i = 0; i < 700; ++i) values.push_back(i * 0.017 - 3.0);
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    for (size_t at = 0; at < values.size(); at += 100) {
      std::vector<double> slice(values.begin() + static_cast<long>(at),
                                values.begin() + static_cast<long>(at + 100));
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp("walk", static_cast<int64_t>(at) * 60, std::move(slice))});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    }
    ASSERT_TRUE((*shard)->Flush().ok());
    const ShardStats stats = (*shard)->Stats();
    EXPECT_GE(stats.flushes, 1u);
    EXPECT_EQ(stats.points, 700u);
  }
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const ShardStats stats = (*reopened)->Stats();
  EXPECT_EQ(stats.points, 700u);
  EXPECT_EQ(stats.replayed_records, 0u);  // The WAL was reset by Flush.
  EXPECT_TRUE(stats.wal_clean);
  auto all = (*reopened)->ReadRange("walk", 0, 700 * 60);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->values().size(), values.size());
  EXPECT_EQ(0, std::memcmp(all->values().data(), values.data(),
                           values.size() * sizeof(double)));
}

TEST_F(ServeShardTest, CrashBetweenCheckpointAndWalResetReplaysIdempotently) {
  const std::string dir = TempDir("shard_midflush");
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(
        (*shard)->AppendBatch({MakeOp("s", 0, {1.0, 2.0, 3.0})})[0].ok());
    // Hit 1 is before the store rewrite, hit 2 before the WAL reset: the
    // checkpoint store lands on disk but the old WAL survives — the
    // double-apply hazard first_index exists to kill.
    FailPoints::Arm("shard_flush", 2);
    EXPECT_EQ((*shard)->Flush().code(), StatusCode::kInternal);
    FailPoints::DisarmAll();
    EXPECT_EQ((*shard)->Stats().flush_failures, 1u);
    // The shard is still alive: a flush failure is not fatal.
    EXPECT_TRUE((*shard)->AppendBatch({MakeOp("s", 180, {4.0})})[0].ok());
  }
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto all = (*reopened)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(all.ok());
  // Exactly once: the store covers {1,2,3}, the replayed WAL record for it
  // is skipped, and the post-crash append {4} applies as a suffix.
  EXPECT_EQ(all->values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST_F(ServeShardTest, WalWriteCrashMakesNothingVisibleAndKillsTheShard) {
  const std::string dir = TempDir("shard_walcrash");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE((*shard)->AppendBatch({MakeOp("s", 0, {1.0})})[0].ok());

  FailPoints::Arm("wal_write", 1);
  const auto statuses =
      (*shard)->AppendBatch({MakeOp("s", 60, {2.0}), MakeOp("t", 0, {9.0})});
  FailPoints::DisarmAll();
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);

  // Nothing of the failed batch is visible; the shard writer is dead.
  auto s = (*shard)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values(), (std::vector<double>{1.0}));
  EXPECT_EQ((*shard)->ReadRange("t", 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*shard)->Stats().failed);
  EXPECT_EQ((*shard)->AppendBatch({MakeOp("u", 0, {1.0})})[0].code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*shard)->Flush().code(), StatusCode::kFailedPrecondition);

  // Recovery drops the torn frame: only the acked point survives.
  shard->reset();
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->Stats().wal_clean);
  auto recovered = (*reopened)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->values(), (std::vector<double>{1.0}));
}

TEST_F(ServeShardTest, FsyncCrashNeverLeavesHalfAnOpVisible) {
  const std::string dir = TempDir("shard_fsynccrash");
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    FailPoints::Arm("wal_fsync", 1);
    const auto statuses = (*shard)->AppendBatch(
        {MakeOp("s", 0, {1.0, 2.0}), MakeOp("s", 120, {3.0})});
    FailPoints::DisarmAll();
    EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
    EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);
    // Un-synced means un-acked means invisible, even though the records hit
    // the file.
    EXPECT_EQ((*shard)->ReadRange("s", 0, 1).status().code(),
              StatusCode::kNotFound);
  }
  // After the "crash", fully-written un-acked records may legitimately be
  // recovered — but only at op granularity, never split.
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok());
  auto recovered = (*reopened)->ReadRange("s", 0, 10000);
  if (recovered.ok()) {
    EXPECT_TRUE(recovered->values() == (std::vector<double>{1.0, 2.0}) ||
                recovered->values() ==
                    (std::vector<double>{1.0, 2.0, 3.0}))
        << "recovered " << recovered->values().size() << " points";
  } else {
    EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  }
}

TEST_F(ServeShardTest, ValidSeriesNames) {
  EXPECT_TRUE(Shard::ValidSeriesName("cpu.load-1_a"));
  EXPECT_TRUE(Shard::ValidSeriesName("A"));
  EXPECT_FALSE(Shard::ValidSeriesName(""));
  EXPECT_FALSE(Shard::ValidSeriesName(".hidden"));
  EXPECT_FALSE(Shard::ValidSeriesName("has space"));
  EXPECT_FALSE(Shard::ValidSeriesName("slash/ok"));
  EXPECT_FALSE(Shard::ValidSeriesName(std::string(129, 'a')));
}

// Snapshot-consistent reads while a writer ingests: every read must observe
// a clean prefix of the deterministic sequence, never a half-applied batch.
// Named *ConcurrencyTest so the TSan CI leg picks it up.
TEST(ServeConcurrencyTest, ReadersSeeOnlyCleanPrefixesDuringIngest) {
  const std::string dir = TempDir("shard_concurrent");
  ShardOptions options;
  options.codecs = {"GORILLA"};
  options.sync = false;
  options.flush_wal_bytes = 1 << 14;  // Force checkpoints mid-run.
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok());

  constexpr int kBatches = 60;
  constexpr int kPerBatch = 5;  // Every batch is one op of 5 points.
  auto expected_value = [](size_t i) {
    return static_cast<double>(i) * 1.0625 - 7.0;
  };

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<double> values;
      for (int i = 0; i < kPerBatch; ++i) {
        values.push_back(expected_value(b * kPerBatch + i));
      }
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp("hot", static_cast<int64_t>(b) * kPerBatch * 60,
                  std::move(values))});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last_seen = 0;
      while (!done.load()) {
        auto read = (*shard)->ReadRange("hot", 0, 1LL << 40);
        if (!read.ok()) {
          ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
          continue;
        }
        const std::vector<double>& got = read->values();
        // Prefix consistency: op-granular length, exact values.
        ASSERT_EQ(got.size() % kPerBatch, 0u);
        ASSERT_GE(got.size(), last_seen);  // Monotone visibility.
        last_seen = got.size();
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected_value(i));
        }
        (*shard)->Stats();  // Exercise the stats path under contention.
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  auto final_read = (*shard)->ReadRange("hot", 0, 1LL << 40);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read->values().size(),
            static_cast<size_t>(kBatches * kPerBatch));
}

}  // namespace
}  // namespace lossyts::serve

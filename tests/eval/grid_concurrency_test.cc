// Determinism contract of the parallel grid: RunGrid must produce
// byte-identical record streams at every --jobs value — including failed
// cells under armed failpoints — each transform must be computed exactly
// once per (dataset, compressor, bound), and checkpoint kill-and-resume must
// keep working when the sweep runs on a thread pool.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "eval/artifact_store.h"
#include "eval/checkpoint.h"
#include "eval/grid.h"

namespace lossyts::eval {
namespace {

// Same tiny grid as grid_test.cc: one dataset, two models (GBoost without
// and DLinear with the NN training loop), one compressor, two bounds.
GridOptions TinyGrid(int jobs) {
  GridOptions options;
  options.datasets = {"ETTm1"};
  options.models = {"GBoost", "DLinear"};
  options.compressors = {"PMC"};
  options.error_bounds = {0.05, 0.4};
  options.data.length_fraction = 0.02;
  options.forecast.input_length = 48;
  options.forecast.horizon = 12;
  options.forecast.max_epochs = 3;
  options.forecast.max_train_windows = 48;
  options.scenario.max_eval_windows = 16;
  options.jobs = jobs;
  return options;
}

// The byte-level view the determinism contract is stated in: the exact CSV
// rows a checkpoint or cache would contain, in return order.
std::vector<std::string> Rows(const std::vector<GridRecord>& records) {
  std::vector<std::string> rows;
  rows.reserve(records.size());
  for (const GridRecord& r : records) rows.push_back(FormatGridRow(r));
  return rows;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

class GridConcurrencyTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

TEST_F(GridConcurrencyTest, ParallelRunIsByteIdenticalToSequential) {
  Result<std::vector<GridRecord>> sequential = RunGrid(TinyGrid(1));
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  Result<std::vector<GridRecord>> parallel = RunGrid(TinyGrid(8));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(Rows(*sequential), Rows(*parallel));
}

TEST_F(GridConcurrencyTest, FailedCellsAreByteIdenticalAcrossJobs) {
  // An all-hits window fires on every train_step regardless of scheduling,
  // so DLinear's three cells fail identically at any parallelism — message,
  // error code and attempt count included.
  FailPoints::Arm("train_step", 1, 1000000);
  Result<std::vector<GridRecord>> sequential = RunGrid(TinyGrid(1));
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  FailPoints::Arm("train_step", 1, 1000000);  // Re-arm: resets the counter.
  Result<std::vector<GridRecord>> parallel = RunGrid(TinyGrid(8));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  FailPoints::DisarmAll();

  EXPECT_EQ(Rows(*sequential), Rows(*parallel));
  EXPECT_EQ(FailedRecords(*sequential).size(), 3u);  // DLinear x 3 cells.
}

TEST_F(GridConcurrencyTest, TransformComputedOncePerTriple) {
  // Arm the compress site far beyond any plausible hit count: nothing fires,
  // but the armed counter tallies every RunPipeline call. With the artifact
  // store each (dataset, compressor, bound) transform runs exactly once, not
  // once per model that consumes it.
  FailPoints::Arm("compress", 1000000000, 1);
  Result<std::vector<GridRecord>> records = RunGrid(TinyGrid(4));
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(FailPoints::HitCount("compress"), 2u);  // PMC x {0.05, 0.4}.
  FailPoints::DisarmAll();
}

TEST_F(GridConcurrencyTest, KillAndResumeWorksUnderParallelism) {
  const GridOptions options = TinyGrid(4);
  const std::string path = TempPath("ckpt_parallel_resume.csv");
  std::remove(path.c_str());

  Result<std::vector<GridRecord>> uninterrupted = RunGrid(TinyGrid(1));
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->size(), 6u);

  Result<std::vector<GridRecord>> first = LoadOrRunGrid(options, path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(Rows(*first), Rows(*uninterrupted));

  // Tear the checkpoint as if the parallel sweep was killed mid-write: drop
  // the footer and the tail of the last row. Rows land in completion order
  // under jobs > 1; resume keys by CellKey, so any surviving subset is fine.
  std::string contents = ReadFileOrDie(path);
  const size_t footer = contents.find("#complete");
  ASSERT_NE(footer, std::string::npos);
  ASSERT_GT(footer, 12u);
  WriteFileOrDie(path, contents.substr(0, footer - 12));

  Result<GridCheckpoint> torn =
      LoadGridCheckpoint(path, GridOptionsHash(options));
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_FALSE(torn->complete);
  ASSERT_LT(torn->records.size(), 6u);

  // Resume on the pool: salvaged cells splice back into canonical order and
  // the result matches the never-interrupted sequential sweep byte for byte.
  Result<std::vector<GridRecord>> resumed = LoadOrRunGrid(options, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(Rows(*resumed), Rows(*uninterrupted));
  std::remove(path.c_str());
}

TEST_F(GridConcurrencyTest, CompleteCacheLoadsInCanonicalOrder) {
  const GridOptions options = TinyGrid(4);
  const std::string path = TempPath("ckpt_shuffled_complete.csv");
  std::remove(path.c_str());
  Result<std::vector<GridRecord>> fresh = RunGrid(TinyGrid(1));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(fresh->size(), 6u);

  // A complete cache whose rows landed in another order, as a jobs > 1
  // run writes them in completion order.
  std::vector<GridRecord> shuffled = *fresh;
  std::reverse(shuffled.begin(), shuffled.end());
  std::swap(shuffled[1], shuffled[4]);
  {
    GridCheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, GridOptionsHash(options), {}).ok());
    for (const GridRecord& r : shuffled) ASSERT_TRUE(writer.Append(r).ok());
    ASSERT_TRUE(writer.MarkComplete().ok());
  }
  Result<GridCheckpoint> cached =
      LoadGridCheckpoint(path, GridOptionsHash(options));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_TRUE(cached->complete);
  ASSERT_NE(Rows(cached->records), Rows(*fresh));

  Result<std::vector<GridRecord>> loaded = LoadOrRunGrid(options, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Rows(*loaded), Rows(*fresh));
  std::remove(path.c_str());
}

TEST_F(GridConcurrencyTest, ConfigErrorAbortsIdenticallyAcrossJobs) {
  GridOptions bad1 = TinyGrid(1);
  bad1.models = {"GBoost", "NoSuchModel"};
  Result<std::vector<GridRecord>> sequential = RunGrid(bad1);
  ASSERT_FALSE(sequential.ok());

  GridOptions bad8 = TinyGrid(8);
  bad8.models = {"GBoost", "NoSuchModel"};
  Result<std::vector<GridRecord>> parallel = RunGrid(bad8);
  ASSERT_FALSE(parallel.ok());

  EXPECT_EQ(sequential.status().code(), parallel.status().code());
  EXPECT_EQ(sequential.status().ToString(), parallel.status().ToString());
}

TEST_F(GridConcurrencyTest, GridOptionsHashIgnoresJobs) {
  // Checkpoints written at any parallelism must resume at any other.
  EXPECT_EQ(GridOptionsHash(TinyGrid(1)), GridOptionsHash(TinyGrid(8)));
}

TEST(ArtifactStoreTest, ComputesOncePerKeyAndLooksUp) {
  ArtifactStore<int> store;
  int calls = 0;
  std::shared_ptr<const int> a =
      store.GetOrCompute("k", [&calls] { return ++calls; });
  std::shared_ptr<const int> b =
      store.GetOrCompute("k", [&calls] { return ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(*a, 1);
  ASSERT_NE(store.Lookup("k"), nullptr);
  EXPECT_EQ(store.Lookup("missing"), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ArtifactStoreTest, ConcurrentGetOrComputeRunsMakeOnce) {
  ArtifactStore<int> store;
  std::atomic<int> calls{0};
  ThreadPool pool(8);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&store, &calls] {
      std::shared_ptr<const int> value = store.GetOrCompute("shared", [&calls] {
        // Widen the race window: every caller must still see one compute.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return calls.fetch_add(1, std::memory_order_relaxed) + 41;
      });
      EXPECT_EQ(*value, 41);
    });
  }
  pool.Wait();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace lossyts::eval

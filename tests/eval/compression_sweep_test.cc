#include "eval/compression_sweep.h"

#include <string>

#include <gtest/gtest.h>

namespace lossyts::eval {
namespace {

SweepOptions TinySweep() {
  SweepOptions options;
  options.datasets = {"ETTm1"};
  options.error_bounds = {0.05, 0.3};
  options.data.length_fraction = 0.02;
  return options;
}

TEST(SweepTest, ProducesLossyAndGorillaRows) {
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  // 3 lossy methods x 2 bounds + 1 GORILLA row.
  EXPECT_EQ(records->size(), 7u);
  size_t gorilla_rows = 0;
  for (const SweepRecord& r : *records) {
    EXPECT_GT(r.compression_ratio, 0.0);
    if (r.compressor == "GORILLA") {
      ++gorilla_rows;
      EXPECT_EQ(r.error_bound, 0.0);
      EXPECT_EQ(r.te_nrmse, 0.0);
    } else {
      EXPECT_GT(r.te_nrmse, 0.0);
    }
  }
  EXPECT_EQ(gorilla_rows, 1u);
}

TEST(SweepTest, TeAndCrGrowWithBound) {
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(records.ok());
  for (const std::string& method : {"PMC", "SWING", "SZ"}) {
    const SweepRecord* low = nullptr;
    const SweepRecord* high = nullptr;
    for (const SweepRecord& r : *records) {
      if (r.compressor != method) continue;
      if (r.error_bound == 0.05) low = &r;
      if (r.error_bound == 0.3) high = &r;
    }
    ASSERT_NE(low, nullptr);
    ASSERT_NE(high, nullptr);
    EXPECT_GT(high->te_nrmse, low->te_nrmse) << method;
    EXPECT_GT(high->compression_ratio, low->compression_ratio) << method;
  }
}

// The sweep is never cached, so the figure benches rely on two runs with
// the same options giving the same records.
TEST(SweepTest, RepeatedRunsAreIdentical) {
  Result<std::vector<SweepRecord>> first = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::vector<SweepRecord>> second = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    const SweepRecord& a = (*first)[i];
    const SweepRecord& b = (*second)[i];
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.compressor, b.compressor);
    EXPECT_EQ(a.error_bound, b.error_bound);
    EXPECT_EQ(a.te_nrmse, b.te_nrmse);
    EXPECT_EQ(a.te_rmse, b.te_rmse);
    EXPECT_EQ(a.compression_ratio, b.compression_ratio);
    EXPECT_EQ(a.segment_count, b.segment_count);
  }
}

TEST(SweepTest, UnknownDatasetFails) {
  SweepOptions options = TinySweep();
  options.datasets = {"Nope"};
  EXPECT_FALSE(RunCompressionSweep(options).ok());
}

}  // namespace
}  // namespace lossyts::eval

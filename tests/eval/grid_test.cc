#include "eval/grid.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "eval/report.h"

namespace lossyts::eval {
namespace {

// A deliberately tiny grid: one dataset, two cheap models, one compressor,
// two error bounds, so the whole sweep runs in about a second.
GridOptions TinyGrid() {
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
  return options;
}

TEST(GridTest, ProducesBaselineAndTransformedRows) {
  Result<std::vector<GridRecord>> records = RunGrid(TinyGrid());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  // Per model: 1 baseline + 2 error bounds.
  EXPECT_EQ(records->size(), 2u * 3u);
  size_t baselines = 0;
  for (const GridRecord& r : *records) {
    if (r.compressor == "NONE") {
      ++baselines;
      EXPECT_EQ(r.tfe, 0.0);
      EXPECT_EQ(r.error_bound, 0.0);
    } else {
      EXPECT_EQ(r.compressor, "PMC");
      EXPECT_GT(r.compression_ratio, 1.0);
      EXPECT_GT(r.te_nrmse, 0.0);
    }
    EXPECT_GT(r.nrmse(), 0.0);
  }
  EXPECT_EQ(baselines, 2u);
}

TEST(GridTest, TfeConsistentWithBaseline) {
  Result<std::vector<GridRecord>> records = RunGrid(TinyGrid());
  ASSERT_TRUE(records.ok());
  for (const GridRecord& r : *records) {
    if (r.compressor == "NONE") continue;
    // Find this row's baseline.
    for (const GridRecord& b : *records) {
      if (b.compressor == "NONE" && b.model == r.model &&
          b.dataset == r.dataset && b.seed == r.seed) {
        EXPECT_NEAR(r.tfe, (r.nrmse() - b.nrmse()) / b.nrmse(), 1e-9);
      }
    }
  }
}

TEST(GridTest, HigherErrorBoundHasHigherTe) {
  Result<std::vector<GridRecord>> records = RunGrid(TinyGrid());
  ASSERT_TRUE(records.ok());
  double te_low = -1.0;
  double te_high = -1.0;
  for (const GridRecord& r : *records) {
    if (r.model != "GBoost") continue;
    if (r.error_bound == 0.05) te_low = r.te_nrmse;
    if (r.error_bound == 0.4) te_high = r.te_nrmse;
  }
  ASSERT_GE(te_low, 0.0);
  EXPECT_GT(te_high, te_low);
}

TEST(GridTest, LoadOrRunUsesCache) {
  const std::string path = ::testing::TempDir() + "/grid_cache_test2.csv";
  std::remove(path.c_str());
  Result<std::vector<GridRecord>> first = LoadOrRunGrid(TinyGrid(), path);
  ASSERT_TRUE(first.ok());
  // Second call must hit the cache (same contents, instant).
  Result<std::vector<GridRecord>> second = LoadOrRunGrid(TinyGrid(), path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->size(), second->size());
  std::remove(path.c_str());
}

TEST(GridTest, UnknownDatasetFails) {
  GridOptions options = TinyGrid();
  options.datasets = {"NoSuchDataset"};
  EXPECT_FALSE(RunGrid(options).ok());
}

TEST(GridTest, UnknownModelIsReportedBeforeAnyDatasetLoads) {
  GridOptions options = TinyGrid();
  options.datasets = {"NoSuchDataset"};
  options.models = {"GBoost", "NoSuchModel"};
  Result<std::vector<GridRecord>> records = RunGrid(options);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kNotFound);
  EXPECT_NE(records.status().message().find("NoSuchModel"), std::string::npos)
      << records.status().ToString();
}

// A repeated entry would emit cells with one CellKey, so it is rejected
// before any work is scheduled: the armed (never firing) compress site
// counts no transform.
TEST(GridTest, RepeatedListEntryIsInvalidArgument) {
  struct Case {
    const char* list;
    void (*repeat)(GridOptions&);
    const char* value;
  };
  const Case cases[] = {
      {"datasets", [](GridOptions& o) { o.datasets = {"ETTm1", "ETTm1"}; },
       "ETTm1"},
      {"models",
       [](GridOptions& o) { o.models = {"GBoost", "DLinear", "GBoost"}; },
       "GBoost"},
      {"compressors", [](GridOptions& o) { o.compressors = {"PMC", "PMC"}; },
       "PMC"},
      {"error_bounds",
       [](GridOptions& o) { o.error_bounds = {0.05, 0.4, 0.05}; },
       "0.050000000000000003"},
      {"seeds", [](GridOptions& o) { o.seeds = {1, 1}; }, "1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.list);
    GridOptions options = TinyGrid();
    c.repeat(options);
    FailPoints::Arm("compress", 1000000000, 1);
    Result<std::vector<GridRecord>> records = RunGrid(options);
    const uint64_t transforms = FailPoints::HitCount("compress");
    FailPoints::DisarmAll();
    ASSERT_FALSE(records.ok());
    EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(records.status().message(),
              std::string("grid option '") + c.list + "' repeats " + c.value);
    EXPECT_EQ(transforms, 0u);
  }
}

TEST(ReportTest, TableAlignsColumns) {
  TableWriter table({"name", "value"});
  table.AddRow({"a", "1.0"});
  table.AddRow({"long-name", "2.25"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("long-name"), std::string::npos);
  EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(ReportTest, Statistics) {
  EXPECT_DOUBLE_EQ(MeanOf({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(MeanOf({}), 0.0);
  EXPECT_DOUBLE_EQ(CiHalfWidth95({5.0}), 0.0);
  EXPECT_GT(CiHalfWidth95({1.0, 2.0, 3.0, 4.0}), 0.0);
}

TEST(ReportTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace lossyts::eval

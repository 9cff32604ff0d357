// The grid shares one fitted model across concurrently running evaluation
// stages, so a fitted forecaster's Predict and PredictBatch must be safe to
// call from many threads at once and must return exactly what sequential
// calls return. Part of the TSan leg of tools/ci.sh.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/split.h"
#include "core/thread_pool.h"
#include "forecast/registry.h"

namespace lossyts::forecast {
namespace {

TimeSeries NoisySine(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 10.0 +
           3.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 24.0) +
           0.3 * rng.Normal();
  }
  return TimeSeries(0, 3600, std::move(v));
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  ASSERT_FALSE(a.empty()) << tag;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << tag;
}

class ForecastConcurrencyTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ForecastConcurrencyTest, SharedFittedModelMatchesSequentialCalls) {
  ForecastConfig config;
  config.input_length = 24;
  config.horizon = 6;
  config.season_length = 24;
  config.max_epochs = 2;
  config.max_train_windows = 32;
  const TimeSeries series = NoisySine(400, 21);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  Result<std::unique_ptr<Forecaster>> fitted =
      MakeForecaster(GetParam(), config);
  ASSERT_TRUE(fitted.ok());
  ASSERT_TRUE((*fitted)->Fit(split->train, split->val).ok());
  const Forecaster& model = **fitted;

  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < 16; ++i) {
    const auto begin = series.values().begin() + static_cast<long>(i * 5);
    windows.emplace_back(begin,
                         begin + static_cast<long>(config.input_length));
  }
  Result<std::vector<std::vector<double>>> expected =
      model.PredictBatch(windows);
  ASSERT_TRUE(expected.ok());
  std::vector<std::vector<double>> expected_single;
  for (const std::vector<double>& window : windows) {
    Result<std::vector<double>> row = model.Predict(window);
    ASSERT_TRUE(row.ok());
    expected_single.push_back(std::move(*row));
  }

  // Each task either forecasts the whole batch or one window, so batched and
  // single-window passes over the shared network interleave.
  constexpr size_t kTasks = 24;
  std::vector<std::vector<std::vector<double>>> got(kTasks);
  std::vector<char> ok(kTasks, 0);
  {
    ThreadPool pool(4);
    for (size_t t = 0; t < kTasks; ++t) {
      pool.Submit([&, t] {
        if (t % 2 == 0) {
          Result<std::vector<std::vector<double>>> rows =
              model.PredictBatch(windows);
          ok[t] = rows.ok();
          if (rows.ok()) got[t] = std::move(*rows);
        } else {
          Result<std::vector<double>> row =
              model.Predict(windows[t % windows.size()]);
          ok[t] = row.ok();
          if (row.ok()) got[t].push_back(std::move(*row));
        }
      });
    }
    pool.Wait();
  }

  for (size_t t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(ok[t]) << "task " << t;
    if (t % 2 == 0) {
      ASSERT_EQ(got[t].size(), windows.size());
      for (size_t i = 0; i < windows.size(); ++i) {
        ExpectBitIdentical(got[t][i], (*expected)[i],
                           "task " + std::to_string(t) + " row " +
                               std::to_string(i));
      }
    } else {
      ASSERT_EQ(got[t].size(), 1u);
      ExpectBitIdentical(got[t][0], expected_single[t % windows.size()],
                         "task " + std::to_string(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SharedModels, ForecastConcurrencyTest,
                         ::testing::Values("GRU", "NBeats"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lossyts::forecast

// PredictBatch must be a pure speed-up: every row it returns is compared
// bit for bit (memcmp) against Predict on the same window, for every
// registry model and an ensemble, at batch sizes 1, 7 and the evaluation's
// 64-window cap. Its error statuses must match Predict's as well.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/split.h"
#include "forecast/ensemble.h"
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

ForecastConfig SmallConfig() {
  ForecastConfig config;
  config.input_length = 48;
  config.horizon = 12;
  config.season_length = 24;
  config.max_epochs = 2;
  config.max_train_windows = 32;
  return config;
}

// `count` overlapping windows of `series`, one every 8 samples.
std::vector<std::vector<double>> Windows(const TimeSeries& series,
                                         size_t count, size_t length) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < count; ++i) {
    const auto begin = series.values().begin() + static_cast<long>(i * 8);
    windows.emplace_back(begin, begin + static_cast<long>(length));
  }
  return windows;
}

void ExpectRowsMatchPredict(const Forecaster& model,
                            const std::vector<std::vector<double>>& windows) {
  Result<std::vector<std::vector<double>>> batch = model.PredictBatch(windows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    Result<std::vector<double>> single = model.Predict(windows[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_EQ((*batch)[i].size(), single->size()) << "row " << i;
    EXPECT_EQ(std::memcmp((*batch)[i].data(), single->data(),
                          single->size() * sizeof(double)),
              0)
        << model.name() << ": row " << i << " of " << windows.size();
  }
}

void ExpectBatchIdentity(const Forecaster& model, const TimeSeries& series,
                         size_t input_length) {
  for (size_t count : {1u, 7u, 64u}) {
    SCOPED_TRACE("batch of " + std::to_string(count));
    ExpectRowsMatchPredict(model, Windows(series, count, input_length));
  }
}

class PredictBatchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PredictBatchTest, RowsMatchPredictBitForBit) {
  const ForecastConfig config = SmallConfig();
  const TimeSeries series = NoisySine(900, 11);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  Result<std::unique_ptr<Forecaster>> model =
      MakeForecaster(GetParam(), config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());
  ExpectBatchIdentity(**model, series, config.input_length);

  Result<std::vector<std::vector<double>>> empty = (*model)->PredictBatch({});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());

  std::vector<std::vector<double>> windows =
      Windows(series, 3, config.input_length);
  windows[1].pop_back();
  Result<std::vector<double>> single = (*model)->Predict(windows[1]);
  Result<std::vector<std::vector<double>>> batch =
      (*model)->PredictBatch(windows);
  ASSERT_FALSE(single.ok());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), single.status().code());
}

TEST_P(PredictBatchTest, BeforeFitFailsLikePredict) {
  const ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<Forecaster>> model =
      MakeForecaster(GetParam(), config);
  ASSERT_TRUE(model.ok());
  const std::vector<std::vector<double>> windows =
      Windows(NoisySine(200, 12), 2, config.input_length);
  Result<std::vector<double>> single = (*model)->Predict(windows[0]);
  Result<std::vector<std::vector<double>>> batch =
      (*model)->PredictBatch(windows);
  ASSERT_FALSE(single.ok());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), single.status().code());
}

INSTANTIATE_TEST_SUITE_P(AllModels, PredictBatchTest,
                         ::testing::ValuesIn(ModelNames()),
                         [](const auto& info) { return info.param; });

TEST(PredictBatchEnsembleTest, RowsMatchPredictBitForBit) {
  const ForecastConfig config = SmallConfig();
  const TimeSeries series = NoisySine(900, 13);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  std::vector<std::unique_ptr<Forecaster>> members;
  for (const char* name : {"Arima", "DLinear", "GRU"}) {
    members.push_back(std::move(*MakeForecaster(name, config)));
  }
  EnsembleForecaster ensemble(std::move(members), {1.0, 2.0, 3.0});

  const std::vector<std::vector<double>> windows =
      Windows(series, 2, config.input_length);
  Result<std::vector<double>> unfitted = ensemble.Predict(windows[0]);
  Result<std::vector<std::vector<double>>> unfitted_batch =
      ensemble.PredictBatch(windows);
  ASSERT_FALSE(unfitted.ok());
  ASSERT_FALSE(unfitted_batch.ok());
  EXPECT_EQ(unfitted_batch.status().code(), unfitted.status().code());

  ASSERT_TRUE(ensemble.Fit(split->train, split->val).ok());
  ExpectBatchIdentity(ensemble, series, config.input_length);
  Result<std::vector<std::vector<double>>> empty = ensemble.PredictBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace lossyts::forecast

#include "eval/scenario.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/split.h"
#include "forecast/registry.h"

namespace lossyts::eval {
namespace {

constexpr double kPi = 3.14159265358979323846;

TimeSeries SineSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 10.0 +
           3.0 * std::sin(2.0 * kPi * static_cast<double>(i) / 24.0) +
           0.2 * rng.Normal();
  }
  return TimeSeries(0, 3600, std::move(v));
}

forecast::ForecastConfig SmallConfig() {
  forecast::ForecastConfig config;
  config.input_length = 48;
  config.horizon = 12;
  config.season_length = 24;
  config.max_epochs = 4;
  config.max_train_windows = 64;
  return config;
}

TEST(TfeTest, Definition9Semantics) {
  EXPECT_NEAR(Tfe(0.11, 0.10), 0.10, 1e-9);
  EXPECT_LT(Tfe(0.09, 0.10), 0.0);  // Improvement is negative.
  EXPECT_DOUBLE_EQ(Tfe(0.10, 0.10), 0.0);
  EXPECT_DOUBLE_EQ(Tfe(0.5, 0.0), 0.0);  // Guarded division.
}

TEST(ScenarioTest, BaselineEvaluationProducesSaneMetrics) {
  TimeSeries series = SineSeries(900, 1);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  config.max_epochs = 10;
  config.max_train_windows = 128;
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("DLinear", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());

  Result<std::vector<double>> metrics = EvaluateOnTest(
      **model, split->test, nullptr, config.input_length, config.horizon);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->size(), 4u);
  EXPECT_GT((*metrics)[kMetricR], 0.5);
  EXPECT_GT((*metrics)[kMetricNrmse], 0.0);
  EXPECT_LT((*metrics)[kMetricNrmse], 1.0);
}

TEST(ScenarioTest, IdentityTransformMatchesBaseline) {
  TimeSeries series = SineSeries(600, 2);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("GBoost", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());

  Result<std::vector<double>> baseline = EvaluateOnTest(
      **model, split->test, nullptr, config.input_length, config.horizon);
  TimeSeries copy = split->test;
  Result<std::vector<double>> transformed = EvaluateOnTest(
      **model, split->test, &copy, config.input_length, config.horizon);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(transformed.ok());
  EXPECT_DOUBLE_EQ((*baseline)[kMetricNrmse], (*transformed)[kMetricNrmse]);
}

TEST(ScenarioTest, HeavyDistortionDegradesAccuracy) {
  TimeSeries series = SineSeries(600, 3);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("GBoost", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());

  Result<std::vector<double>> baseline = EvaluateOnTest(
      **model, split->test, nullptr, config.input_length, config.horizon);
  ASSERT_TRUE(baseline.ok());

  // Replace inputs with a wrecked copy (heavy quantization).
  TimeSeries wrecked = split->test;
  for (double& v : wrecked.mutable_values()) {
    v = std::round(v / 8.0) * 8.0;
  }
  Result<std::vector<double>> transformed = EvaluateOnTest(
      **model, split->test, &wrecked, config.input_length, config.horizon);
  ASSERT_TRUE(transformed.ok());
  EXPECT_GT((*transformed)[kMetricNrmse], (*baseline)[kMetricNrmse]);
  EXPECT_GT(Tfe((*transformed)[kMetricNrmse], (*baseline)[kMetricNrmse]),
            0.0);
}

TEST(ScenarioTest, MismatchedTransformedLengthFails) {
  TimeSeries series = SineSeries(600, 4);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("GBoost", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());
  Result<TimeSeries> shorter = split->test.Slice(0, split->test.size() - 5);
  ASSERT_TRUE(shorter.ok());
  EXPECT_FALSE(EvaluateOnTest(**model, split->test, &*shorter,
                              config.input_length, config.horizon)
                   .ok());
}

TEST(ScenarioTest, TooShortTestFails) {
  TimeSeries series = SineSeries(600, 5);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("GBoost", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());
  Result<TimeSeries> tiny = split->test.Slice(0, 30);
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(EvaluateOnTest(**model, *tiny, nullptr, config.input_length,
                              config.horizon)
                   .ok());
}

// Regression: a cap of one window used to divide by zero (cap - 1) when
// computing the spread-out stride. It evaluates the window at start 0.
TEST(ScenarioTest, SingleWindowCapEvaluatesFirstWindow) {
  TimeSeries series = SineSeries(600, 8);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster("GBoost", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(split->train, split->val).ok());
  const size_t span = config.input_length + config.horizon;
  // More than one window position at the default stride.
  ASSERT_GE(split->test.size(), span + ScenarioOptions().eval_stride);

  ScenarioOptions one_window;
  one_window.max_eval_windows = 1;
  Result<std::vector<double>> capped =
      EvaluateOnTest(**model, split->test, nullptr, config.input_length,
                     config.horizon, {}, one_window);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();

  Result<TimeSeries> first = split->test.Slice(0, span);
  ASSERT_TRUE(first.ok());
  Result<std::vector<double>> reference = EvaluateOnTest(
      **model, *first, nullptr, config.input_length, config.horizon);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*capped, *reference);
}

TEST(ScenarioTest, RetrainOnDecompressedRuns) {
  TimeSeries series = SineSeries(700, 6);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  forecast::ForecastConfig config = SmallConfig();
  Result<std::vector<double>> metrics = EvaluateRetrainOnDecompressed(
      "DLinear", config, split->train, split->val, split->test, "PMC", 0.1);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT((*metrics)[kMetricNrmse], 0.0);
  EXPECT_TRUE(std::isfinite((*metrics)[kMetricR]));
}

TEST(ScenarioTest, RetrainRejectsUnknownCompressor) {
  TimeSeries series = SineSeries(700, 7);
  Result<TrainValTest> split = SplitSeries(series);
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(EvaluateRetrainOnDecompressed(
                   "DLinear", SmallConfig(), split->train, split->val,
                   split->test, "ZSTD", 0.1)
                   .ok());
}

}  // namespace
}  // namespace lossyts::eval

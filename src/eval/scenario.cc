#include "eval/scenario.h"

#include <algorithm>
#include <memory>

#include "compress/pipeline.h"
#include "forecast/registry.h"

namespace lossyts::eval {

Result<std::vector<double>> EvaluateOnTest(const forecast::Forecaster& model,
                                           const TimeSeries& test,
                                           const TimeSeries* transformed_test,
                                           size_t input_length, size_t horizon,
                                           const MetricRequest& metrics,
                                           const ScenarioOptions& options) {
  if (transformed_test != nullptr &&
      transformed_test->size() != test.size()) {
    return Status::InvalidArgument(
        "transformed test split length differs from raw test split");
  }
  const size_t span = input_length + horizon;
  if (test.size() < span) {
    return Status::FailedPrecondition("test split too short for one window");
  }

  // A cap of 1 keeps the uncapped stride: the loop below stops after the
  // window at start 0.
  size_t stride = std::max<size_t>(1, options.eval_stride);
  const size_t positions = (test.size() - span) / stride + 1;
  if (options.max_eval_windows > 1 && positions > options.max_eval_windows) {
    stride = (test.size() - span) / (options.max_eval_windows - 1);
  }

  const std::vector<double>& raw = test.values();
  const std::vector<double>& inputs =
      transformed_test != nullptr ? transformed_test->values() : raw;

  // Window i starts at i * stride.
  std::vector<std::vector<double>> windows;
  for (size_t start = 0; start + span <= raw.size(); start += stride) {
    windows.emplace_back(inputs.begin() + start,
                         inputs.begin() + start + input_length);
    if (options.max_eval_windows > 0 &&
        windows.size() >= options.max_eval_windows) {
      break;
    }
  }
  Result<std::vector<std::vector<double>>> preds = model.PredictBatch(windows);
  if (!preds.ok()) return preds.status();

  std::vector<double> actual;
  std::vector<double> predicted;
  actual.reserve(windows.size() * horizon);
  predicted.reserve(windows.size() * horizon);
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t s = 0; s < horizon; ++s) {
      actual.push_back(raw[i * stride + input_length + s]);
      predicted.push_back((*preds)[i][s]);
    }
  }
  MetricContext ctx;
  ctx.actual = &actual;
  ctx.predicted = &predicted;
  ctx.insample = metrics.insample;
  ctx.season_length = metrics.season_length;
  ctx.series = metrics.series;
  return EvaluateMetrics(metrics.names, ctx);
}

Result<std::vector<double>> EvaluateRetrainOnDecompressed(
    const std::string& model_name, const forecast::ForecastConfig& config,
    const TimeSeries& train, const TimeSeries& val, const TimeSeries& test,
    const std::string& compressor_name, double error_bound,
    const MetricRequest& metrics, const ScenarioOptions& options) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(compressor_name);
  if (!compressor.ok()) return compressor.status();

  auto transform = [&](const TimeSeries& series) -> Result<TimeSeries> {
    Result<std::vector<uint8_t>> blob =
        (*compressor)->Compress(series, error_bound);
    if (!blob.ok()) return blob.status();
    return (*compressor)->Decompress(*blob);
  };

  Result<TimeSeries> train_t = transform(train);
  if (!train_t.ok()) return train_t.status();
  Result<TimeSeries> val_t = transform(val);
  if (!val_t.ok()) return val_t.status();
  Result<TimeSeries> test_t = transform(test);
  if (!test_t.ok()) return test_t.status();

  Result<std::unique_ptr<forecast::Forecaster>> model =
      forecast::MakeForecaster(model_name, config);
  if (!model.ok()) return model.status();
  if (Status s = (*model)->Fit(*train_t, *val_t); !s.ok()) return s;

  return EvaluateOnTest(**model, test, &*test_t, config.input_length,
                        config.horizon, metrics, options);
}

}  // namespace lossyts::eval

#ifndef LOSSYTS_EVAL_SCENARIO_H_
#define LOSSYTS_EVAL_SCENARIO_H_

#include <string>
#include <vector>

#include "core/metric_registry.h"
#include "core/status.h"
#include "core/time_series.h"
#include "forecast/forecaster.h"

namespace lossyts::eval {

/// Options for the evaluation scenario of §3.6 (Algorithm 1).
struct ScenarioOptions {
  /// Step between consecutive evaluation windows in the test split.
  size_t eval_stride = 24;
  /// Upper bound on evaluation windows (0 = unlimited); windows are spread
  /// uniformly over the test split when capped, and a cap of 1 evaluates the
  /// single window at start 0.
  size_t max_eval_windows = 64;
};

/// Which metrics a scenario evaluation computes, plus the extra context some
/// of them need. Defaults to the paper's pinned four (R/RSE/RMSE/NRMSE).
struct MetricRequest {
  /// Canonical registry names, evaluated in order over the pooled
  /// actual/predicted horizons.
  std::vector<std::string> names = PinnedForecastMetrics();
  /// In-sample (training) values for scaled metrics such as MASE.
  const std::vector<double>* insample = nullptr;
  int season_length = 1;
  /// Label used in metric error messages (e.g. the dataset name).
  std::string series;
};

/// Evaluates a *trained* forecaster on the test split, optionally feeding it
/// lossy-transformed inputs (Algorithm 1, line 7-9): prediction windows are
/// taken from `transformed_test` (pass nullptr for the raw baseline), while
/// the target values y are always taken from the raw `test` — the paper's
/// central measurement choice.
///
/// All windows go to the model in one PredictBatch call. Returns one value
/// per requested metric, pooled over all predicted horizons in window order,
/// positionally matching `metrics.names`.
Result<std::vector<double>> EvaluateOnTest(
    const forecast::Forecaster& model, const TimeSeries& test,
    const TimeSeries* transformed_test, size_t input_length, size_t horizon,
    const MetricRequest& metrics = {}, const ScenarioOptions& options = {});

/// The §4.4.1 retraining variant: compress-decompress *all three* splits,
/// fit a fresh model (created by name) on the decompressed train/val, and
/// evaluate with decompressed inputs against raw targets. Used by the
/// Figure 7 reproduction.
Result<std::vector<double>> EvaluateRetrainOnDecompressed(
    const std::string& model_name, const forecast::ForecastConfig& config,
    const TimeSeries& train, const TimeSeries& val, const TimeSeries& test,
    const std::string& compressor_name, double error_bound,
    const MetricRequest& metrics = {}, const ScenarioOptions& options = {});

/// Transformation forecasting error (Definition 9):
/// TFE = (D(F(X̂), y) − D(F(X), y)) / D(F(X), y). Negative values mean the
/// compression *improved* forecasting accuracy.
inline double Tfe(double transformed_error, double baseline_error) {
  if (baseline_error == 0.0) return 0.0;
  return (transformed_error - baseline_error) / baseline_error;
}

}  // namespace lossyts::eval

#endif  // LOSSYTS_EVAL_SCENARIO_H_

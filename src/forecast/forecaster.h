#ifndef LOSSYTS_FORECAST_FORECASTER_H_
#define LOSSYTS_FORECAST_FORECASTER_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"

namespace lossyts::forecast {

/// Shared configuration, following the paper's §3.4 protocol: the input
/// window is fixed to 96 past values, the horizon to 24 future values, and a
/// standard scaler (fit on the training split) is applied to model inputs.
struct ForecastConfig {
  size_t input_length = 96;
  size_t horizon = 24;
  /// Dominant seasonal period in samples; used by Arima's Fourier terms and
  /// GBoost's seasonal lags. 0 disables seasonal terms.
  size_t season_length = 0;
  /// Seed for weight initialization, dropout and shuffling. Different seeds
  /// reproduce the paper's multi-seed replication protocol (§3.6).
  uint64_t seed = 1;
  /// Budget knobs for the deep models (tiny-width reproduction scale).
  int max_epochs = 8;
  int early_stop_patience = 3;  ///< Paper: patience 3.
  size_t max_train_windows = 256;
  size_t batch_size = 32;
  double dropout = 0.05;
};

/// Common interface of the seven forecasting models (Definition 7): train
/// once on the raw training/validation split, then map any input window of
/// `input_length` values to `horizon` predictions.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  virtual std::string_view name() const = 0;

  /// Trains the model. `val` is used for early stopping / model selection
  /// and may be empty for models that do not need it.
  virtual Status Fit(const TimeSeries& train, const TimeSeries& val) = 0;

  /// Predicts the next `horizon` values from the most recent
  /// `input_length` observations. Requires a successful Fit.
  virtual Result<std::vector<double>> Predict(
      const std::vector<double>& window) const = 0;

  /// Predicts every window of a batch: row i is exactly what Predict returns
  /// for windows[i], and the first failing window's status is returned. An
  /// empty batch yields an empty result. The default loops Predict; models
  /// that can share one pass across windows override it.
  virtual Result<std::vector<std::vector<double>>> PredictBatch(
      const std::vector<std::vector<double>>& windows) const {
    std::vector<std::vector<double>> out;
    out.reserve(windows.size());
    for (const std::vector<double>& window : windows) {
      Result<std::vector<double>> pred = Predict(window);
      if (!pred.ok()) return pred.status();
      out.push_back(std::move(*pred));
    }
    return out;
  }
};

}  // namespace lossyts::forecast

#endif  // LOSSYTS_FORECAST_FORECASTER_H_

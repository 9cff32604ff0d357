#ifndef LOSSYTS_FORECAST_NN_FORECASTER_H_
#define LOSSYTS_FORECAST_NN_FORECASTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "forecast/forecaster.h"
#include "forecast/scaler.h"
#include "forecast/window.h"
#include "nn/autodiff.h"
#include "nn/optimizer.h"

namespace lossyts::forecast {

/// A neural window-to-horizon network: maps a (batch × input_length) tensor
/// of scaled values to (batch × horizon) predictions. Sequence models that
/// cannot batch across rows simply loop over rows internally.
class WindowNetwork {
 public:
  virtual ~WindowNetwork() = default;

  virtual nn::Var Forward(const nn::Var& batch, bool train, Rng& rng) = 0;
  virtual std::vector<nn::Var> Parameters() const = 0;
};

/// Shared Fit/Predict implementation for all five deep models: standard
/// scaling, window extraction, Adam with lr 1e-3 / weight decay 1e-4, and
/// patience-3 early stopping on the validation split with best-weights
/// restore (§3.4). Subclasses provide the network.
class NnForecaster : public Forecaster {
 public:
  NnForecaster(std::string name, const ForecastConfig& config)
      : name_(std::move(name)), config_(config) {}

  std::string_view name() const override { return name_; }

  Status Fit(const TimeSeries& train, const TimeSeries& val) override;
  Result<std::vector<double>> Predict(
      const std::vector<double>& window) const override;
  /// Scales and packs the windows into one (batch × input_length) tensor
  /// and runs a single tape-free Forward over it. Every op on the networks'
  /// inference path is row-independent, so each row is bit-identical to a
  /// one-window pass.
  Result<std::vector<std::vector<double>>> PredictBatch(
      const std::vector<std::vector<double>>& windows) const override;

 protected:
  /// Builds the freshly initialized network (called once per Fit).
  virtual std::unique_ptr<WindowNetwork> BuildNetwork(Rng& rng) = 0;

  const ForecastConfig& config() const { return config_; }

 private:
  double EvaluateLoss(const std::vector<WindowExample>& windows, Rng& rng);

  std::string name_;
  ForecastConfig config_;
  StandardScaler scaler_;
  std::unique_ptr<WindowNetwork> network_;
};

}  // namespace lossyts::forecast

#endif  // LOSSYTS_FORECAST_NN_FORECASTER_H_

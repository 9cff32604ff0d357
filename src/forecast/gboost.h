#ifndef LOSSYTS_FORECAST_GBOOST_H_
#define LOSSYTS_FORECAST_GBOOST_H_

#include <vector>

#include "analysis/gbm.h"
#include "forecast/forecaster.h"
#include "forecast/scaler.h"

namespace lossyts::forecast {

/// Gradient-boosting forecaster (§3.4's GBoost): gradient-boosted regression
/// trees over lag features, rolled out recursively for multi-step forecasts.
/// The basic learners are shallow decision trees, as in the paper.
class GBoostForecaster : public Forecaster {
 public:
  struct Options {
    analysis::GradientBoostedTrees::Options gbm;
    size_t max_training_samples = 3000;

    Options() {
      gbm.num_trees = 80;
      gbm.learning_rate = 0.1;
      gbm.subsample = 0.8;
      gbm.tree.max_depth = 3;
    }
  };

  explicit GBoostForecaster(const ForecastConfig& config)
      : GBoostForecaster(config, Options()) {}
  GBoostForecaster(const ForecastConfig& config, const Options& options)
      : config_(config), options_(options) {}

  std::string_view name() const override { return "GBoost"; }

  Status Fit(const TimeSeries& train, const TimeSeries& val) override;
  Result<std::vector<double>> Predict(
      const std::vector<double>& window) const override;

  /// Lags (1-based distances into the past) used as features; derived from
  /// input_length and season_length.
  const std::vector<size_t>& lags() const { return lags_; }

 private:
  /// The lag features of the point at `end`: series[end - lag] per lag.
  std::vector<double> FeaturesAt(const std::vector<double>& series,
                                 size_t end) const;

  ForecastConfig config_;
  Options options_;
  StandardScaler scaler_;
  std::vector<size_t> lags_;
  analysis::GradientBoostedTrees model_;
  bool fitted_ = false;
};

}  // namespace lossyts::forecast

#endif  // LOSSYTS_FORECAST_GBOOST_H_

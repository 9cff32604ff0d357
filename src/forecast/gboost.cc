#include "forecast/gboost.h"

#include <algorithm>

namespace lossyts::forecast {

namespace {

std::vector<size_t> BuildLags(size_t input_length, size_t season_length) {
  std::vector<size_t> lags;
  for (size_t l = 1; l <= 12; ++l) lags.push_back(l);
  for (size_t l : {16u, 20u, 24u, 32u, 48u, 64u, 96u}) {
    if (l <= input_length) lags.push_back(l);
  }
  if (season_length >= 2 && season_length <= input_length) {
    lags.push_back(season_length);
    if (season_length / 2 >= 1) lags.push_back(season_length / 2);
  }
  std::sort(lags.begin(), lags.end());
  lags.erase(std::unique(lags.begin(), lags.end()), lags.end());
  // Every lag must fit inside the prediction window.
  while (!lags.empty() && lags.back() > input_length) lags.pop_back();
  return lags;
}

}  // namespace

std::vector<double> GBoostForecaster::FeaturesAt(
    const std::vector<double>& series, size_t end) const {
  std::vector<double> features;
  features.reserve(lags_.size());
  for (size_t lag : lags_) features.push_back(series[end - lag]);
  return features;
}

Status GBoostForecaster::Fit(const TimeSeries& train,
                             const TimeSeries& /*val*/) {
  if (train.size() < config_.input_length + config_.horizon) {
    return Status::FailedPrecondition("training series too short for GBoost");
  }
  if (Status s = scaler_.Fit(train.values()); !s.ok()) return s;
  const std::vector<double> y = scaler_.Transform(train.values());
  lags_ = BuildLags(config_.input_length, config_.season_length);
  const size_t max_lag = lags_.back();

  // One-step-ahead supervised samples, uniformly subsampled to the budget.
  const size_t total = y.size() - max_lag;
  const size_t step =
      std::max<size_t>(1, total / options_.max_training_samples);
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (size_t t = max_lag; t < y.size(); t += step) {
    rows.push_back(FeaturesAt(y, t));
    targets.push_back(y[t]);
  }

  model_ = analysis::GradientBoostedTrees(options_.gbm);
  if (Status s = model_.Fit(rows, targets); !s.ok()) return s;
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> GBoostForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("Predict before Fit");
  if (window.size() != config_.input_length) {
    return Status::InvalidArgument("window length mismatch");
  }
  std::vector<double> history = scaler_.Transform(window);
  std::vector<double> out;
  out.reserve(config_.horizon);
  for (size_t s = 0; s < config_.horizon; ++s) {
    const double pred = model_.Predict(FeaturesAt(history, history.size()));
    history.push_back(pred);  // Recursive multi-step rollout.
    out.push_back(scaler_.Inverse(pred));
  }
  return out;
}

}  // namespace lossyts::forecast

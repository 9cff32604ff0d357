#include "forecast/nn_forecaster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/failpoint.h"

namespace lossyts::forecast {

namespace {

// Packs window examples [begin, end) into (batch × len) input/target tensors.
void PackBatch(const std::vector<WindowExample>& windows,
               const std::vector<size_t>& order, size_t begin, size_t end,
               nn::Tensor* inputs, nn::Tensor* targets) {
  const size_t b = end - begin;
  *inputs = nn::Tensor(b, windows[order[begin]].input.size());
  *targets = nn::Tensor(b, windows[order[begin]].target.size());
  for (size_t r = 0; r < b; ++r) {
    const WindowExample& w = windows[order[begin + r]];
    for (size_t c = 0; c < w.input.size(); ++c) (*inputs)(r, c) = w.input[c];
    for (size_t c = 0; c < w.target.size(); ++c) {
      (*targets)(r, c) = w.target[c];
    }
  }
}

}  // namespace

double NnForecaster::EvaluateLoss(const std::vector<WindowExample>& windows,
                                  Rng& rng) {
  if (windows.empty()) return 0.0;
  nn::NoGradScope no_grad;
  std::vector<size_t> order(windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double total = 0.0;
  size_t count = 0;
  for (size_t begin = 0; begin < windows.size();
       begin += config_.batch_size) {
    const size_t end =
        std::min(begin + config_.batch_size, windows.size());
    nn::Tensor inputs;
    nn::Tensor targets;
    PackBatch(windows, order, begin, end, &inputs, &targets);
    nn::Var pred =
        network_->Forward(nn::MakeVar(std::move(inputs)), false, rng);
    nn::Var loss = nn::MseLoss(pred, nn::MakeVar(std::move(targets)));
    total += loss->value(0, 0) * static_cast<double>(end - begin);
    count += end - begin;
  }
  return total / static_cast<double>(count);
}

Status NnForecaster::Fit(const TimeSeries& train, const TimeSeries& val) {
  if (Status s = scaler_.Fit(train.values()); !s.ok()) return s;

  Result<std::vector<WindowExample>> train_windows =
      MakeWindows(scaler_.Transform(train.values()), config_.input_length,
                  config_.horizon, 1, config_.max_train_windows);
  if (!train_windows.ok()) return train_windows.status();

  // Validation windows: the paper's patience-3 early stopping. Fall back to
  // a slice of training windows when the validation split is too short.
  std::vector<WindowExample> val_windows;
  Result<std::vector<WindowExample>> val_result =
      MakeWindows(scaler_.Transform(val.values()), config_.input_length,
                  config_.horizon, config_.horizon,
                  config_.max_train_windows / 4);
  if (val_result.ok()) {
    val_windows = std::move(*val_result);
  } else {
    const size_t held_out = std::max<size_t>(1, train_windows->size() / 10);
    val_windows.assign(train_windows->end() - held_out,
                       train_windows->end());
    train_windows->resize(train_windows->size() - held_out);
  }

  Rng rng(config_.seed);
  network_ = BuildNetwork(rng);
  std::vector<nn::Var> params = network_->Parameters();
  nn::Adam optimizer(params);

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<nn::Tensor> best_weights;
  int bad_epochs = 0;

  std::vector<size_t> order(train_windows->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    // Fisher-Yates shuffle with the model's own stream.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    for (size_t begin = 0; begin < order.size();
         begin += config_.batch_size) {
      const size_t end = std::min(begin + config_.batch_size, order.size());
      nn::Tensor inputs;
      nn::Tensor targets;
      PackBatch(*train_windows, order, begin, end, &inputs, &targets);
      LOSSYTS_FAILPOINT("train_step");
      nn::Var pred =
          network_->Forward(nn::MakeVar(std::move(inputs)), true, rng);
      nn::Var loss = nn::MseLoss(pred, nn::MakeVar(std::move(targets)));
      if (!std::isfinite(loss->value(0, 0))) {
        return Status::Internal("non-finite training loss in " + name_ +
                                " at epoch " + std::to_string(epoch));
      }
      nn::Backward(loss);
      if (Status s = optimizer.Step(); !s.ok()) return s;
    }

    const double val_loss = EvaluateLoss(val_windows, rng);
    if (!std::isfinite(val_loss)) {
      return Status::Internal("non-finite validation loss in " + name_ +
                              " at epoch " + std::to_string(epoch));
    }
    if (val_loss < best_val - 1e-9) {
      best_val = val_loss;
      bad_epochs = 0;
      best_weights.clear();
      for (const nn::Var& p : params) best_weights.push_back(p->value);
    } else if (++bad_epochs >= config_.early_stop_patience) {
      break;
    }
  }
  if (!best_weights.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_weights[i];
    }
  }
  return Status::OK();
}

Result<std::vector<double>> NnForecaster::Predict(
    const std::vector<double>& window) const {
  Result<std::vector<std::vector<double>>> rows = PredictBatch({window});
  if (!rows.ok()) return rows.status();
  return std::move(rows->front());
}

Result<std::vector<std::vector<double>>> NnForecaster::PredictBatch(
    const std::vector<std::vector<double>>& windows) const {
  if (windows.empty()) return std::vector<std::vector<double>>{};
  if (network_ == nullptr) {
    return Status::FailedPrecondition("Predict called before Fit");
  }
  for (const std::vector<double>& window : windows) {
    if (window.size() != config_.input_length) {
      return Status::InvalidArgument(
          "window must have input_length = " +
          std::to_string(config_.input_length) + " values, got " +
          std::to_string(window.size()));
    }
  }
  nn::Tensor input(windows.size(), config_.input_length);
  for (size_t r = 0; r < windows.size(); ++r) {
    for (size_t c = 0; c < config_.input_length; ++c) {
      input(r, c) = scaler_.Transform(windows[r][c]);
    }
  }
  nn::NoGradScope no_grad;
  Rng rng(config_.seed);  // Inference path never uses randomness.
  nn::Var pred = const_cast<NnForecaster*>(this)->network_->Forward(
      nn::MakeVar(std::move(input)), false, rng);
  std::vector<std::vector<double>> out(
      windows.size(), std::vector<double>(config_.horizon));
  for (size_t r = 0; r < windows.size(); ++r) {
    for (size_t c = 0; c < config_.horizon; ++c) {
      out[r][c] = scaler_.Inverse(pred->value(r, c));
    }
  }
  return out;
}

}  // namespace lossyts::forecast

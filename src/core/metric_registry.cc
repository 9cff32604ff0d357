#include "core/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "core/metrics.h"

namespace lossyts {

namespace {

Status CheckSameNonEmpty(const std::vector<double>& x,
                         const std::vector<double>& y) {
  if (x.empty()) return Status::InvalidArgument("metric input is empty");
  if (x.size() != y.size()) {
    return Status::InvalidArgument(
        "metric inputs have different lengths: " + std::to_string(x.size()) +
        " vs " + std::to_string(y.size()));
  }
  return Status::OK();
}

std::string SeriesLabel(const MetricContext& ctx) {
  return ctx.series.empty() ? std::string("<unnamed>") : ctx.series;
}

/// Small-denominator guard shared with MaxRelError (core/metrics.cc): a
/// reference magnitude below this clamps to it instead of dividing by ~0.
constexpr double kRelDenomFloor = 1e-12;

std::string FormatParam(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

// --- Folds ------------------------------------------------------------------
//
// Each fold adds its terms in pair order into one accumulator per sum, the
// order the whole-vector loops in tests/core/metric_fold_spec_test.cc (the
// spec) use, so splitting the pairs into runs never changes a bit.

/// sum (x - y)^2: mse, and rmse as its root.
class SquaredErrorFold : public MetricFold {
 public:
  explicit SquaredErrorFold(bool root) : root_(root) {}
  void Add(const double* x, const double* y, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const double d = x[i] - y[i];
      ss_ += d * d;
    }
  }
  Result<double> Finish(size_t count, const std::string&) const override {
    const double mse = ss_ / static_cast<double>(count);
    return root_ ? std::sqrt(mse) : mse;
  }

 private:
  bool root_;
  double ss_ = 0.0;
};

/// RMSE over the reference's range. (Which of two equal extremes is kept
/// cannot show: they differ at most in a zero's sign, and a zero range
/// fails either way.)
class NrmseFold : public MetricFold {
 public:
  void Add(const double* x, const double* y, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const double d = x[i] - y[i];
      ss_ += d * d;
      if (!seen_) {
        min_ = max_ = x[i];
        seen_ = true;
      } else if (x[i] < min_) {
        min_ = x[i];
      } else if (x[i] > max_) {
        max_ = x[i];
      }
    }
  }
  Result<double> Finish(size_t count, const std::string&) const override {
    const double rmse = std::sqrt(ss_ / static_cast<double>(count));
    const double range = max_ - min_;
    if (range <= 0.0) {
      return Status::FailedPrecondition(
          "NRMSE undefined: reference is constant");
    }
    return rmse / range;
  }

 private:
  double ss_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// The mean of one term per pair: mae, mape, smape, bias.
template <typename Term>
class MeanFold : public MetricFold {
 public:
  void Add(const double* x, const double* y, size_t n) override {
    for (size_t i = 0; i < n; ++i) sum_ += Term()(x[i], y[i]);
  }
  Result<double> Finish(size_t count, const std::string&) const override {
    return sum_ / static_cast<double>(count);
  }

 private:
  double sum_ = 0.0;
};

struct AbsError {
  double operator()(double x, double y) const { return std::abs(x - y); }
};
struct AbsPercentError {
  double operator()(double x, double y) const {
    const double denom = std::max(std::abs(x), kRelDenomFloor);
    return std::abs(x - y) / denom;
  }
};
struct SymmetricAbsPercentError {
  double operator()(double x, double y) const {
    const double denom =
        std::max((std::abs(x) + std::abs(y)) / 2.0, kRelDenomFloor);
    return std::abs(x - y) / denom;
  }
};
struct SignedError {
  double operator()(double x, double y) const { return y - x; }
};

/// One pinball-loss sum per quantile. pinball is the single sum's mean;
/// crps adds the sums in quantile order, scaled by 2 so a dense grid
/// recovers the closed form (for a point forecast it converges to MAE,
/// which numcheck's oracle pins).
class PinballFold : public MetricFold {
 public:
  PinballFold(std::vector<double> quantiles, bool crps)
      : quantiles_(std::move(quantiles)),
        sums_(quantiles_.size(), 0.0),
        crps_(crps) {}
  void Add(const double* x, const double* y, size_t n) override {
    for (size_t k = 0; k < quantiles_.size(); ++k) {
      const double q = quantiles_[k];
      double sum = sums_[k];
      for (size_t i = 0; i < n; ++i) {
        const double d = x[i] - y[i];
        sum += d >= 0.0 ? q * d : (q - 1.0) * d;
      }
      sums_[k] = sum;
    }
  }
  Result<double> Finish(size_t count, const std::string&) const override {
    if (!crps_) return sums_[0] / static_cast<double>(count);
    double sum = 0.0;
    for (const double s : sums_) sum += s;
    return 2.0 * sum /
           (static_cast<double>(quantiles_.size()) *
            static_cast<double>(count));
  }

 private:
  std::vector<double> quantiles_;
  std::vector<double> sums_;
  bool crps_;
};

/// MAE over the in-sample seasonal-naive MAE at lag `season_length`. The
/// in-sample values stream through a ring of the last `lag` of them.
class MaseFold : public MetricFold {
 public:
  explicit MaseFold(int season_length)
      : lag_(static_cast<size_t>(std::max(1, season_length))) {}
  void Add(const double* x, const double* y, size_t n) override {
    for (size_t i = 0; i < n; ++i) abs_sum_ += std::abs(x[i] - y[i]);
  }
  void AddInsample(const double* values, size_t n) override {
    for (size_t i = 0; i < n; ++i, ++seen_) {
      if (seen_ < lag_) {
        ring_.push_back(values[i]);
        continue;
      }
      double& lagged = ring_[seen_ % lag_];
      scale_sum_ += std::abs(values[i] - lagged);
      lagged = values[i];
    }
  }
  Result<double> Finish(size_t count,
                        const std::string& label) const override {
    if (seen_ <= lag_) {
      return Status::InvalidArgument(
          "MASE undefined: in-sample series '" + label + "' has " +
          std::to_string(seen_) + " points, need more than " +
          std::to_string(lag_));
    }
    const double scale = scale_sum_ / static_cast<double>(seen_ - lag_);
    if (!(scale > 0.0)) {
      return Status::InvalidArgument(
          "MASE undefined: constant in-sample series '" + label + "'");
    }
    return abs_sum_ / static_cast<double>(count) / scale;
  }

 private:
  size_t lag_;
  std::vector<double> ring_;
  size_t seen_ = 0;
  double scale_sum_ = 0.0;
  double abs_sum_ = 0.0;
};

template <typename Fold>
MetricKernel SimpleFoldKernel() {
  MetricKernel kernel;
  kernel.fold = [](const std::vector<double>&, int) {
    return std::make_unique<Fold>();
  };
  return kernel;
}

/// A fold kernel over one whole (actual, predicted) run, with the context's
/// in-sample series folded first.
Result<double> FoldOneRun(const MetricKernel& kernel, const MetricContext& ctx,
                          const std::vector<double>& params) {
  const std::vector<double>& x = *ctx.actual;
  const std::vector<double>& y = *ctx.predicted;
  if (Status s = CheckSameNonEmpty(x, y); !s.ok()) return s;
  std::unique_ptr<MetricFold> fold = kernel.fold(params, ctx.season_length);
  if (ctx.insample != nullptr) {
    fold->AddInsample(ctx.insample->data(), ctx.insample->size());
  }
  fold->Add(x.data(), y.data(), x.size());
  return fold->Finish(x.size(), SeriesLabel(ctx));
}

Result<double> CoverageKernel(const MetricContext& ctx,
                              const std::vector<double>&) {
  const std::vector<double>& x = *ctx.actual;
  const std::vector<double>& lo = *ctx.lower;
  const std::vector<double>& hi = *ctx.upper;
  if (x.empty()) return Status::InvalidArgument("metric input is empty");
  if (lo.size() != x.size() || hi.size() != x.size()) {
    return Status::InvalidArgument(
        "coverage interval lengths (" + std::to_string(lo.size()) + ", " +
        std::to_string(hi.size()) + ") do not match actual length " +
        std::to_string(x.size()));
  }
  size_t inside = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (lo[i] <= x[i] && x[i] <= hi[i]) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(x.size());
}

/// Wraps a `Result<double>(x, y)` free function from core/metrics.h.
MetricKernel PairKernel(Result<double> (*fn)(const std::vector<double>&,
                                             const std::vector<double>&)) {
  MetricKernel kernel;
  kernel.fn = [fn](const MetricContext& ctx, const std::vector<double>&) {
    return fn(*ctx.actual, *ctx.predicted);
  };
  return kernel;
}

Result<double> ParseQuantile(const std::string& token,
                             const std::string& name) {
  if (token.empty()) {
    return Status::InvalidArgument("metric '" + name +
                                   "' has an empty parameter");
  }
  char* end = nullptr;
  const double q = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(q) || q <= 0.0 ||
      q >= 1.0) {
    return Status::InvalidArgument("metric parameter '" + token + "' in '" +
                                   name + "' is not a quantile in (0, 1)");
  }
  return q;
}

Status NonFinite(size_t index, const char* label, const MetricContext& ctx) {
  std::string message = "non-finite value at index " + std::to_string(index) +
                        " in " + label + " input";
  if (!ctx.series.empty()) message += " for series '" + ctx.series + "'";
  return Status::InvalidArgument(message);
}

Status CheckFinite(const std::vector<double>& values, const char* label,
                   const MetricContext& ctx) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) return NonFinite(i, label, ctx);
  }
  return Status::OK();
}

}  // namespace

MetricRegistry::MetricRegistry() {
  kernels_["r"] = PairKernel(&PearsonR);
  kernels_["rse"] = PairKernel(&Rse);
  kernels_["mse"].fold = [](const std::vector<double>&, int) {
    return std::make_unique<SquaredErrorFold>(false);
  };
  kernels_["rmse"].fold = [](const std::vector<double>&, int) {
    return std::make_unique<SquaredErrorFold>(true);
  };
  kernels_["nrmse"] = SimpleFoldKernel<NrmseFold>();
  kernels_["mae"] = SimpleFoldKernel<MeanFold<AbsError>>();
  kernels_["mape"] = SimpleFoldKernel<MeanFold<AbsPercentError>>();
  kernels_["smape"] = SimpleFoldKernel<MeanFold<SymmetricAbsPercentError>>();
  kernels_["bias"] = SimpleFoldKernel<MeanFold<SignedError>>();

  MetricKernel mase;
  mase.fold = [](const std::vector<double>&, int season_length) {
    return std::make_unique<MaseFold>(season_length);
  };
  mase.needs_insample = true;
  kernels_["mase"] = std::move(mase);

  MetricKernel pinball;
  pinball.fold = [](const std::vector<double>& params, int) {
    return std::make_unique<PinballFold>(params, false);
  };
  pinball.min_params = 1;
  pinball.max_params = 1;
  pinball.default_params = {0.5};
  kernels_["pinball"] = std::move(pinball);

  MetricKernel crps;
  crps.fold = [](const std::vector<double>& params, int) {
    return std::make_unique<PinballFold>(params, true);
  };
  crps.min_params = 1;
  crps.max_params = 64;
  // Dense default grid 0.05, 0.10, ..., 0.95.
  for (int k = 1; k <= 19; ++k) {
    crps.default_params.push_back(static_cast<double>(k) / 20.0);
  }
  kernels_["crps"] = std::move(crps);

  MetricKernel coverage;
  coverage.fn = &CoverageKernel;
  coverage.needs_interval = true;
  kernels_["coverage"] = std::move(coverage);
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Status MetricRegistry::Register(const std::string& base, MetricKernel kernel) {
  if (base.empty() || base.find('@') != std::string::npos) {
    return Status::InvalidArgument("invalid metric base name '" + base + "'");
  }
  if (!kernel.fn && !kernel.fold) {
    return Status::InvalidArgument("metric '" + base + "' has no kernel");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (kernels_.count(base) != 0) {
    return Status::FailedPrecondition("metric '" + base +
                                      "' is already registered");
  }
  kernels_[base] = std::move(kernel);
  return Status::OK();
}

Result<MetricSpec> MetricRegistry::Parse(const std::string& name) const {
  if (name.empty()) return Status::InvalidArgument("empty metric name");
  const size_t at = name.find('@');
  MetricSpec spec;
  spec.base = name.substr(0, at);
  Result<MetricKernel> kernel = Find(spec.base);
  if (!kernel.ok()) return kernel.status();
  spec.needs_insample = kernel->needs_insample;
  spec.needs_interval = kernel->needs_interval;
  if (at == std::string::npos) {
    spec.name = spec.base;
    spec.params = kernel->default_params;
    return spec;
  }
  if (kernel->max_params == 0) {
    return Status::InvalidArgument("metric '" + spec.base +
                                   "' takes no parameters");
  }
  std::string rest = name.substr(at + 1);
  size_t pos = 0;
  while (true) {
    const size_t plus = rest.find('+', pos);
    const std::string token =
        rest.substr(pos, plus == std::string::npos ? plus : plus - pos);
    Result<double> q = ParseQuantile(token, name);
    if (!q.ok()) return q.status();
    spec.params.push_back(*q);
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  if (spec.params.size() < kernel->min_params ||
      spec.params.size() > kernel->max_params) {
    return Status::InvalidArgument(
        "metric '" + spec.base + "' takes between " +
        std::to_string(kernel->min_params) + " and " +
        std::to_string(kernel->max_params) + " parameters, got " +
        std::to_string(spec.params.size()));
  }
  spec.name = spec.base + "@";
  for (size_t i = 0; i < spec.params.size(); ++i) {
    if (i > 0) spec.name += '+';
    spec.name += FormatParam(spec.params[i]);
  }
  return spec;
}

Result<MetricKernel> MetricRegistry::Find(const std::string& base) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kernels_.find(base);
  if (it == kernels_.end()) {
    return Status::NotFound("unknown metric '" + base + "'");
  }
  return it->second;
}

std::vector<std::string> MetricRegistry::BaseNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, kernel] : kernels_) names.push_back(name);
  return names;
}

const std::vector<std::string>& PinnedForecastMetrics() {
  static const std::vector<std::string>* pinned =
      new std::vector<std::string>{"r", "rse", "rmse", "nrmse"};
  return *pinned;
}

Result<std::vector<std::string>> CanonicalMetricNames(
    const std::vector<std::string>& names) {
  if (names.empty()) return Status::InvalidArgument("metric list is empty");
  std::vector<std::string> canonical;
  std::set<std::string> seen;
  for (const std::string& name : names) {
    Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
    if (!spec.ok()) return spec.status();
    if (seen.insert(spec->name).second) canonical.push_back(spec->name);
  }
  return canonical;
}

Result<std::vector<std::string>> ResolveMetricNames(
    const std::vector<std::string>& extra) {
  std::vector<std::string> resolved = PinnedForecastMetrics();
  std::set<std::string> seen(resolved.begin(), resolved.end());
  for (const std::string& name : extra) {
    Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
    if (!spec.ok()) return spec.status();
    if (seen.insert(spec->name).second) resolved.push_back(spec->name);
  }
  return resolved;
}

Result<std::vector<double>> EvaluateMetrics(
    const std::vector<std::string>& names, const MetricContext& ctx) {
  if (names.empty()) return Status::InvalidArgument("no metrics requested");
  if (ctx.actual == nullptr || ctx.predicted == nullptr) {
    return Status::InvalidArgument(
        "metric context is missing actual/predicted input");
  }
  std::vector<MetricSpec> specs;
  specs.reserve(names.size());
  bool needs_insample = false;
  bool needs_interval = false;
  for (const std::string& name : names) {
    Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
    if (!spec.ok()) return spec.status();
    needs_insample = needs_insample || spec->needs_insample;
    needs_interval = needs_interval || spec->needs_interval;
    specs.push_back(std::move(*spec));
  }
  // Non-finite inputs are rejected once up front (not per kernel), so every
  // metric sees the same contract regardless of evaluation order.
  if (Status s = CheckFinite(*ctx.actual, "actual", ctx); !s.ok()) return s;
  if (Status s = CheckFinite(*ctx.predicted, "predicted", ctx); !s.ok()) {
    return s;
  }
  if (needs_insample) {
    if (ctx.insample == nullptr || ctx.insample->empty()) {
      return Status::InvalidArgument(
          "metric requires an in-sample series, none provided for series '" +
          SeriesLabel(ctx) + "'");
    }
    if (Status s = CheckFinite(*ctx.insample, "in-sample", ctx); !s.ok()) {
      return s;
    }
  }
  if (needs_interval) {
    if (ctx.lower == nullptr || ctx.upper == nullptr) {
      return Status::InvalidArgument(
          "metric requires prediction-interval bounds, none provided for "
          "series '" +
          SeriesLabel(ctx) + "'");
    }
    if (Status s = CheckFinite(*ctx.lower, "lower-bound", ctx); !s.ok()) {
      return s;
    }
    if (Status s = CheckFinite(*ctx.upper, "upper-bound", ctx); !s.ok()) {
      return s;
    }
  }
  std::vector<double> values;
  values.reserve(specs.size());
  for (const MetricSpec& spec : specs) {
    Result<MetricKernel> kernel = MetricRegistry::Global().Find(spec.base);
    if (!kernel.ok()) return kernel.status();
    Result<double> value = kernel->fold ? FoldOneRun(*kernel, ctx, spec.params)
                                        : kernel->fn(ctx, spec.params);
    if (!value.ok()) return value.status();
    values.push_back(*value);
  }
  return values;
}

Result<double> EvaluateFold(const std::string& base,
                            const std::vector<double>& x,
                            const std::vector<double>& y) {
  Result<MetricKernel> kernel = MetricRegistry::Global().Find(base);
  if (!kernel.ok()) return kernel.status();
  if (!kernel->fold) {
    return Status::InvalidArgument("metric '" + base + "' does not fold");
  }
  MetricContext ctx;
  ctx.actual = &x;
  ctx.predicted = &y;
  return FoldOneRun(*kernel, ctx, kernel->default_params);
}

Result<PooledMetrics> PooledMetrics::Create(
    const std::vector<std::string>& names, int season_length) {
  PooledMetrics pooled;
  pooled.season_length_ = std::max(1, season_length);
  for (const std::string& name : names) {
    Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
    if (!spec.ok()) return spec.status();
    if (spec->needs_interval) {
      return Status::InvalidArgument("metric '" + name +
                                     "' needs prediction intervals");
    }
    Result<MetricKernel> kernel = MetricRegistry::Global().Find(spec->base);
    if (!kernel.ok()) return kernel.status();
    pooled.needs_insample_ = pooled.needs_insample_ || spec->needs_insample;
    Entry entry{std::move(*spec), std::move(*kernel), nullptr};
    if (entry.kernel.fold) {
      entry.fold = entry.kernel.fold(entry.spec.params, pooled.season_length_);
    } else {
      pooled.buffer_ = true;
    }
    pooled.entries_.push_back(std::move(entry));
  }
  return pooled;
}

void PooledMetrics::Add(const double* actual, const double* predicted,
                        size_t count) {
  for (auto [values, bad] : {std::pair{actual, &bad_actual_},
                             std::pair{predicted, &bad_predicted_}}) {
    if (*bad != kNone) continue;
    for (size_t i = 0; i < count; ++i) {
      if (!std::isfinite(values[i])) {
        *bad = count_ + i;
        break;
      }
    }
  }
  for (Entry& entry : entries_) {
    if (entry.fold == nullptr) continue;
    if (entry.spec.needs_insample) entry.fold->AddInsample(actual, count);
    entry.fold->Add(actual, predicted, count);
  }
  if (buffer_) {
    actual_.insert(actual_.end(), actual, actual + count);
    predicted_.insert(predicted_.end(), predicted, predicted + count);
  }
  count_ += count;
}

Result<std::vector<double>> PooledMetrics::Finish(
    const std::string& label) const {
  MetricContext ctx;
  ctx.actual = &actual_;
  ctx.predicted = &predicted_;
  if (needs_insample_) ctx.insample = &actual_;
  ctx.season_length = season_length_;
  ctx.series = label;
  if (bad_actual_ != kNone) return NonFinite(bad_actual_, "actual", ctx);
  if (bad_predicted_ != kNone) {
    return NonFinite(bad_predicted_, "predicted", ctx);
  }
  std::vector<double> values;
  values.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    Result<double> value =
        entry.fold != nullptr ? entry.fold->Finish(count_, SeriesLabel(ctx))
                              : entry.kernel.fn(ctx, entry.spec.params);
    if (!value.ok()) return value.status();
    values.push_back(*value);
  }
  return values;
}

}  // namespace lossyts

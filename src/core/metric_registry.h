#ifndef LOSSYTS_CORE_METRIC_REGISTRY_H_
#define LOSSYTS_CORE_METRIC_REGISTRY_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace lossyts {

/// Inputs a metric kernel may consume. `actual` and `predicted` are always
/// required; the optional vectors exist for metrics that need more than the
/// point forecast (MASE needs the training in-sample series, coverage needs
/// a prediction interval). `series` labels error messages only.
struct MetricContext {
  const std::vector<double>* actual = nullptr;
  const std::vector<double>* predicted = nullptr;
  /// In-sample (training) values for scaled metrics such as MASE.
  const std::vector<double>* insample = nullptr;
  /// Seasonal naive lag used by MASE's in-sample scale (clamped to >= 1).
  int season_length = 1;
  /// Prediction-interval bounds for coverage, aligned with `actual`.
  const std::vector<double>* lower = nullptr;
  const std::vector<double>* upper = nullptr;
  std::string series;
};

/// The one-pass form of a metric: (actual, predicted) runs fold in, in
/// order, and Finish turns the accumulators into the metric over every pair
/// folded. Each accumulator adds its terms in pair order, so the value does
/// not depend on where the runs were cut.
class MetricFold {
 public:
  MetricFold() = default;
  MetricFold(const MetricFold&) = delete;
  MetricFold& operator=(const MetricFold&) = delete;
  virtual ~MetricFold() = default;
  /// Folds the next `count` pairs.
  virtual void Add(const double* actual, const double* predicted,
                   size_t count) = 0;
  /// Folds the next `count` in-sample values (MASE's scale; the other
  /// metrics ignore them).
  virtual void AddInsample(const double* /*values*/, size_t /*count*/) {}
  /// The metric over the `count` pairs folded so far (count > 0); `label`
  /// names the series in error messages.
  virtual Result<double> Finish(size_t count,
                                const std::string& label) const = 0;
};

/// One registered metric family: a fold (every built-in one-pass metric:
/// mse, rmse, nrmse, mae, mape, smape, bias, mase, pinball, crps) or a
/// whole-series kernel (r, rse, coverage, and metrics registered at
/// runtime). Both receive the parsed `@`-parameters (quantiles); parameter
/// arity is validated at parse time against [min_params, max_params], so
/// kernels may assume it.
struct MetricKernel {
  std::function<Result<double>(const MetricContext&,
                               const std::vector<double>&)>
      fn;
  /// A fresh fold for the parameters and the season length.
  std::function<std::unique_ptr<MetricFold>(const std::vector<double>& params,
                                            int season_length)>
      fold;
  bool needs_insample = false;
  bool needs_interval = false;
  size_t min_params = 0;
  size_t max_params = 0;
  /// Parameters used when the metric is named bare (e.g. `pinball` means
  /// `pinball@0.5`, bare `crps` means a dense 0.05..0.95 quantile grid).
  std::vector<double> default_params;
};

/// A parsed metric name: `base[@p1+p2+...]`. Parameters are quantiles in
/// (0, 1), '+'-separated because metric lists themselves are ','-separated
/// on the CLI. `name` is the canonical spelling (parameters reformatted), so
/// equal specs always compare equal as strings.
struct MetricSpec {
  std::string name;
  std::string base;
  std::vector<double> params;
  bool needs_insample = false;
  bool needs_interval = false;
};

/// Name -> kernel table. Process-global via Global(); tests and downstream
/// code may Register() additional metrics, which then work everywhere a
/// metric name is accepted (grid --metrics, lossyts query, serve).
class MetricRegistry {
 public:
  /// The global registry, with all built-in metrics pre-registered:
  /// r, rse, rmse, nrmse, mae, mse, mape, smape, bias, mase,
  /// pinball[@q], crps[@q1+q2+...], coverage.
  static MetricRegistry& Global();

  /// Registers a metric family under `base` (no '@' allowed); the kernel
  /// needs `fn` or `fold`. FailedPrecondition if the name is taken.
  Status Register(const std::string& base, MetricKernel kernel);

  /// Parses `name` into a canonical spec, validating that the base exists,
  /// the parameter arity is in range and every parameter is a quantile in
  /// (0, 1).
  Result<MetricSpec> Parse(const std::string& name) const;

  /// Looks up the kernel for a base name (no parameters).
  Result<MetricKernel> Find(const std::string& base) const;

  /// Registered base names, sorted.
  std::vector<std::string> BaseNames() const;

 private:
  MetricRegistry();

  mutable std::mutex mu_;
  std::map<std::string, MetricKernel> kernels_;
};

/// Indices of the pinned paper metrics inside every resolved metric vector.
inline constexpr size_t kMetricR = 0;
inline constexpr size_t kMetricRse = 1;
inline constexpr size_t kMetricRmse = 2;
inline constexpr size_t kMetricNrmse = 3;

/// The four paper §3.5 metrics every grid record always carries, in order.
const std::vector<std::string>& PinnedForecastMetrics();

/// Resolves a metric-name list for the grid: the pinned four first, then
/// every canonicalized extra (unknown names and bad parameters are errors;
/// duplicates, including of the pinned four, are dropped).
Result<std::vector<std::string>> ResolveMetricNames(
    const std::vector<std::string>& extra);

/// Parses + canonicalizes a free-standing metric list (no pinned prefix),
/// deduplicating while preserving order. Empty input is an error.
Result<std::vector<std::string>> CanonicalMetricNames(
    const std::vector<std::string>& names);

/// Evaluates every named metric against the context, in order. All inputs
/// are validated up front: non-finite values are rejected with an
/// InvalidArgument naming the first offending index (the StandardScaler::Fit
/// convention), and a metric whose required context vector is missing fails
/// rather than silently degrading.
Result<std::vector<double>> EvaluateMetrics(
    const std::vector<std::string>& names, const MetricContext& ctx);

/// Runs built-in metric `base`'s fold, at its default parameters, over one
/// (x, y) run: the whole-vector form core/metrics.h's Rmse, Mae and Nrmse
/// take. Checks lengths, not finiteness.
Result<double> EvaluateFold(const std::string& base,
                            const std::vector<double>& x,
                            const std::vector<double>& y);

/// One group's metrics over (actual, predicted) pairs that arrive in runs,
/// in order, with the pooled actual values doubling as the in-sample series
/// when a metric needs one (the query layer's pooled-group semantics).
/// Finish equals EvaluateMetrics over the concatenated runs, bit for bit
/// and error for error: folds see their terms in pair order, and the first
/// non-finite value is reported by its pooled index, actual side first.
/// Whole-series kernels get the runs buffered once, and only when one is
/// requested.
class PooledMetrics {
 public:
  /// Parses `names`; interval metrics (coverage) are refused.
  static Result<PooledMetrics> Create(const std::vector<std::string>& names,
                                      int season_length);

  void Add(const double* actual, const double* predicted, size_t count);
  /// Pairs added so far.
  size_t count() const { return count_; }
  /// The metrics in `names` order over every pair added (count() > 0).
  /// `label` names the group in error messages.
  Result<std::vector<double>> Finish(const std::string& label) const;

 private:
  struct Entry {
    MetricSpec spec;
    MetricKernel kernel;
    std::unique_ptr<MetricFold> fold;  ///< Null for whole-series kernels.
  };

  PooledMetrics() = default;

  std::vector<Entry> entries_;
  int season_length_ = 1;
  bool needs_insample_ = false;
  bool buffer_ = false;  ///< A whole-series kernel needs the pairs.
  std::vector<double> actual_;
  std::vector<double> predicted_;
  size_t count_ = 0;
  /// Pooled index of the first non-finite value per side, if any.
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t bad_actual_ = kNone;
  size_t bad_predicted_ = kNone;
};

}  // namespace lossyts

#endif  // LOSSYTS_CORE_METRIC_REGISTRY_H_

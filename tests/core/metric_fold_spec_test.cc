// The executable spec of every fold-backed metric: the whole-vector loops
// the registry's folds (core/metric_registry.cc) must match bit for bit,
// through EvaluateMetrics, through core/metrics.h, and through
// PooledMetrics however the pairs are cut into runs. Each fold may split
// its input but must add the same terms in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metric_registry.h"
#include "core/metrics.h"
#include "core/rng.h"

namespace lossyts {
namespace {

constexpr double kFloor = 1e-12;

double PinballSum(const std::vector<double>& x, const std::vector<double>& y,
                  double q) {
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    sum += d >= 0.0 ? q * d : (q - 1.0) * d;
  }
  return sum;
}

double AbsErrorSum(const std::vector<double>& x, const std::vector<double>& y) {
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) sum += std::abs(x[i] - y[i]);
  return sum;
}

double SquaredErrorSum(const std::vector<double>& x,
                       const std::vector<double>& y) {
  double ss = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    ss += d * d;
  }
  return ss;
}

// The spec: metric `base` over whole vectors (equal length, non-empty,
// finite), with `label` as MASE's series label.
Result<double> Spec(const std::string& base, const std::vector<double>& params,
                    const std::vector<double>& x, const std::vector<double>& y,
                    const std::vector<double>& insample, int season_length,
                    const std::string& label) {
  const double n = static_cast<double>(x.size());
  if (base == "mse") return SquaredErrorSum(x, y) / n;
  if (base == "rmse") return std::sqrt(SquaredErrorSum(x, y) / n);
  if (base == "nrmse") {
    const double rmse = std::sqrt(SquaredErrorSum(x, y) / n);
    const auto [mn, mx] = std::minmax_element(x.begin(), x.end());
    const double range = *mx - *mn;
    if (range <= 0.0) {
      return Status::FailedPrecondition(
          "NRMSE undefined: reference is constant");
    }
    return rmse / range;
  }
  if (base == "mae") return AbsErrorSum(x, y) / n;
  if (base == "mape" || base == "smape") {
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double denom =
          base == "mape"
              ? std::max(std::abs(x[i]), kFloor)
              : std::max((std::abs(x[i]) + std::abs(y[i])) / 2.0, kFloor);
      sum += std::abs(x[i] - y[i]) / denom;
    }
    return sum / n;
  }
  if (base == "bias") {
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) sum += y[i] - x[i];
    return sum / n;
  }
  if (base == "mase") {
    const size_t lag = static_cast<size_t>(std::max(1, season_length));
    if (insample.size() <= lag) {
      return Status::InvalidArgument(
          "MASE undefined: in-sample series '" + label + "' has " +
          std::to_string(insample.size()) + " points, need more than " +
          std::to_string(lag));
    }
    double scale = 0.0;
    for (size_t t = lag; t < insample.size(); ++t) {
      scale += std::abs(insample[t] - insample[t - lag]);
    }
    scale /= static_cast<double>(insample.size() - lag);
    if (!(scale > 0.0)) {
      return Status::InvalidArgument(
          "MASE undefined: constant in-sample series '" + label + "'");
    }
    return AbsErrorSum(x, y) / n / scale;
  }
  if (base == "pinball") return PinballSum(x, y, params[0]) / n;
  if (base == "crps") {
    double sum = 0.0;
    for (double q : params) sum += PinballSum(x, y, q);
    return 2.0 * sum / (static_cast<double>(params.size()) * n);
  }
  return Status::NotFound("no spec for " + base);
}

const std::vector<std::string>& FoldMetrics() {
  static const std::vector<std::string> names = {
      "mse",   "rmse", "nrmse", "mae",         "mape",          "smape",
      "bias",  "mase", "pinball", "pinball@0.1", "crps@0.1+0.9", "crps"};
  return names;
}

void ExpectSame(const Result<double>& got, const Result<double>& want,
                const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*want))
      << what << ": " << *got << " vs " << *want;
}

struct Case {
  std::string name;
  std::vector<double> actual;
  std::vector<double> predicted;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  Rng rng(2024);
  Case random{"random", {}, {}};
  for (int i = 0; i < 5000; ++i) {
    const double v = 50.0 + 10.0 * std::sin(0.01 * i) + rng.Normal();
    random.actual.push_back(v);
    random.predicted.push_back(v + 0.5 * rng.Normal() - 0.1);
  }
  cases.push_back(random);
  cases.push_back({"single point", {3.5}, {2.0}});
  Case zeros{"zeros", {}, {}};
  for (int i = 0; i < 300; ++i) {
    // Exact zeros on the actual side, the predicted side and both.
    zeros.actual.push_back(i % 3 == 0 ? 0.0 : 0.25 * i - 20.0);
    zeros.predicted.push_back(i % 5 == 0 ? 0.0 : (i % 3 == 0 ? 0.0 : 0.2 * i));
  }
  zeros.actual.push_back(-0.0);
  zeros.predicted.push_back(0.0);
  cases.push_back(zeros);
  Case huge{"huge", {}, {}};
  for (int i = 0; i < 2000; ++i) {
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    huge.actual.push_back(sign * 1e154 * (1.0 + 0.001 * i));
    huge.predicted.push_back(sign * 1e154 * (1.0 - 0.002 * i) +
                             (i % 7 == 0 ? 1e-300 : 0.0));
  }
  huge.actual.push_back(1.7e308);
  huge.predicted.push_back(-1.7e308);
  cases.push_back(huge);
  return cases;
}

TEST(MetricFoldSpecTest, EvaluateMetricsMatchesTheWholeVectorLoops) {
  for (const Case& c : Cases()) {
    Rng rng(7);
    std::vector<double> insample;
    for (size_t i = 0; i < c.actual.size() + 30; ++i) {
      insample.push_back(std::sin(0.3 * static_cast<double>(i)) +
                         rng.Normal());
    }
    for (int season : {1, 24}) {
      MetricContext ctx;
      ctx.actual = &c.actual;
      ctx.predicted = &c.predicted;
      ctx.insample = &insample;
      ctx.season_length = season;
      ctx.series = "s";
      for (const std::string& name : FoldMetrics()) {
        Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
        ASSERT_TRUE(spec.ok());
        Result<std::vector<double>> got = EvaluateMetrics({name}, ctx);
        Result<double> value = got.ok() ? Result<double>((*got)[0])
                                        : Result<double>(got.status());
        ExpectSame(value,
                   Spec(spec->base, spec->params, c.actual, c.predicted,
                        insample, season, "s"),
                   c.name + "/" + name + "/season " + std::to_string(season));
      }
    }
  }
}

TEST(MetricFoldSpecTest, CoreMetricsFunctionsMatchTheWholeVectorLoops) {
  for (const Case& c : Cases()) {
    for (const auto& [name, fn] :
         {std::pair{"rmse", &Rmse}, std::pair{"mae", &Mae},
          std::pair{"nrmse", &Nrmse}}) {
      ExpectSame(fn(c.actual, c.predicted),
                 Spec(name, {}, c.actual, c.predicted, {}, 1, ""),
                 c.name + "/" + name);
    }
  }
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_FALSE(Rmse(a, b).ok());
  EXPECT_FALSE(Mae({}, {}).ok());
}

// PooledMetrics folds the pairs as they arrive; the cut points must not
// move a bit, and the pooled actual doubles as MASE's in-sample series.
TEST(MetricFoldSpecTest, PooledRunsMatchTheWholeVectorAtAnyCut) {
  std::vector<std::string> names = FoldMetrics();
  names.push_back("r");  // A whole-series kernel rides along, buffered.
  names.push_back("rse");
  for (const Case& c : Cases()) {
    const size_t n = c.actual.size();
    MetricContext ctx;
    ctx.actual = &c.actual;
    ctx.predicted = &c.predicted;
    ctx.insample = &c.actual;
    ctx.season_length = 3;
    ctx.series = "g";
    std::vector<Result<double>> want;
    for (const std::string& name : names) {
      Result<std::vector<double>> one = EvaluateMetrics({name}, ctx);
      want.push_back(one.ok() ? Result<double>((*one)[0])
                              : Result<double>(one.status()));
    }
    std::vector<std::vector<size_t>> cuts = {{1}, {7}, {1024}, {n}};
    cuts.push_back({3, 500, 1, 2047, 2, 999});  // Uneven, then repeating.
    for (const std::vector<size_t>& pattern : cuts) {
      // Every metric alone, so an error in one does not hide another.
      for (size_t m = 0; m < names.size(); ++m) {
        Result<PooledMetrics> pooled = PooledMetrics::Create({names[m]}, 3);
        ASSERT_TRUE(pooled.ok());
        size_t at = 0;
        for (size_t k = 0; at < n; ++k) {
          const size_t len = std::min(pattern[k % pattern.size()], n - at);
          pooled->Add(c.actual.data() + at, c.predicted.data() + at, len);
          at += len;
        }
        ASSERT_EQ(pooled->count(), n);
        Result<std::vector<double>> got = pooled->Finish("g");
        ExpectSame(got.ok() ? Result<double>((*got)[0])
                            : Result<double>(got.status()),
                   want[m],
                   c.name + "/" + names[m] + "/run " +
                       std::to_string(pattern[0]));
      }
    }
  }
}

// The first non-finite value is named by its pooled index, actual side
// first, exactly as EvaluateMetrics names it in the concatenated vectors.
TEST(MetricFoldSpecTest, PooledNonFiniteMessagesMatchEvaluateMetrics) {
  std::vector<double> actual(40, 1.0);
  std::vector<double> predicted(40, 2.0);
  predicted[11] = std::nan("");
  actual[29] = INFINITY;
  MetricContext ctx;
  ctx.actual = &actual;
  ctx.predicted = &predicted;
  ctx.insample = &actual;
  ctx.series = "grp";
  for (int pass = 0; pass < 2; ++pass) {
    Result<std::vector<double>> want = EvaluateMetrics({"mae", "mase"}, ctx);
    ASSERT_FALSE(want.ok());
    Result<PooledMetrics> pooled = PooledMetrics::Create({"mae", "mase"}, 1);
    ASSERT_TRUE(pooled.ok());
    for (size_t at = 0; at < actual.size(); at += 8) {
      pooled->Add(actual.data() + at, predicted.data() + at, 8);
    }
    EXPECT_EQ(pooled->Finish("grp").status().ToString(),
              want.status().ToString());
    actual[29] = 1.0;  // Second pass: the predicted side's NaN.
  }
}

TEST(MetricFoldSpecTest, EvaluateFoldRefusesWholeSeriesKernels) {
  const std::vector<double> x = {1.0, 2.0, 4.0};
  EXPECT_FALSE(EvaluateFold("r", x, x).ok());
  EXPECT_FALSE(EvaluateFold("no_such_metric", x, x).ok());
  EXPECT_TRUE(EvaluateFold("bias", x, x).ok());
}

}  // namespace
}  // namespace lossyts

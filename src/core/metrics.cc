#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/metric_registry.h"

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

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

Result<double> Rmse(const std::vector<double>& x,
                    const std::vector<double>& y) {
  return EvaluateFold("rmse", x, y);
}

Result<double> Nrmse(const std::vector<double>& x,
                     const std::vector<double>& y) {
  return EvaluateFold("nrmse", x, y);
}

Result<double> Rse(const std::vector<double>& x, const std::vector<double>& y) {
  if (Status s = CheckSameNonEmpty(x, y); !s.ok()) return s;
  const double mean_x = Mean(x);
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    num += d * d;
    const double c = x[i] - mean_x;
    den += c * c;
  }
  if (den <= 0.0) {
    return Status::FailedPrecondition("RSE undefined: reference is constant");
  }
  return std::sqrt(num) / std::sqrt(den);
}

Result<double> PearsonR(const std::vector<double>& x,
                        const std::vector<double>& y) {
  if (Status s = CheckSameNonEmpty(x, y); !s.ok()) return s;
  const double mean_x = Mean(x);
  const double mean_y = Mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return Status::FailedPrecondition("PearsonR undefined: constant input");
  }
  return sxy / (std::sqrt(sxx) * std::sqrt(syy));
}

Result<double> Mae(const std::vector<double>& x, const std::vector<double>& y) {
  return EvaluateFold("mae", x, y);
}

Result<double> MaxAbsError(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (Status s = CheckSameNonEmpty(x, y); !s.ok()) return s;
  double mx = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx = std::max(mx, std::abs(x[i] - y[i]));
  }
  return mx;
}

Result<double> MaxRelError(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (Status s = CheckSameNonEmpty(x, y); !s.ok()) return s;
  double mx = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double denom = std::max(std::abs(x[i]), 1e-12);
    mx = std::max(mx, std::abs(x[i] - y[i]) / denom);
  }
  return mx;
}

}  // namespace lossyts

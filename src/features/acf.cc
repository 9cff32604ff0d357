#include "features/acf.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace lossyts::features {

namespace {

// Writes c[l] = sum of d[t]*d[t-l] over t = l..n-1 for the B lags
// l = l0..l0+B-1 of the centered series d[0..n). Each lag keeps its own
// accumulator, started at 0 and fed in increasing t: first its lead-in terms
// t < l0+B-1 (which the lower lags of the block have and the higher ones
// lack), then one time-outer loop that feeds all B accumulators per t. So
// every lag adds exactly the terms, in exactly the order, of a lag-by-lag
// loop, while the B independent add chains overlap. Requires l0+B-1 < n.
template <int B>
void LagBlock(const double* d, size_t n, size_t l0, double* c) {
  const size_t common = l0 + B - 1;
  double acc[B];
  for (int j = 0; j < B; ++j) {
    const size_t lag = l0 + static_cast<size_t>(j);
    double sum = 0.0;
    for (size_t t = lag; t < common; ++t) sum += d[t] * d[t - lag];
    acc[j] = sum;
  }
  for (size_t t = common; t < n; ++t) {
    const double dt = d[t];
    const double* back = d + (t - common);  // back[B-1-j] == d[t-l0-j].
    for (int j = 0; j < B; ++j) acc[j] += dt * back[B - 1 - j];
  }
  for (int j = 0; j < B; ++j) c[l0 + static_cast<size_t>(j)] = acc[j];
}

}  // namespace

std::vector<double> Acf(const std::vector<double>& x, int max_lag) {
  std::vector<double> acf(static_cast<size_t>(std::max(max_lag, 0)), 0.0);
  const size_t n = x.size();
  if (n < 2 || max_lag < 1) return acf;

  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);

  // One uninitialized buffer (every entry is written before it is read):
  // the series centered once, d[0..n), then the lag sums c[0..last]. Lag 0
  // is the lag-0 autocovariance c0, summed like any other lag; lags at or
  // past n have no terms and their ACF stays 0.
  const size_t last = std::min(static_cast<size_t>(max_lag), n - 1);
  const std::unique_ptr<double[]> buffer =
      std::make_unique_for_overwrite<double[]>(n + last + 1);
  double* d = buffer.get();
  double* c = d + n;
  for (size_t t = 0; t < n; ++t) d[t] = x[t] - mean;

  size_t l0 = 0;
  for (; l0 + 7 <= last; l0 += 8) LagBlock<8>(d, n, l0, c);
  if (l0 + 3 <= last) {
    LagBlock<4>(d, n, l0, c);
    l0 += 4;
  }
  if (l0 + 1 <= last) {
    LagBlock<2>(d, n, l0, c);
    l0 += 2;
  }
  if (l0 <= last) LagBlock<1>(d, n, l0, c);

  if (c[0] <= 0.0) return acf;  // Constant series.
  for (size_t lag = 1; lag <= last; ++lag) acf[lag - 1] = c[lag] / c[0];
  return acf;
}

std::vector<double> Pacf(const std::vector<double>& x, int max_lag) {
  std::vector<double> pacf(static_cast<size_t>(std::max(max_lag, 0)), 0.0);
  if (max_lag < 1 || x.size() < 3) return pacf;
  const std::vector<double> rho = Acf(x, max_lag);

  // Durbin-Levinson: phi[k][k] is the partial autocorrelation at lag k.
  std::vector<double> phi_prev(max_lag + 1, 0.0);
  std::vector<double> phi(max_lag + 1, 0.0);
  phi_prev[1] = rho.empty() ? 0.0 : rho[0];
  pacf[0] = phi_prev[1];
  for (int k = 2; k <= max_lag; ++k) {
    double num = rho[k - 1];
    double den = 1.0;
    for (int j = 1; j < k; ++j) {
      num -= phi_prev[j] * rho[k - 1 - j];
      den -= phi_prev[j] * rho[j - 1];
    }
    const double phikk = std::abs(den) > 1e-12 ? num / den : 0.0;
    for (int j = 1; j < k; ++j) {
      phi[j] = phi_prev[j] - phikk * phi_prev[k - j];
    }
    phi[k] = phikk;
    pacf[k - 1] = phikk;
    phi_prev = phi;
  }
  return pacf;
}

std::vector<double> Diff(const std::vector<double>& x, int d) {
  std::vector<double> out = x;
  for (int k = 0; k < d; ++k) {
    if (out.size() < 2) return {};
    std::vector<double> next(out.size() - 1);
    for (size_t i = 1; i < out.size(); ++i) next[i - 1] = out[i] - out[i - 1];
    out = std::move(next);
  }
  return out;
}

double SumOfSquares(const std::vector<double>& values, size_t k) {
  double sum = 0.0;
  for (size_t i = 0; i < std::min(k, values.size()); ++i) {
    sum += values[i] * values[i];
  }
  return sum;
}

}  // namespace lossyts::features

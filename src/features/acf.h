#ifndef LOSSYTS_FEATURES_ACF_H_
#define LOSSYTS_FEATURES_ACF_H_

#include <cstddef>
#include <vector>

namespace lossyts::features {

/// Sample autocorrelation function for lags 1..max_lag (biased estimator,
/// normalized by lag-0 autocovariance, matching R's acf()). Returns zeros
/// when the series is constant or shorter than the lag.
///
/// Summation order, which CAMEO's encoder decisions and its golden bytes
/// depend on: mean = sum of x[t] in increasing t, divided by n; with
/// d[t] = x[t] - mean, each lag l (including c0 at l = 0) sums d[t]*d[t-l]
/// over t = l..n-1 in increasing t, in its own accumulator started at +0.0;
/// acf[l-1] = c_l / c0. The implementation may interleave lags but never
/// reorders the terms within one lag (tests/features/acf_test.cc keeps the
/// lag-by-lag loop as the bit-for-bit spec).
std::vector<double> Acf(const std::vector<double>& x, int max_lag);

/// Partial autocorrelation for lags 1..max_lag via the Durbin-Levinson
/// recursion over the sample ACF.
std::vector<double> Pacf(const std::vector<double>& x, int max_lag);

/// d-th order differencing (d >= 1). Output has size x.size() - d.
std::vector<double> Diff(const std::vector<double>& x, int d = 1);

/// Sum of squares of the first k entries (the "acf10"/"pacf5" aggregates of
/// the tsfeatures package).
double SumOfSquares(const std::vector<double>& values, size_t k);

}  // namespace lossyts::features

#endif  // LOSSYTS_FEATURES_ACF_H_

#include "features/acf.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace lossyts::features {
namespace {

// ---------------------------------------------------------------------------
// The executable spec: the lag-outer loops Acf must match bit for bit. Each
// lag sums (x[t]-mean)*(x[t-lag]-mean) for t = lag..n-1 in its own serial
// chain; Acf may reorder the loops but not the terms within a lag.
// ---------------------------------------------------------------------------

std::vector<double> SpecAcf(const std::vector<double>& x, int max_lag) {
  std::vector<double> acf(static_cast<size_t>(std::max(max_lag, 0)), 0.0);
  const size_t n = x.size();
  if (n < 2 || max_lag < 1) return acf;
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  double c0 = 0.0;
  for (double v : x) c0 += (v - mean) * (v - mean);
  if (c0 <= 0.0) return acf;
  for (int lag = 1; lag <= max_lag; ++lag) {
    if (static_cast<size_t>(lag) >= n) break;
    double c = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      c += (x[t] - mean) * (x[t - lag] - mean);
    }
    acf[lag - 1] = c / c0;
  }
  return acf;
}

// Pacf's Durbin-Levinson recursion over the spec ACF.
std::vector<double> SpecPacf(const std::vector<double>& x, int max_lag) {
  std::vector<double> pacf(static_cast<size_t>(std::max(max_lag, 0)), 0.0);
  if (max_lag < 1 || x.size() < 3) return pacf;
  const std::vector<double> rho = SpecAcf(x, max_lag);
  std::vector<double> phi_prev(max_lag + 1, 0.0);
  std::vector<double> phi(max_lag + 1, 0.0);
  phi_prev[1] = rho[0];
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

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    uint64_t g;
    uint64_t w;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    EXPECT_EQ(g, w) << "index " << i << ": " << got[i] << " vs " << want[i];
  }
}

// A random walk far from zero with full-mantissa steps, so the centered
// products round and any change to a lag's summation order shows.
std::vector<double> RandomWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  double v = 1000.0;
  for (auto& val : x) {
    v += rng.Normal();
    val = v;
  }
  return x;
}

// Lags on both sides of the 8-lag block edges and of the n-1 clamp.
std::vector<int> SpecLags(size_t n) {
  const int m = static_cast<int>(n);
  return {1, 7, 8, 9, 31, 32, 33, m - 1, m, m + 5};
}

TEST(AcfSpecTest, MatchesLagOuterLoopBitForBit) {
  std::vector<std::vector<double>> inputs;
  for (size_t n : {2, 3, 4, 9, 10, 17, 33, 100, 1000, 4099}) {
    inputs.push_back(RandomWalk(n, 100 + n));
  }
  inputs.push_back(std::vector<double>(50, 3.0));
  inputs.push_back({1.0, 2.0});
  inputs.push_back({-1.5, 0.25, 7.0});
  for (const std::vector<double>& x : inputs) {
    for (int lag : SpecLags(x.size())) {
      SCOPED_TRACE("n=" + std::to_string(x.size()) +
                   " max_lag=" + std::to_string(lag));
      ExpectBitEqual(Acf(x, lag), SpecAcf(x, lag));
      ExpectBitEqual(Pacf(x, lag), SpecPacf(x, lag));
    }
  }
}

TEST(AcfTest, WhiteNoiseHasNearZeroAcf) {
  Rng rng(1);
  std::vector<double> x(20000);
  for (auto& v : x) v = rng.Normal();
  std::vector<double> acf = Acf(x, 5);
  for (double a : acf) EXPECT_NEAR(a, 0.0, 0.03);
}

TEST(AcfTest, Ar1ProcessMatchesPhi) {
  Rng rng(2);
  std::vector<double> x(50000);
  double v = 0.0;
  for (auto& val : x) {
    v = 0.8 * v + rng.Normal();
    val = v;
  }
  std::vector<double> acf = Acf(x, 3);
  EXPECT_NEAR(acf[0], 0.8, 0.02);
  EXPECT_NEAR(acf[1], 0.64, 0.03);
  EXPECT_NEAR(acf[2], 0.512, 0.04);
}

TEST(AcfTest, PeriodicSeriesHasSeasonalAcfPeak) {
  std::vector<double> x(1000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 24.0);
  }
  std::vector<double> acf = Acf(x, 24);
  EXPECT_GT(acf[23], 0.95);  // Lag 24 = full period.
  EXPECT_LT(acf[11], -0.9);  // Lag 12 = anti-phase.
}

TEST(AcfTest, ConstantSeriesGivesZeros) {
  std::vector<double> x(100, 3.0);
  std::vector<double> acf = Acf(x, 5);
  for (double a : acf) EXPECT_EQ(a, 0.0);
}

TEST(AcfTest, ShortSeriesHandled) {
  std::vector<double> x = {1.0};
  EXPECT_EQ(Acf(x, 5).size(), 5u);
  for (double a : Acf(x, 5)) EXPECT_EQ(a, 0.0);
}

TEST(PacfTest, Ar1HasSinglePacfSpike) {
  Rng rng(3);
  std::vector<double> x(50000);
  double v = 0.0;
  for (auto& val : x) {
    v = 0.7 * v + rng.Normal();
    val = v;
  }
  std::vector<double> pacf = Pacf(x, 5);
  EXPECT_NEAR(pacf[0], 0.7, 0.02);
  for (size_t k = 1; k < pacf.size(); ++k) {
    EXPECT_NEAR(pacf[k], 0.0, 0.03) << "lag " << k + 1;
  }
}

TEST(PacfTest, Ar2HasTwoPacfSpikes) {
  Rng rng(4);
  std::vector<double> x(50000);
  double v1 = 0.0;
  double v2 = 0.0;
  for (auto& val : x) {
    const double v = 0.5 * v1 + 0.3 * v2 + rng.Normal();
    v2 = v1;
    v1 = v;
    val = v;
  }
  std::vector<double> pacf = Pacf(x, 4);
  EXPECT_GT(std::abs(pacf[0]), 0.5);
  EXPECT_NEAR(pacf[1], 0.3, 0.03);
  EXPECT_NEAR(pacf[2], 0.0, 0.03);
  EXPECT_NEAR(pacf[3], 0.0, 0.03);
}

TEST(DiffTest, FirstDifference) {
  std::vector<double> x = {1.0, 4.0, 9.0, 16.0};
  std::vector<double> d = Diff(x, 1);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 7.0);
}

TEST(DiffTest, SecondDifferenceOfQuadraticIsConstant) {
  std::vector<double> x(20);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i * i);
  }
  std::vector<double> d = Diff(x, 2);
  for (double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(DiffTest, TooShortReturnsEmpty) {
  std::vector<double> x = {1.0};
  EXPECT_TRUE(Diff(x, 1).empty());
  EXPECT_TRUE(Diff(x, 3).empty());
}

TEST(SumOfSquaresTest, BasicAndTruncated) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(SumOfSquares(v, 2), 5.0);
  EXPECT_DOUBLE_EQ(SumOfSquares(v, 10), 14.0);
  EXPECT_DOUBLE_EQ(SumOfSquares(v, 0), 0.0);
}

}  // namespace
}  // namespace lossyts::features

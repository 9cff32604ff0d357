#include "core/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>

// The library is compiled with -ffp-contract=off (see src/CMakeLists.txt):
// a fused multiply-add would round differently from the mul-then-add the
// identity contract fixes, and the encoders' output bytes would then depend
// on the compiler and the host.

namespace lossyts::simd {

namespace {

inline uint64_t BitsOf(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The 4-lane reduction every summing kernel shares. Four named accumulators
// (not an indexed acc[i & 3] array, which keeps the lanes in memory and
// serializes the loop) take indices i % 4 == 0..3 in increasing i; the
// remainder after the last full group goes to lanes 0, 1, 2.
template <typename Term>
inline double ReduceFourLanes(size_t n, Term term) {
  double l0 = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double l3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += term(i);
    l1 += term(i + 1);
    l2 += term(i + 2);
    l3 += term(i + 3);
  }
  if (i < n) l0 += term(i);
  if (i + 1 < n) l1 += term(i + 1);
  if (i + 2 < n) l2 += term(i + 2);
  return (l0 + l1) + (l2 + l3);
}

}  // namespace

void XorDeltas(const double* v, size_t n, uint64_t* out) {
  for (size_t i = 0; i + 1 < n; ++i) out[i] = BitsOf(v[i + 1]) ^ BitsOf(v[i]);
}

double MinAbs(const double* v, size_t n) {
  double m0 = std::fabs(v[0]);
  double m1 = m0;
  double m2 = m0;
  double m3 = m0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, std::fabs(v[i]));
    m1 = std::min(m1, std::fabs(v[i + 1]));
    m2 = std::min(m2, std::fabs(v[i + 2]));
    m3 = std::min(m3, std::fabs(v[i + 3]));
  }
  for (; i < n; ++i) m0 = std::min(m0, std::fabs(v[i]));
  return std::min(std::min(m0, m1), std::min(m2, m3));
}

double Sum(const double* v, size_t n) {
  return ReduceFourLanes(n, [v](size_t i) { return v[i]; });
}

double SumAbsDevAffine(const double* v, size_t n, double a, double b) {
  return ReduceFourLanes(n, [=](size_t i) {
    return std::fabs(v[i] - (a + b * static_cast<double>(i)));
  });
}

double SumAbsDiffSeq(const double* v, size_t n, double prev) {
  return ReduceFourLanes(n, [=](size_t i) {
    return std::fabs(v[i] - (i == 0 ? prev : v[i - 1]));
  });
}

double DotRamp(const double* v, size_t n, double x_mean, double v_mean) {
  return ReduceFourLanes(n, [=](size_t i) {
    return (static_cast<double>(i) - x_mean) * (v[i] - v_mean);
  });
}

void QuantizeAffine(const double* v, size_t n, double a, double b,
                    double two_delta, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double pred = a + b * static_cast<double>(i);
    out[i] = std::nearbyint((v[i] - pred) / two_delta);
  }
}

}  // namespace lossyts::simd

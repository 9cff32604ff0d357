#include "core/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "zip/crc32.h"

namespace lossyts::simd {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Input generator covering the value classes the codecs feed the kernels:
// ordinary magnitudes, subnormals, signed zeros, and huge values.
std::vector<double> AdversarialInput(std::mt19937_64& rng, size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) {
    switch (rng() % 6) {
      case 0:
        x = static_cast<double>(static_cast<int64_t>(rng())) * 1e-9;
        break;
      case 1: {  // Subnormal: zero exponent field, random mantissa.
        const uint64_t bits =
            ((rng() & 1ull) << 63) | (rng() & ((1ull << 52) - 1));
        std::memcpy(&x, &bits, sizeof(x));
        break;
      }
      case 2:
        x = (rng() & 1) ? 0.0 : -0.0;
        break;
      case 3:
        x = std::numeric_limits<double>::max() *
            (static_cast<double>(rng() % 1000) / 1000.0 - 0.5);
        break;
      case 4:
        x = std::numeric_limits<double>::min() *
            (static_cast<double>(rng() % 8) + 1.0);
        break;
      default:
        x = std::ldexp(static_cast<double>(rng() % 4096) - 2048.0,
                       static_cast<int>(rng() % 40) - 20);
        break;
    }
  }
  return v;
}

// Finite values of mixed sign across 24 binades with full 53-bit
// mantissas: most additions round, so a change to the lane order or the
// reduction's association shows in the low bits of some sums.
std::vector<double> RoundingSensitiveInput(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = std::ldexp(unit(rng), static_cast<int>(rng() % 24) - 12);
  }
  return v;
}

// ---------------------------------------------------------------------------
// The executable spec: the indexed-accumulator loops the kernels must match
// bit for bit. Lane j = i % 4 accumulates its indices in increasing order
// from +0.0, and the reduction is (l0 + l1) + (l2 + l3). The tests are
// compiled with -ffp-contract=off like the library, so neither side fuses.
// ---------------------------------------------------------------------------

void SpecXorDeltas(const double* v, size_t n, uint64_t* out) {
  uint64_t prev = Bits(v[0]);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t cur = Bits(v[i]);
    out[i - 1] = cur ^ prev;
    prev = cur;
  }
}

double SpecMinAbs(const double* v, size_t n) {
  double m = std::fabs(v[0]);
  for (size_t i = 1; i < n; ++i) m = std::min(m, std::fabs(v[i]));
  return m;
}

double SpecSum(const double* v, size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) acc[i & 3] += v[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SpecSumAbsDevAffine(const double* v, size_t n, double a, double b) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double pred = a + b * static_cast<double>(i);
    acc[i & 3] += std::fabs(v[i] - pred);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SpecSumAbsDiffSeq(const double* v, size_t n, double prev) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  double p = prev;
  for (size_t i = 0; i < n; ++i) {
    acc[i & 3] += std::fabs(v[i] - p);
    p = v[i];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SpecDotRamp(const double* v, size_t n, double x_mean, double v_mean) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - x_mean;
    acc[i & 3] += dx * (v[i] - v_mean);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void SpecQuantizeAffine(const double* v, size_t n, double a, double b,
                        double two_delta, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double pred = a + b * static_cast<double>(i);
    out[i] = std::nearbyint((v[i] - pred) / two_delta);
  }
}

// Bit-at-a-time CRC-32 (IEEE, reflected) over a pre-inverted state: no
// table, so it is independent of both table-driven loops in zip/crc32.cc.
uint32_t SpecCrc32Update(uint32_t state, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state ^= data[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

// Every length 0..9 (each remainder of the four-lane groups, with and
// without a full group), the SZ/LFZip block size 128 and twice it, each
// with its neighbours, and two long inputs.
std::vector<size_t> Lengths() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 9; ++n) lengths.push_back(n);
  for (size_t n : {15u, 16u, 17u, 127u, 128u, 129u, 255u, 256u, 257u, 1000u,
                   1001u}) {
    lengths.push_back(n);
  }
  return lengths;
}

TEST(SimdTest, XorDeltasExactAcrossLevels) {
  std::mt19937_64 rng(1);
  for (size_t n : Lengths()) {
    const std::vector<double> v = AdversarialInput(rng, n);
    std::vector<uint64_t> expected(n > 0 ? n - 1 : 0);
    if (n > 0) SpecXorDeltas(v.data(), n, expected.data());
    // One guard word past the end catches an overrun.
    std::vector<uint64_t> out(expected.size() + 1, ~0ull);
    XorDeltas(v.data(), n, out.data());
    EXPECT_EQ(out.back(), ~0ull) << "n=" << n;
    out.pop_back();
    EXPECT_EQ(out, expected) << "n=" << n;
  }
}

TEST(SimdTest, ReductionKernelsBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(2);
  std::vector<std::vector<double>> inputs;
  for (size_t n : Lengths()) {
    inputs.push_back(AdversarialInput(rng, n));
    // A single reassociation changes the rounded sum of such an input only
    // about one time in ten, so each length gets many draws.
    for (int draw = 0; draw < 32; ++draw) {
      inputs.push_back(RoundingSensitiveInput(rng, n));
    }
  }
  for (const std::vector<double>& v : inputs) {
    const size_t n = v.size();
    const double* p = v.data();
    const double a = std::ldexp(1.0, -static_cast<int>(rng() % 30));
    const double b = std::ldexp(1.0, -static_cast<int>(rng() % 30)) / 3.0;
    const double prev = n > 0 ? v[0] * 0.5 : 1.5;
    const double x_mean = n > 0 ? static_cast<double>(n - 1) / 2.0 : 0.0;
    if (n > 0) {
      EXPECT_EQ(Bits(MinAbs(p, n)), Bits(SpecMinAbs(p, n)))
          << "MinAbs n=" << n;
    }
    EXPECT_EQ(Bits(Sum(p, n)), Bits(SpecSum(p, n))) << "Sum n=" << n;
    EXPECT_EQ(Bits(SumAbsDevAffine(p, n, a, b)),
              Bits(SpecSumAbsDevAffine(p, n, a, b)))
        << "SumAbsDevAffine n=" << n;
    EXPECT_EQ(Bits(SumAbsDiffSeq(p, n, prev)),
              Bits(SpecSumAbsDiffSeq(p, n, prev)))
        << "SumAbsDiffSeq n=" << n;
    EXPECT_EQ(Bits(DotRamp(p, n, x_mean, a)),
              Bits(SpecDotRamp(p, n, x_mean, a)))
        << "DotRamp n=" << n;
  }
}

TEST(SimdTest, QuantizeAffineBitIdenticalAcrossLevelsAndHalfEven) {
  std::mt19937_64 rng(3);
  for (size_t n : Lengths()) {
    const std::vector<double> v = AdversarialInput(rng, n);
    const double a = 0.25;
    const double b = 1.0 / 7.0;
    const double two_delta = std::ldexp(1.0, -10);
    std::vector<double> expected(n);
    SpecQuantizeAffine(v.data(), n, a, b, two_delta, expected.data());
    std::vector<double> out(n + 1, -1.0);
    QuantizeAffine(v.data(), n, a, b, two_delta, out.data());
    EXPECT_EQ(out.back(), -1.0) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(out[i]), Bits(expected[i])) << "n=" << n << " i=" << i;
    }
  }
  // Ties round half-to-even: residual/two_delta == 0.5, 1.5, 2.5 and -0.5
  // must quantize to 0, 2, 2 and -0.
  const double ties[] = {0.5, 1.5, 2.5, -0.5};
  double out[4];
  QuantizeAffine(ties, 4, 0.0, 0.0, 1.0, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_EQ(out[2], 2.0);
  EXPECT_EQ(Bits(out[3]), Bits(-0.0));
}

TEST(SimdTest, Crc32KernelsAgreeAcrossLevels) {
  // Slice-by-8 through Crc32::Update, fed whole and in two pieces split at
  // every offset of a short input, against the table-free spec.
  std::mt19937_64 rng(4);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 4097u}) {
    std::vector<uint8_t> data(n);
    for (auto& x : data) x = static_cast<uint8_t>(rng());
    const uint32_t expected =
        SpecCrc32Update(0xFFFFFFFFu, data.data(), n) ^ 0xFFFFFFFFu;
    EXPECT_EQ(zip::ComputeCrc32({data.data(), n}), expected) << "n=" << n;
    EXPECT_EQ(zip::ComputeCrc32Reference({data.data(), n}), expected)
        << "n=" << n;
    for (size_t split = 0; split <= std::min<size_t>(n, 17); ++split) {
      zip::Crc32 crc;
      crc.Update({data.data(), split});
      crc.Update({data.data() + split, n - split});
      EXPECT_EQ(crc.value(), expected) << "n=" << n << " split=" << split;
    }
  }
}

TEST(SimdTest, SumKernelsHandleSignedZeroAndSubnormals) {
  // All-(-0.0) input: every lane starts at +0.0, so the sums are +0.0 (and
  // must match the spec bit for bit); subnormal sums stay exact.
  for (size_t n : Lengths()) {
    const std::vector<double> zeros(n, -0.0);
    const std::vector<double> tiny(n,
                                   std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(Bits(Sum(zeros.data(), n)), Bits(SpecSum(zeros.data(), n)))
        << "n=" << n;
    EXPECT_EQ(Bits(Sum(zeros.data(), n)), Bits(0.0)) << "n=" << n;
    EXPECT_EQ(Bits(Sum(tiny.data(), n)), Bits(SpecSum(tiny.data(), n)))
        << "n=" << n;
    EXPECT_EQ(Sum(tiny.data(), n),
              static_cast<double>(n) *
                  std::numeric_limits<double>::denorm_min())
        << "n=" << n;
    EXPECT_EQ(Bits(SumAbsDiffSeq(zeros.data(), n, 0.0)),
              Bits(SpecSumAbsDiffSeq(zeros.data(), n, 0.0)))
        << "n=" << n;
    if (n > 0) {
      EXPECT_EQ(MinAbs(tiny.data(), n),
                std::numeric_limits<double>::denorm_min())
          << "n=" << n;
      EXPECT_EQ(Bits(MinAbs(zeros.data(), n)), Bits(0.0)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace lossyts::simd

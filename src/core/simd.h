#ifndef LOSSYTS_CORE_SIMD_H_
#define LOSSYTS_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace lossyts::simd {

/// The hot-path kernels the SZ and LFZip encoders (block min, predictor
/// costs, affine quantization) and the Gorilla/Chimp encoders (XOR deltas)
/// run. Each has one portable implementation whose arithmetic is fixed, so
/// compressed output is a pure function of the input on every host:
///  - a reduction runs four accumulators; lane j takes indices i % 4 == j in
///    increasing i, starting from +0.0, and the lanes reduce as
///    (l0 + l1) + (l2 + l3);
///  - element-wise expressions are plain IEEE mul/add/sub/div with no FMA
///    contraction (src/ is compiled with -ffp-contract=off);
///  - rounding is round-half-to-even (nearbyint in the default mode).
/// See DESIGN.md "Hot-path kernels & the identity contract".

/// out[i] = bits(v[i+1]) ^ bits(v[i]) for i in [0, n-1). Requires n >= 1
/// and room for n-1 outputs. Integer XOR of the raw IEEE-754 patterns.
void XorDeltas(const double* v, size_t n, uint64_t* out);

/// min over i of |v[i]|. Requires n >= 1; inputs must be non-NaN, under
/// which the result is exact in any evaluation order.
double MinAbs(const double* v, size_t n);

/// Sum of v[0..n) in the 4-lane order.
double Sum(const double* v, size_t n);

/// Sum of |v[i] - (a + b * i)| in the 4-lane order.
double SumAbsDevAffine(const double* v, size_t n, double a, double b);

/// Sum of |v[i] - v[i-1]| with v[-1] := prev, in the 4-lane order.
double SumAbsDiffSeq(const double* v, size_t n, double prev);

/// Sum of (i - x_mean) * (v[i] - v_mean) in the 4-lane order (the
/// least-squares slope numerator over local indices 0..n-1).
double DotRamp(const double* v, size_t n, double x_mean, double v_mean);

/// out[i] = nearbyint((v[i] - (a + b * i)) / two_delta). Element-wise;
/// round-half-even in the default rounding mode.
void QuantizeAffine(const double* v, size_t n, double a, double b,
                    double two_delta, double* out);

// perfbench's run record reads ActiveLevel() and LevelName() for its "simd"
// field; the next benchmark-only change drops that field and these names.
enum class Level : int { kScalar = 0 };
inline Level ActiveLevel() { return Level::kScalar; }
inline const char* LevelName(Level) { return "scalar"; }

}  // namespace lossyts::simd

#endif  // LOSSYTS_CORE_SIMD_H_

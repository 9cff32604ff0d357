#include "compress/ppa.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "compress/header.h"
#include "compress/serde.h"

namespace lossyts::compress {

namespace {

// Normal-equation sums over one segment's local indices 0..len-1 for the
// basis powers = {1, t, t*t}: s[m] is xtx[r][c] for r + c == m (the sum of
// powers[r]*powers[c]), y[r] sums powers[r]*v. Each entry is its own
// accumulator, started at 0 and fed in index order, so the sums at `len`
// are exactly what a from-scratch fit over len points accumulates, for any
// degree <= 2.
struct NormalSums {
  double s[5];
  double y[3];
};

// Prefix rows of NormalSums for one segment start: rows[len] covers local
// indices 0..len-1. The search probes lengths out of order, so rows are
// appended lazily up to the longest length probed; one vector is reused
// for every start.
class PrefixSums {
 public:
  void Reset(const double* values) {
    values_ = values;
    rows_.assign(1, NormalSums{});
  }

  const NormalSums& At(size_t len) {
    while (rows_.size() <= len) {
      const size_t i = rows_.size() - 1;
      const double t = static_cast<double>(i);
      const double powers[3] = {1.0, t, t * t};
      const double v = values_[i];
      NormalSums next = rows_.back();
      next.s[0] += powers[0] * powers[0];
      next.s[1] += powers[0] * powers[1];
      next.s[2] += powers[1] * powers[1];
      next.s[3] += powers[1] * powers[2];
      next.s[4] += powers[2] * powers[2];
      for (int r = 0; r < 3; ++r) next.y[r] += powers[r] * v;
      rows_.push_back(next);
    }
    return rows_[len];
  }

 private:
  const double* values_ = nullptr;
  std::vector<NormalSums> rows_;
};

// Least-squares polynomial fit of degree `degree` from the normal-equation
// sums of a segment (local indices 0..len-1). Returns false when the normal
// equations are singular (short segments get a lower degree instead).
// Reading xtx[r][c] as s[r+c] loses nothing: powers[r]*powers[c] ==
// powers[c]*powers[r] and 1*x == x exactly, so every xtx entry with the
// same r+c accumulates the same terms.
bool FitPolynomial(const NormalSums& sums, int degree,
                   std::array<double, 3>* coeffs) {
  const int k = degree + 1;
  // Gaussian elimination with partial pivoting on the k-by-k system.
  double a[3][4];
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) a[r][c] = sums.s[r + c];
    a[r][k] = sums.y[r];
  }
  for (int col = 0; col < k; ++col) {
    int pivot = col;
    for (int r = col + 1; r < k; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    for (int c = 0; c <= k; ++c) std::swap(a[col][c], a[pivot][c]);
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (int c = col; c <= k; ++c) a[r][c] -= f * a[col][c];
    }
  }
  coeffs->fill(0.0);
  for (int r = 0; r < k; ++r) (*coeffs)[r] = a[r][k] / a[r][r];
  return true;
}

double EvalPolynomial(const std::array<double, 3>& coeffs, double t) {
  return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t;
}

// Checks the fitted polynomial against every point's relative allowance.
// The negated comparison rejects NaN reconstructions (overflowed normal
// equations yield NaN coefficients, and `rec < lo || rec > hi` is all-false
// for NaN); the isfinite check additionally rejects ±inf reconstructions,
// which would otherwise slip through when |v| is so large that the allowance
// endpoints themselves overflow to ±inf — decompressed output must stay
// finite so it can be re-compressed.
bool Feasible(const std::vector<double>& v, size_t begin, size_t len,
              const std::array<double, 3>& coeffs, double error_bound) {
  for (size_t i = 0; i < len; ++i) {
    const double rec = EvalPolynomial(coeffs, static_cast<double>(i));
    const Allowance a = RelativeAllowance(v[begin + i], error_bound);
    if (!std::isfinite(rec) || !(rec >= a.lo && rec <= a.hi)) return false;
  }
  return true;
}

struct Segment {
  uint16_t length;
  uint8_t degree;
  std::array<double, 3> coeffs;
};

}  // namespace

Result<std::vector<uint8_t>> PpaCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  // FitPolynomial sizes its system for degree 2, and a segment length is
  // stored as a u16 (a 65536-point segment would store 0 and never advance).
  if (options_.max_degree < 0 || options_.max_degree > 2) {
    return Status::InvalidArgument("PPA max_degree must be in [0, 2], got " +
                                   std::to_string(options_.max_degree));
  }
  if (options_.max_segment_length < 1 ||
      options_.max_segment_length > std::numeric_limits<uint16_t>::max()) {
    return Status::InvalidArgument(
        "PPA max_segment_length must be in [1, 65535], got " +
        std::to_string(options_.max_segment_length));
  }
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  const std::vector<double>& v = series.values();
  std::vector<Segment> segments;
  PrefixSums sums;
  size_t pos = 0;
  while (pos < v.size()) {
    const size_t remaining =
        std::min(v.size() - pos, options_.max_segment_length);
    sums.Reset(v.data() + pos);

    // Per degree, find the maximal feasible length via exponential growth
    // followed by binary search (each probe solves the fit from the prefix
    // sums, O(1), and verifies it, O(len)).
    Segment best;
    best.length = 1;
    best.degree = 0;
    best.coeffs = {v[pos], 0.0, 0.0};
    double best_density = 1.0 / (3.0 + 8.0);  // Points per stored byte.

    for (int degree = 0; degree <= options_.max_degree; ++degree) {
      auto feasible_at = [&](size_t len,
                             std::array<double, 3>* coeffs) -> bool {
        if (len < static_cast<size_t>(degree) + 1) return false;
        const int effective_degree =
            std::min<int>(degree, static_cast<int>(len) - 1);
        if (!FitPolynomial(sums.At(len), effective_degree, coeffs)) {
          return false;
        }
        return Feasible(v, pos, len, *coeffs, error_bound);
      };

      std::array<double, 3> coeffs{};
      size_t lo = static_cast<size_t>(degree) + 1;
      if (lo > remaining) break;
      if (!feasible_at(lo, &coeffs)) continue;
      size_t hi = lo;
      std::array<double, 3> lo_coeffs = coeffs;
      while (hi < remaining) {
        const size_t next = std::min(remaining, hi * 2);
        if (feasible_at(next, &coeffs)) {
          hi = next;
          lo_coeffs = coeffs;
          if (next == remaining) break;
        } else {
          // Binary search in (hi, next).
          size_t bad = next;
          size_t good = hi;
          while (good + 1 < bad) {
            const size_t mid = (good + bad) / 2;
            if (feasible_at(mid, &coeffs)) {
              good = mid;
              lo_coeffs = coeffs;
            } else {
              bad = mid;
            }
          }
          hi = good;
          break;
        }
      }
      const double bytes = 3.0 + 8.0 * static_cast<double>(degree + 1);
      const double density = static_cast<double>(hi) / bytes;
      if (density > best_density) {
        best_density = density;
        best.length = static_cast<uint16_t>(hi);
        best.degree = static_cast<uint8_t>(degree);
        best.coeffs = lo_coeffs;
      }
    }
    segments.push_back(best);
    pos += best.length;
  }

  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kPpa, series), writer);
  if (Status s = PutCountU32(writer, segments.size(), "PPA segment");
      !s.ok()) {
    return s;
  }
  for (const Segment& s : segments) {
    writer.PutU16(s.length);
    writer.PutU8(s.degree);
    for (int c = 0; c <= s.degree; ++c) writer.PutDouble(s.coeffs[c]);
  }
  return writer.Finish();
}

Result<TimeSeries> PpaCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kPpa);
  if (!header.ok()) return header.status();
  Result<uint32_t> num_segments = reader.GetU32();
  if (!num_segments.ok()) return num_segments.status();

  std::vector<double> values;
  values.reserve(SafeReserve(header->num_points));
  for (uint32_t s = 0; s < *num_segments; ++s) {
    Result<uint16_t> length = reader.GetU16();
    if (!length.ok()) return length.status();
    if (values.size() + *length > header->num_points) {
      return Status::Corruption(
          "PPA segment lengths overrun the point count");
    }
    Result<uint8_t> degree = reader.GetU8();
    if (!degree.ok()) return degree.status();
    if (*degree > 2) return Status::Corruption("PPA degree out of range");
    std::array<double, 3> coeffs{};
    for (int c = 0; c <= *degree; ++c) {
      Result<double> coeff = reader.GetDouble();
      if (!coeff.ok()) return coeff.status();
      coeffs[static_cast<size_t>(c)] = *coeff;
    }
    for (uint16_t i = 0; i < *length; ++i) {
      values.push_back(EvalPolynomial(coeffs, static_cast<double>(i)));
    }
  }
  if (values.size() != header->num_points) {
    return Status::Corruption("PPA segment lengths do not sum to point count");
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress

#ifndef LOSSYTS_COMPRESS_COMPRESSOR_H_
#define LOSSYTS_COMPRESS_COMPRESSOR_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"

namespace lossyts::compress {

/// Pointwise error-bounded lossy compression (PEBLC, paper Definition 4).
///
/// All compressors in this library guarantee the *relative* pointwise bound:
/// every decompressed value v̂_i satisfies |v̂_i − v_i| ≤ ε·|v_i|. A raw value
/// of exactly zero therefore has zero tolerance and must be reconstructed
/// exactly — this is what breaks Swing's long segments on the Solar dataset's
/// night-time zeros, and the library deliberately preserves that behaviour.
///
/// Compressed blobs are self-describing: they begin with the shared timestamp
/// header of paper §3.2 (first timestamp as a 32-bit integer, the sampling
/// interval as a 16-bit integer, the point count) written by the concrete
/// algorithm, so Decompress needs only the bytes. The final gzip pass of the
/// evaluation pipeline is applied separately (see pipeline.h), mirroring how
/// the paper sizes everything as .gz files.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short identifier, e.g. "PMC", "SWING", "SZ".
  virtual std::string_view name() const = 0;

  /// Compresses `series` under relative pointwise bound `error_bound`
  /// (ε > 0). The output is the pre-gzip binary blob.
  virtual Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                                double error_bound) const = 0;

  /// Reconstructs the series from a blob produced by Compress.
  virtual Result<TimeSeries> Decompress(
      std::span<const uint8_t> blob) const = 0;
};

/// Algorithm tags stored as the first header byte of every blob so that a
/// mismatched Decompress call fails cleanly instead of misparsing.
enum class AlgorithmId : uint8_t {
  kPmc = 1,
  kSwing = 2,
  kSz = 3,
  kGorilla = 4,
  kChimp = 5,
  kPpa = 6,
  kLfzip = 7,
  kCameo = 8,
};

/// Closed allowance interval for one point under the relative bound: the
/// reconstructed value must lie in [value − ε·|value|, value + ε·|value|],
/// endpoints included — |v̂ − v| ≤ ε·|v| per Definition 4, and both the
/// codecs' verification passes and the conform oracle compare with >= / <=.
/// For an exact zero the interval is the single point {0}.
struct Allowance {
  double lo;
  double hi;
};

inline Allowance RelativeAllowance(double value, double error_bound) {
  const double slack = error_bound * (value < 0 ? -value : value);
  return Allowance{value - slack, value + slack};
}

/// Validates the error bound argument shared by all compressors. The
/// negated form of the first comparison also rejects NaN, whose comparisons
/// are all false.
inline Status CheckErrorBound(double error_bound) {
  if (!(error_bound > 0.0) || error_bound >= 1.0) {
    return Status::InvalidArgument(
        "relative error bound must be in (0, 1), got " +
        std::to_string(error_bound));
  }
  return Status::OK();
}

/// Rejects non-finite input values for the lossy codecs: a NaN has no
/// allowance interval at all and an infinity has a degenerate one, so the
/// pointwise guarantee of Definition 4 is unsatisfiable. The lossless codecs
/// (Gorilla, Chimp) accept any bit pattern and do not call this.
inline Status CheckFiniteValues(const TimeSeries& series) {
  const std::vector<double>& v = series.values();
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      return Status::InvalidArgument(
          "lossy compression requires finite values; index " +
          std::to_string(i) + " is " + std::to_string(v[i]));
    }
  }
  return Status::OK();
}

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_COMPRESSOR_H_

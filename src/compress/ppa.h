#ifndef LOSSYTS_COMPRESS_PPA_H_
#define LOSSYTS_COMPRESS_PPA_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// Piecewise Polynomial Approximation (Eichinger et al., VLDB J. 2015) — the
/// compressor behind the only prior lossy-compression-vs-forecasting result
/// the paper cites (§6.3). Each segment is approximated by the least-squares
/// polynomial of degree 0..max_degree that covers the longest stretch of
/// points within their relative allowances, chosen per segment to maximize
/// points-per-byte.
///
/// Blob layout after the shared header: u32 segment count, then per segment
/// a u16 length, u8 degree and (degree+1) f64 coefficients (evaluated on
/// local indices 0..length-1).
class PpaCompressor : public Compressor {
 public:
  /// Compress returns InvalidArgument for options outside these ranges.
  struct Options {
    int max_degree = 2;  ///< In [0, 2].
    /// Cap on segment length (bounds the O(length) feasibility checks), in
    /// [1, 65535]: a segment's length is stored as a u16.
    size_t max_segment_length = 2048;
  };

  PpaCompressor() = default;
  explicit PpaCompressor(const Options& options) : options_(options) {}

  std::string_view name() const override { return "PPA"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

 private:
  Options options_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_PPA_H_

#ifndef LOSSYTS_COMPRESS_SZ_H_
#define LOSSYTS_COMPRESS_SZ_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// SZ-style error-bounded compressor (Liang et al., Big Data'18; paper §3.2),
/// configured for the *pointwise relative* bound used throughout the paper.
///
/// Pipeline (mirroring SZ 2.1's PW_REL mode):
///  1. Exact zeros are split off into a class stream (the relative bound
///     gives them zero tolerance); non-zero values form the coding stream.
///  2. Block split into fixed-size segments; per block SZ evaluates three
///     predictors — classic Lorenzo (previous reconstructed value),
///     mean-integrated Lorenzo (block mean), and linear regression — and
///     keeps the best fit.
///  3. Linear-scale quantization of the prediction residuals with the
///     block's *conservative* absolute bound δ = ε·min|v| (as SZ's
///     pointwise-relative mode derives per-block bounds), using 2·δ-wide
///     bins; residuals outside the code range are stored verbatim
///     ("unpredictable" values).
///  4. Entropy coding of the quantization codes with a canonical Huffman
///     coder. The evaluation pipeline then applies gzip, as SZ itself does.
///
/// The quantization step is what produces the constant runs and small
/// fluctuations visible in the paper's Figure 1.
class SzCompressor : public Compressor {
 public:
  /// Tunables; defaults match the behaviour described in the paper.
  struct Options {
    size_t block_size = 128;   ///< Points per prediction block.
    int quant_radius = 32768;  ///< Codes cover [-radius, radius).
  };

  SzCompressor() = default;
  explicit SzCompressor(const Options& options) : options_(options) {}

  std::string_view name() const override { return "SZ"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

 private:
  Options options_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SZ_H_

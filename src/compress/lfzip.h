#ifndef LOSSYTS_COMPRESS_LFZIP_H_
#define LOSSYTS_COMPRESS_LFZIP_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// LFZip-style error-bounded compressor (Chandak et al., DCC'20,
/// arXiv:1911.00208), adapted to the paper's *pointwise relative* bound.
///
/// Pipeline:
///  1. Exact zeros are split off into a class stream (the relative bound
///     gives them zero tolerance and they must be bit-exact); the non-zero
///     values form the coding stream.
///  2. A normalized-least-mean-squares (NLMS) filter of order
///     `filter_order` predicts each value from the last reconstructed
///     values. The filter adapts on *reconstructed* data only, so the
///     decoder replays the identical weight trajectory — the core LFZip
///     idea that makes the side information free.
///  3. The prediction residual is uniformly quantized with the
///     conservative per-block absolute step δ = ε·min|v| (stored as f32,
///     rounded down so encoder and decoder agree bit-for-bit); residuals
///     outside the code range, or whose exact reconstruction cannot be
///     *proven* inside the point's allowance with the decoder's own
///     arithmetic, are stored verbatim.
///  4. The quantization codes are entropy-coded with a canonical Huffman
///     coder (LFZip uses BSC; this library's zip/ stage plus the
///     pipeline's gzip pass plays that role).
class LfzipCompressor : public Compressor {
 public:
  struct Options {
    size_t block_size = 128;   ///< Points per quantization block.
    int quant_radius = 32768;  ///< Codes cover [-radius, radius).
    size_t filter_order = 8;   ///< NLMS taps.
    double step = 0.5;         ///< NLMS learning rate μ.
  };

  LfzipCompressor() = default;
  explicit LfzipCompressor(const Options& options) : options_(options) {}

  std::string_view name() const override { return "LFZIP"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

 private:
  Options options_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_LFZIP_H_

#ifndef LOSSYTS_COMPRESS_PMC_H_
#define LOSSYTS_COMPRESS_PMC_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// Poor Man's Compression, PMC-Mean variant (Lazaridis & Mehrotra, ICDE'03;
/// paper §3.2).
///
/// Streams points into an adaptive window while maintaining the running mean.
/// The window stays open as long as the mean lies inside every member's
/// relative allowance interval; when a new point would break that invariant
/// the window *without* the latest point becomes one segment represented by
/// its mean, and the latest point starts the next window.
///
/// Blob layout after the shared header: u32 segment count, then per segment a
/// u16 length, a u8 width flag (kF32/kF64, segment_model.h), then the mean
/// as f32 or f64.
class PmcCompressor : public Compressor {
 public:
  struct Options {
    /// Store segment means as f32 when the rounded value still satisfies the
    /// bound (ModelarDB behaviour, the default). Setting this to false forces
    /// f64 coefficients — used by the storage-width ablation bench.
    bool f32_coefficients = true;
  };

  PmcCompressor() = default;
  explicit PmcCompressor(const Options& options) : options_(options) {}

  std::string_view name() const override { return "PMC"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(
      const std::vector<uint8_t>& blob) const override;

 private:
  Options options_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_PMC_H_

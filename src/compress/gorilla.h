#ifndef LOSSYTS_COMPRESS_GORILLA_H_
#define LOSSYTS_COMPRESS_GORILLA_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// Facebook Gorilla lossless value compression (Pelkonen et al., VLDB'15;
/// paper §3.3 uses it as the lossless baseline).
///
/// Each value is XOR-ed with the previous one; a zero XOR is a single '0'
/// bit, otherwise a control bit selects between reusing the previous
/// leading/trailing-zero window ('10' + meaningful bits) and emitting a new
/// window ('11' + 5-bit leading-zero count + 6-bit length + bits). Following
/// the paper, the whole series is compressed as a single block rather than
/// Gorilla's two-hour blocks.
///
/// Gorilla is lossless, so Compress ignores the error bound (pass 0.0 is
/// allowed) and Decompress reproduces the input bit-exactly.
class GorillaCompressor : public Compressor {
 public:
  std::string_view name() const override { return "GORILLA"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

  /// Decodes only the first min(max_points, total) values and stops reading
  /// the bit stream there — the XOR chain is strictly sequential, so a point
  /// read in the middle of a chunk costs a prefix, not a full decode. The
  /// prefix is bit-identical to the same slice of a full Decompress.
  /// max_points must be >= 1.
  Result<TimeSeries> DecompressPrefix(std::span<const uint8_t> blob,
                                      size_t max_points) const;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_GORILLA_H_

#ifndef LOSSYTS_COMPRESS_CHIMP_H_
#define LOSSYTS_COMPRESS_CHIMP_H_

#include "compress/compressor.h"

namespace lossyts::compress {

/// Chimp lossless floating-point compression (Liakos, Papakonstantinopoulou &
/// Kotidis, VLDB'22) — the modern successor to Gorilla discussed in the
/// paper's related work (§6.2). Implemented here as the base Chimp variant
/// (not Chimp128).
///
/// Like Gorilla, each value is XORed with its predecessor; unlike Gorilla,
/// Chimp spends a 2-bit control on four cases tuned to real time-series
/// traces, rounds leading-zero counts to a 3-bit code, and has a dedicated
/// case for XORs with many trailing zeros:
///   00  xor == 0 (identical value)
///   01  trailing zeros > 6: 3-bit leading code + 6-bit center length + bits
///   10  reuse previous leading-zero count: (64 − leading) bits
///   11  new leading-zero count: 3-bit code + (64 − leading) bits
///
/// Lossless: Compress ignores the error bound and Decompress is bit-exact.
class ChimpCompressor : public Compressor {
 public:
  std::string_view name() const override { return "CHIMP"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double error_bound) const override;
  Result<TimeSeries> Decompress(std::span<const uint8_t> blob) const override;

  /// Decodes only the first min(max_points, total) values; see
  /// GorillaCompressor::DecompressPrefix for the contract.
  Result<TimeSeries> DecompressPrefix(std::span<const uint8_t> blob,
                                      size_t max_points) const;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_CHIMP_H_

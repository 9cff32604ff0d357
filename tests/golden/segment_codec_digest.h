#ifndef LOSSYTS_TESTS_GOLDEN_SEGMENT_CODEC_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_SEGMENT_CODEC_DIGEST_H_

// The PMC and Swing variants pinned by the golden test and printed by its
// generator (segment_codec_golden_gen.cc); see codec_digest.h for what a
// row holds.

#include <string>
#include <vector>

#include "compress/pmc.h"
#include "compress/swing.h"
#include "core/status.h"
#include "golden/codec_digest.h"

namespace lossyts::golden {

/// Codec variants: the default PMC (f32 means when safe), PMC with
/// f32_coefficients = false, and Swing.
inline const std::vector<std::string>& GoldenCodecs() {
  static const std::vector<std::string> kCodecs = {"PMC", "PMC-f64", "SWING"};
  return kCodecs;
}

using SegmentCodecDigest = CodecDigest;

inline Result<SegmentCodecDigest> ComputeDigest(const std::string& family,
                                                double bound,
                                                const std::string& codec) {
  compress::PmcCompressor::Options pmc_options;
  pmc_options.f32_coefficients = codec != "PMC-f64";
  const compress::PmcCompressor pmc(pmc_options);
  const compress::SwingCompressor swing;
  const compress::Compressor& compressor =
      codec == "SWING" ? static_cast<const compress::Compressor&>(swing)
                       : static_cast<const compress::Compressor&>(pmc);

  return DigestCodec(family, bound, codec, compressor);
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_SEGMENT_CODEC_DIGEST_H_

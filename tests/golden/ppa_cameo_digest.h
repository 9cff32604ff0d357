#ifndef LOSSYTS_TESTS_GOLDEN_PPA_CAMEO_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_PPA_CAMEO_DIGEST_H_

// The PPA and CAMEO codecs pinned by ppa_cameo_golden_test.cc and printed by
// its generator (ppa_cameo_golden_gen.cc); see codec_digest.h for what a row
// holds. Besides the corpus rows, one digest per codec folds the six
// evaluation datasets at every paper bound: their long smooth stretches
// reach PPA's segment-length cap and CAMEO's multi-round ACF refinement,
// which the corpus cases barely do.

#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "core/status.h"
#include "golden/codec_digest.h"

namespace lossyts::golden {

/// Codec names as MakeCompressor spells them, default options.
inline const std::vector<std::string>& PpaCameoCodecs() {
  static const std::vector<std::string> kCodecs = {"PPA", "CAMEO"};
  return kCodecs;
}

inline Result<CodecDigest> ComputePpaCameoDigest(const std::string& family,
                                                 double bound,
                                                 const std::string& codec) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(codec);
  if (!compressor.ok()) return compressor.status();
  return DigestCodec(family, bound, codec, **compressor);
}

/// Digest of `codec` over the six datasets at every paper bound.
inline Result<CodecDigest> ComputePpaCameoDatasetDigest(
    const std::string& codec) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(codec);
  if (!compressor.ok()) return compressor.status();
  return DigestDatasets(codec, **compressor, compress::PaperErrorBounds());
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_PPA_CAMEO_DIGEST_H_

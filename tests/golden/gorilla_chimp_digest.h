#ifndef LOSSYTS_TESTS_GOLDEN_GORILLA_CHIMP_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_GORILLA_CHIMP_DIGEST_H_

// The GORILLA and CHIMP codecs pinned by gorilla_chimp_golden_test.cc and
// printed by its generator (gorilla_chimp_golden_gen.cc); see codec_digest.h
// for what a row holds. Both codecs are lossless and ignore the error bound,
// so each corpus family gets one row per codec at bound 0, and the dataset
// row folds each of the six datasets once, as the compression sweep runs
// them.

#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "core/status.h"
#include "golden/codec_digest.h"

namespace lossyts::golden {

/// Codec names as MakeCompressor spells them, default options.
inline const std::vector<std::string>& GorillaChimpCodecs() {
  static const std::vector<std::string> kCodecs = {"GORILLA", "CHIMP"};
  return kCodecs;
}

inline Result<CodecDigest> ComputeGorillaChimpDigest(
    const std::string& family, const std::string& codec) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(codec);
  if (!compressor.ok()) return compressor.status();
  return DigestCodec(family, 0.0, codec, **compressor);
}

/// Digest of `codec` over the six datasets, each once at bound 0.
inline Result<CodecDigest> ComputeGorillaChimpDatasetDigest(
    const std::string& codec) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(codec);
  if (!compressor.ok()) return compressor.status();
  return DigestDatasets(codec, **compressor, {0.0});
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_GORILLA_CHIMP_DIGEST_H_

#ifndef LOSSYTS_TESTS_GOLDEN_SZ_LFZIP_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_SZ_LFZIP_DIGEST_H_

// The SZ and LFZip codecs pinned by sz_lfzip_golden_test.cc and printed by
// its generator (sz_lfzip_golden_gen.cc); see codec_digest.h for what a row
// holds. Both codecs end in the same quantization-symbol entropy stage, so
// these rows pin that stage's bytes as well.

#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "core/status.h"
#include "golden/codec_digest.h"

namespace lossyts::golden {

/// Codec names as MakeCompressor spells them, default options.
inline const std::vector<std::string>& SzLfzipCodecs() {
  static const std::vector<std::string> kCodecs = {"SZ", "LFZIP"};
  return kCodecs;
}

inline Result<CodecDigest> ComputeSzLfzipDigest(const std::string& family,
                                                double bound,
                                                const std::string& codec) {
  Result<std::unique_ptr<compress::Compressor>> compressor =
      compress::MakeCompressor(codec);
  if (!compressor.ok()) return compressor.status();
  return DigestCodec(family, bound, codec, **compressor);
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_SZ_LFZIP_DIGEST_H_

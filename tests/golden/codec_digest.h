#ifndef LOSSYTS_TESTS_GOLDEN_CODEC_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_CODEC_DIGEST_H_

// Deterministic digests of a codec's wire format, shared by the golden tests
// and the generators that print their tables. A row folds the first
// kGoldenCases cases of one conform corpus family, compressed at one bound
// by one codec variant: the total blob size, FNV-1a over the blob bytes, and
// FNV-1a over the bit patterns of the decoded values.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "conform/corpus.h"
#include "core/status.h"

namespace lossyts::golden {

/// Cases per family: indices 0..5 make the "lengths" family cross the u16
/// segment-length cap (65535, 65536, 65537 points).
constexpr int kGoldenCases = 6;
constexpr uint64_t kGoldenBaseSeed = 1;

struct CodecDigest {
  std::string family;
  double bound = 0.0;
  std::string codec;
  uint64_t blob_bytes = 0;
  uint64_t blob_fnv = 0;
  uint64_t decoded_fnv = 0;
};

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

inline uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// Digest of `compressor` over the family's first kGoldenCases cases at
/// `bound`; `codec` only labels the row.
inline Result<CodecDigest> DigestCodec(const std::string& family, double bound,
                                       const std::string& codec,
                                       const compress::Compressor& compressor) {
  CodecDigest digest;
  digest.family = family;
  digest.bound = bound;
  digest.codec = codec;
  digest.blob_fnv = kFnvOffset;
  digest.decoded_fnv = kFnvOffset;
  for (int index = 0; index < kGoldenCases; ++index) {
    Result<conform::CorpusCase> c =
        conform::MakeCorpusCase(family, index, kGoldenBaseSeed);
    if (!c.ok()) return c.status();
    Result<std::vector<uint8_t>> blob = compressor.Compress(c->series, bound);
    if (!blob.ok()) return blob.status();
    Result<TimeSeries> decoded = compressor.Decompress(*blob);
    if (!decoded.ok()) return decoded.status();
    digest.blob_bytes += blob->size();
    digest.blob_fnv = Fnv1a(digest.blob_fnv, blob->data(), blob->size());
    for (double v : decoded->values()) {
      uint8_t bits[sizeof(double)];
      std::memcpy(bits, &v, sizeof(bits));
      digest.decoded_fnv = Fnv1a(digest.decoded_fnv, bits, sizeof(bits));
    }
  }
  return digest;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_CODEC_DIGEST_H_

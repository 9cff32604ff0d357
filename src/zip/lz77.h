#ifndef LOSSYTS_ZIP_LZ77_H_
#define LOSSYTS_ZIP_LZ77_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lossyts::zip {

/// One LZ77 token: either a literal byte or a back-reference.
struct Lz77Token {
  bool is_match = false;
  uint8_t literal = 0;   // Valid when !is_match.
  uint16_t length = 0;   // 3..258, valid when is_match.
  uint16_t distance = 0; // 1..32768, valid when is_match.
};

/// LZ77 tokenizer over a 32 KiB sliding window producing DEFLATE-compatible
/// (length, distance) pairs: 3-byte hashing, up to 128 candidates per search
/// (most recent first), word-at-a-time match extension and zlib-style lazy
/// matching (before emitting a match at p, probe p+1 and prefer a literal
/// plus the longer match; a match of 64 bytes or more is emitted at once).
/// Positions are 32-bit: throws std::length_error for 2^32 bytes or more.
std::vector<Lz77Token> Lz77Tokenize(std::span<const uint8_t> input);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_LZ77_H_

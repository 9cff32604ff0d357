#ifndef LOSSYTS_ZIP_DEFLATE_H_
#define LOSSYTS_ZIP_DEFLATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace lossyts::zip {

/// Compresses `input` into a raw DEFLATE stream (RFC 1951). The encoder emits
/// a single dynamic-Huffman block (or a stored block for inputs under 8 bytes). Throws
/// std::length_error for inputs of 2^32 bytes or more (see Lz77Tokenize).
std::vector<uint8_t> DeflateCompress(std::span<const uint8_t> input);

/// Decompresses a raw DEFLATE stream. Supports stored, fixed-Huffman and
/// dynamic-Huffman blocks. Fails with Corruption on malformed input.
Result<std::vector<uint8_t>> DeflateDecompress(std::span<const uint8_t> input);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_DEFLATE_H_

#ifndef LOSSYTS_COMPRESS_SYMBOL_CODER_H_
#define LOSSYTS_COMPRESS_SYMBOL_CODER_H_

#include <cstdint>
#include <vector>

#include "compress/serde.h"
#include "core/status.h"

namespace lossyts::compress {

/// The entropy stage SZ and LFZip share: a stream of quantization symbols
/// from the alphabet [0, alphabet_size), coded as
///
///   u8 mode
///   mode 0: u32 n_used, n_used × (u32 symbol, u8 code length) in ascending
///           symbol order, u32 payload size, then the canonical Huffman
///           codes (15-bit length limit, DEFLATE bit order);
///   mode 1: one u32 per symbol, when the used symbols cannot fit 15-bit
///           codes.
///
/// Both directions cost time in the symbols, not the alphabet: the encoder
/// builds the code over the used symbols only, in ascending order, which
/// gives exactly the tree, codes and bytes of a build over the full
/// alphabet (DESIGN.md, "The SZ/LFZip symbol coder"), and the decoder builds
/// its table from the pairs.
///
/// `codec` names the caller in every status message ("SZ", "LFZip").
Status WriteSymbols(const std::vector<int>& symbols, const char* codec,
                    ByteWriter& writer);

/// Reads `count` symbols written by WriteSymbols. A symbol at or past
/// `alphabet_size`, a damaged table or a damaged payload is Corruption.
Result<std::vector<int>> ReadSymbols(ByteReader& reader, uint32_t count,
                                     uint32_t alphabet_size,
                                     const char* codec);

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SYMBOL_CODER_H_

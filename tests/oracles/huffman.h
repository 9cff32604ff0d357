#ifndef LOSSYTS_TESTS_ORACLES_HUFFMAN_H_
#define LOSSYTS_TESTS_ORACLES_HUFFMAN_H_

#include <span>

#include "core/status.h"
#include "zip/bitstream.h"

namespace lossyts::oracles {

/// Decodes one symbol of the canonical prefix code that `lengths` describes
/// (lengths[s] is symbol s's code length, 0 for an unused symbol). It builds
/// the codes itself, per RFC 1951 §3.2.2, on every call, and shares nothing
/// with zip::HuffmanDecoder. It reads one bit at a time and returns the
/// symbol whose code the bits read so far spell. No match within the longest
/// length is Corruption; running out of bits first is the reader's
/// OutOfRange.
Result<int> ReferenceHuffmanDecode(std::span<const int> lengths,
                                   zip::BitReader& reader);

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_HUFFMAN_H_

#ifndef LOSSYTS_TESTS_ORACLES_HUFFMAN_H_
#define LOSSYTS_TESTS_ORACLES_HUFFMAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "zip/bitstream.h"

namespace lossyts::oracles {

/// The canonical prefix code that `lengths` describes (lengths[s] is symbol
/// s's code length, 1..15, or 0 for an unused symbol). It builds the codes
/// itself, per RFC 1951 §3.2.2, from the lengths alone, and shares nothing
/// with zip::HuffmanDecoder.
class ReferenceHuffmanCode {
 public:
  explicit ReferenceHuffmanCode(std::span<const int> lengths);

  /// Decodes one symbol: reads one bit at a time and returns the symbol
  /// whose code the bits read so far spell. No match within the longest
  /// length is Corruption; running out of bits first is the reader's
  /// OutOfRange.
  Result<int> Decode(zip::BitReader& reader) const;

 private:
  static constexpr int kMaxBits = 15;
  /// The smallest code of each length (step 2).
  uint32_t next_code_[kMaxBits + 1] = {};
  /// The symbols of each length in ascending order; step 3 gives the k-th
  /// of them the code next_code_[l] + k.
  std::vector<int> symbols_[kMaxBits + 1];
  int max_length_ = 0;
};

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_HUFFMAN_H_

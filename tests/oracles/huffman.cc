#include "oracles/huffman.h"

#include <algorithm>
#include <cstdint>

namespace lossyts::oracles {

Result<int> ReferenceHuffmanDecode(std::span<const int> lengths,
                                   zip::BitReader& reader) {
  constexpr int kMaxBits = 15;
  // Step 1: count the codes of each length.
  uint32_t bl_count[kMaxBits + 1] = {};
  int max_length = 0;
  for (int l : lengths) {
    if (l == 0) continue;
    ++bl_count[l];
    max_length = std::max(max_length, l);
  }
  // Step 2: the smallest code of each length.
  uint32_t next_code[kMaxBits + 1] = {};
  uint32_t code = 0;
  for (int bits = 1; bits <= kMaxBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  // Step 3 assigns consecutive codes of one length in symbol order, so the
  // k-th symbol of length l has code next_code[l] + k.
  uint32_t read = 0;
  for (int l = 1; l <= max_length; ++l) {
    Result<uint32_t> bit = reader.ReadBit();
    if (!bit.ok()) return bit.status();
    read = (read << 1) | *bit;
    if (read < next_code[l] || read - next_code[l] >= bl_count[l]) continue;
    uint32_t k = read - next_code[l];
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] == l && k-- == 0) return static_cast<int>(s);
    }
  }
  return Status::Corruption("invalid Huffman code in stream");
}

}  // namespace lossyts::oracles

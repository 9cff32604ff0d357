#include "oracles/huffman.h"

#include <algorithm>
#include <cstdint>

namespace lossyts::oracles {

ReferenceHuffmanCode::ReferenceHuffmanCode(std::span<const int> lengths) {
  // Step 1: count the codes of each length, keeping each length's symbols
  // in symbol order.
  for (size_t s = 0; s < lengths.size(); ++s) {
    const int l = lengths[s];
    if (l == 0) continue;
    symbols_[l].push_back(static_cast<int>(s));
    max_length_ = std::max(max_length_, l);
  }
  // Step 2: the smallest code of each length (no symbol has length 0).
  uint32_t code = 0;
  for (int bits = 1; bits <= kMaxBits; ++bits) {
    const uint32_t bl_count = static_cast<uint32_t>(symbols_[bits - 1].size());
    code = (code + bl_count) << 1;
    next_code_[bits] = code;
  }
}

Result<int> ReferenceHuffmanCode::Decode(zip::BitReader& reader) const {
  uint32_t read = 0;
  for (int l = 1; l <= max_length_; ++l) {
    Result<uint32_t> bit = reader.ReadBit();
    if (!bit.ok()) return bit.status();
    read = (read << 1) | *bit;
    if (read >= next_code_[l] && read - next_code_[l] < symbols_[l].size()) {
      return symbols_[l][read - next_code_[l]];
    }
  }
  return Status::Corruption("invalid Huffman code in stream");
}

}  // namespace lossyts::oracles

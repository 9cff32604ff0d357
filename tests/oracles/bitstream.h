#ifndef LOSSYTS_TESTS_ORACLES_BITSTREAM_H_
#define LOSSYTS_TESTS_ORACLES_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace lossyts::oracles {

/// The original bit-at-a-time writer, kept verbatim as the executable
/// specification of zip::BitWriter's stream format: differential tests pin
/// BitWriter to it, and the Gorilla/Chimp reference coders write through it.
class ReferenceBitWriter {
 public:
  void WriteBits(uint32_t value, int count);
  void WriteBits64(uint64_t value, int count);
  void WriteBitsMsbFirst(uint64_t value, int count);
  void WriteHuffmanCode(uint32_t code, int length);
  void AlignToByte();
  void WriteByte(uint8_t byte);
  size_t bit_count() const { return bit_count_; }
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> bytes_;
  uint32_t bit_buffer_ = 0;
  int bits_in_buffer_ = 0;
  size_t bit_count_ = 0;
};

/// The original bit-at-a-time reader (see ReferenceBitWriter).
class ReferenceBitReader {
 public:
  explicit ReferenceBitReader(std::span<const uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  Result<uint32_t> ReadBits(int count);
  Result<uint64_t> ReadBits64(int count);
  Result<uint64_t> ReadBitsMsbFirst(int count);
  Result<uint32_t> ReadBit() { return ReadBits(1); }
  void AlignToByte();
  Result<uint8_t> ReadByte();
  size_t BytesConsumed() const { return byte_pos_ + (bit_pos_ > 0 ? 1 : 0); }
  bool AtEnd() const { return byte_pos_ >= size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;  // Bit offset within the current byte, 0..7.
};

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_BITSTREAM_H_

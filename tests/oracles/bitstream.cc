#include "oracles/bitstream.h"

namespace lossyts::oracles {

// The original bit-at-a-time code, unchanged except for the MSB-first
// helpers (which reproduce the loops Gorilla/Chimp carried locally before
// the batched rewrite).

void ReferenceBitWriter::WriteBits(uint32_t value, int count) {
  for (int i = 0; i < count; ++i) {
    bit_buffer_ |= ((value >> i) & 1u) << bits_in_buffer_;
    ++bits_in_buffer_;
    if (bits_in_buffer_ == 8) {
      bytes_.push_back(static_cast<uint8_t>(bit_buffer_));
      bit_buffer_ = 0;
      bits_in_buffer_ = 0;
    }
  }
  bit_count_ += static_cast<size_t>(count);
}

void ReferenceBitWriter::WriteBits64(uint64_t value, int count) {
  for (int i = 0; i < count; ++i) {
    WriteBits(static_cast<uint32_t>((value >> i) & 1u), 1);
  }
}

void ReferenceBitWriter::WriteBitsMsbFirst(uint64_t value, int count) {
  for (int i = count - 1; i >= 0; --i) {
    WriteBits(static_cast<uint32_t>((value >> i) & 1u), 1);
  }
}

void ReferenceBitWriter::WriteHuffmanCode(uint32_t code, int length) {
  uint32_t reversed = 0;
  for (int i = 0; i < length; ++i) {
    reversed = (reversed << 1) | ((code >> i) & 1u);
  }
  WriteBits(reversed, length);
}

void ReferenceBitWriter::AlignToByte() {
  if (bits_in_buffer_ > 0) {
    bit_count_ += static_cast<size_t>(8 - bits_in_buffer_);
    bytes_.push_back(static_cast<uint8_t>(bit_buffer_));
    bit_buffer_ = 0;
    bits_in_buffer_ = 0;
  }
}

void ReferenceBitWriter::WriteByte(uint8_t byte) {
  AlignToByte();
  bytes_.push_back(byte);
  bit_count_ += 8;
}

std::vector<uint8_t> ReferenceBitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

Result<uint32_t> ReferenceBitReader::ReadBits(int count) {
  uint32_t value = 0;
  for (int i = 0; i < count; ++i) {
    if (byte_pos_ >= size_) {
      return Status::OutOfRange("bit stream exhausted");
    }
    const uint32_t bit = (data_[byte_pos_] >> bit_pos_) & 1u;
    value |= bit << i;
    ++bit_pos_;
    if (bit_pos_ == 8) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
  }
  return value;
}

Result<uint64_t> ReferenceBitReader::ReadBits64(int count) {
  uint64_t value = 0;
  for (int i = 0; i < count; ++i) {
    Result<uint32_t> bit = ReadBit();
    if (!bit.ok()) return bit.status();
    value |= static_cast<uint64_t>(*bit) << i;
  }
  return value;
}

Result<uint64_t> ReferenceBitReader::ReadBitsMsbFirst(int count) {
  uint64_t value = 0;
  for (int i = 0; i < count; ++i) {
    Result<uint32_t> bit = ReadBit();
    if (!bit.ok()) return bit.status();
    value = (value << 1) | *bit;
  }
  return value;
}

void ReferenceBitReader::AlignToByte() {
  if (bit_pos_ > 0) {
    bit_pos_ = 0;
    ++byte_pos_;
  }
}

Result<uint8_t> ReferenceBitReader::ReadByte() {
  AlignToByte();
  if (byte_pos_ >= size_) return Status::OutOfRange("bit stream exhausted");
  return data_[byte_pos_++];
}

}  // namespace lossyts::oracles

#include "zip/bitstream.h"

namespace lossyts::zip {

void BitWriter::Grow() {
  // Keep at least 8 slack bytes past used_ so FlushWholeBytes can always
  // store a whole word.
  bytes_.resize(bytes_.size() < 64 ? 64 : bytes_.size() * 2);
}

void BitWriter::Append(uint8_t byte) {
  if (bytes_.size() - used_ < 8) Grow();
  bytes_[used_++] = byte;
}

void BitWriter::AlignToByte() {
  // bits_in_buffer_ is 0..7 here (whole bytes flush on every write).
  if (bits_in_buffer_ > 0) {
    bit_count_ += static_cast<size_t>(8 - bits_in_buffer_);
    Append(static_cast<uint8_t>(bit_buffer_));
    bit_buffer_ = 0;
    bits_in_buffer_ = 0;
  }
}

void BitWriter::WriteByte(uint8_t byte) {
  AlignToByte();
  Append(byte);
  bit_count_ += 8;
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  bytes_.resize(used_);
  return std::move(bytes_);
}

void BitReader::AlignToByte() {
  // The consumed-bit count is 8 * next_byte_ - bits_in_buffer_, so the
  // misalignment within the current byte is bits_in_buffer_ % 8 — exactly
  // the bits to discard, and they are always buffered.
  DropBits(bits_in_buffer_ % 8);
}

Result<uint8_t> BitReader::ReadByte() {
  AlignToByte();
  Refill();
  if (bits_in_buffer_ < 8) {
    Exhaust();
    return Status::OutOfRange("bit stream exhausted");
  }
  const uint8_t byte = static_cast<uint8_t>(bit_buffer_);
  DropBits(8);
  return byte;
}

}  // namespace lossyts::zip

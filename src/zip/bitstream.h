#ifndef LOSSYTS_ZIP_BITSTREAM_H_
#define LOSSYTS_ZIP_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/status.h"

namespace lossyts::zip {

class HuffmanDecoder;

/// Reverses the bit order of a 64-bit word (SWAR mask-shift pairs + byte
/// swap). ReverseBits64(x) >> (64 - n) reverses the low n bits of x for
/// n >= 1 — the bit-reversal DEFLATE needs to emit MSB-first Huffman codes
/// into an LSB-first stream, done a word at a time instead of a bit at a
/// time.
inline uint64_t ReverseBits64(uint64_t x) {
  x = ((x & 0x5555555555555555ull) << 1) | ((x >> 1) & 0x5555555555555555ull);
  x = ((x & 0x3333333333333333ull) << 2) | ((x >> 2) & 0x3333333333333333ull);
  x = ((x & 0x0F0F0F0F0F0F0F0Full) << 4) | ((x >> 4) & 0x0F0F0F0F0F0F0F0Full);
  return __builtin_bswap64(x);
}

/// Reverses the low `count` bits of `x` (count in [0, 64]).
inline uint64_t ReverseBitsN(uint64_t x, int count) {
  if (count == 0) return 0;  // A shift by 64 below would be UB.
  return ReverseBits64(x) >> (64 - count);
}

/// LSB-first bit writer matching the DEFLATE bit packing convention: bits are
/// written into each byte starting from the least-significant bit. Batches
/// output through a 64-bit buffer (whole bytes are flushed per call, so the
/// buffered remainder is always 0..7 bits).
class BitWriter {
 public:
  /// Writes the low `count` bits of `value`, LSB first. count must be <= 32.
  void WriteBits(uint32_t value, int count) {
    // Invariant: bits_in_buffer_ <= 7 on entry, so value (<= 32 bits) lands
    // at shift <= 7 and the buffer tops out at 39 bits — no overflow, no
    // shift >= 64 anywhere in this path.
    bit_buffer_ |= (static_cast<uint64_t>(value) & MaskU64(count))
                   << bits_in_buffer_;
    bits_in_buffer_ += count;
    bit_count_ += static_cast<size_t>(count);
    FlushWholeBytes();
  }

  /// Writes the low `count` bits of `value`, LSB first. count must be <= 64.
  void WriteBits64(uint64_t value, int count) {
    if (count <= 32) {
      WriteBits(static_cast<uint32_t>(value), count);
    } else {
      // Split so each half respects the 32-bit fast path's shift bounds.
      WriteBits(static_cast<uint32_t>(value), 32);
      WriteBits(static_cast<uint32_t>(value >> 32), count - 32);
    }
  }

  /// Writes `count` bits of `value` starting from the most significant of
  /// the selected range (the Gorilla/Chimp convention for meaningful XOR
  /// bits). count must be <= 64. Equivalent to the bit-at-a-time loop
  /// emitting bit count-1 down to bit 0.
  void WriteBitsMsbFirst(uint64_t value, int count) {
    WriteBits64(ReverseBitsN(value, count), count);
  }

  /// Writes a Huffman code of `length` bits. DEFLATE stores Huffman codes
  /// with their most-significant bit first, so the code is bit-reversed
  /// before packing.
  void WriteHuffmanCode(uint32_t code, int length) {
    WriteBits(static_cast<uint32_t>(ReverseBitsN(code, length)), length);
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Appends a raw byte (requires byte alignment for sane output; call
  /// AlignToByte() first when mid-bit).
  void WriteByte(uint8_t byte);

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Finishes the stream (pads to a byte) and returns the bytes.
  std::vector<uint8_t> Finish();

 private:
  static uint64_t MaskU64(int count) {
    return count >= 64 ? ~0ull : (1ull << count) - 1;
  }

  void FlushWholeBytes() {
    const int n = bits_in_buffer_ >> 3;
    if (n == 0) return;
    // One unconditional 8-byte store (bytes_ always keeps >= 8 spare bytes
    // past used_), then advance by the bytes actually completed. The local
    // staging array spells out little-endian order, which compilers on LE
    // targets collapse to a single word store.
    if (bytes_.size() - used_ < 8) Grow();
    uint8_t staged[8];
    for (int i = 0; i < 8; ++i) {
      staged[i] = static_cast<uint8_t>(bit_buffer_ >> (8 * i));
    }
    std::memcpy(bytes_.data() + used_, staged, 8);
    used_ += static_cast<size_t>(n);
    bit_buffer_ >>= n * 8;
    bits_in_buffer_ -= n * 8;
  }

  void Grow();
  void Append(uint8_t byte);

  // bytes_ is managed storage: used_ bytes are live, the rest is slack so
  // FlushWholeBytes can store a whole word. Finish() trims to used_.
  std::vector<uint8_t> bytes_;
  size_t used_ = 0;
  uint64_t bit_buffer_ = 0;
  int bits_in_buffer_ = 0;  // Always 0..7 between public calls.
  size_t bit_count_ = 0;
};

/// LSB-first bit reader, the mirror of BitWriter. Refills a 64-bit buffer a
/// word at a time; every public read consumes from the buffer. A failed read
/// (not enough bits) consumes the entire remainder and reports OutOfRange,
/// matching the original bit-at-a-time reader's end state.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  /// Reads `count` bits (<= 32), LSB first. Fails past end of input.
  Result<uint32_t> ReadBits(int count) {
    Refill();
    if (count > bits_in_buffer_) {
      Exhaust();
      return Status::OutOfRange("bit stream exhausted");
    }
    const uint32_t value =
        static_cast<uint32_t>(bit_buffer_ & MaskU64(count));
    DropBits(count);
    return value;
  }

  /// Reads `count` bits (<= 64), LSB first.
  Result<uint64_t> ReadBits64(int count) {
    if (count <= 32) {
      Result<uint32_t> lo = ReadBits(count);
      if (!lo.ok()) return lo.status();
      return static_cast<uint64_t>(*lo);
    }
    // Two refills keep every internal shift strictly below 64.
    Result<uint32_t> lo = ReadBits(32);
    if (!lo.ok()) return lo.status();
    Result<uint32_t> hi = ReadBits(count - 32);
    if (!hi.ok()) return hi.status();
    return static_cast<uint64_t>(*lo) | (static_cast<uint64_t>(*hi) << 32);
  }

  /// Reads `count` bits (<= 64) where the first stream bit is the result's
  /// most significant — the inverse of BitWriter::WriteBitsMsbFirst.
  Result<uint64_t> ReadBitsMsbFirst(int count) {
    Result<uint64_t> v = ReadBits64(count);
    if (!v.ok()) return v.status();
    return ReverseBitsN(*v, count);
  }

  /// Reads a single bit.
  Result<uint32_t> ReadBit() { return ReadBits(1); }

  /// Returns the next `count` bits (<= 57) without consuming them,
  /// zero-padded when fewer remain. Plumbing for table-driven decodes of
  /// prefix codes (Chimp's flags): the padding is safe because a prefix
  /// code's symbol identity is determined by the true prefix alone.
  uint64_t PeekPadded(int count) const {
    Refill();
    return bit_buffer_ & MaskU64(count);
  }

  /// Consumes `count` bits. Only valid for count <= the bits guaranteed
  /// buffered by a preceding PeekPadded(count).
  void DropBits(int count) const {
    bit_buffer_ >>= count;
    bits_in_buffer_ -= count;
  }

  /// Bits left in the stream.
  size_t RemainingBits() const {
    return static_cast<size_t>(bits_in_buffer_) + 8 * (size_ - next_byte_);
  }

  /// Consumes everything; the terminal state a failed read leaves behind.
  void Exhaust() const {
    next_byte_ = size_;
    bits_in_buffer_ = 0;
    bit_buffer_ = 0;
  }

  /// Discards bits up to the next byte boundary.
  void AlignToByte();

  /// Reads a raw byte; requires prior byte alignment.
  Result<uint8_t> ReadByte();

  /// Number of whole bytes consumed (rounded up when mid-byte).
  size_t BytesConsumed() const {
    const size_t consumed =
        8 * next_byte_ - static_cast<size_t>(bits_in_buffer_);
    return (consumed + 7) / 8;
  }

  bool AtEnd() const { return RemainingBits() == 0; }

 private:
  // HuffmanDecoder::DecodeMany copies the cursor into locals, advances it
  // with RefillCursor, and writes it back once.
  friend class HuffmanDecoder;

  static uint64_t MaskU64(int count) {
    return count >= 64 ? ~0ull : (1ull << count) - 1;
  }

  /// Tops `buffer` up to >= 57 bits (or all that remain of `data`). Buffer
  /// bits at and above `bits` are always zero.
  static void RefillCursor(std::span<const uint8_t> bytes, uint64_t& buffer,
                           int& bits, size_t& next) {
    if (bits > 56) return;
    if (next + 8 <= bytes.size()) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + next, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      word = __builtin_bswap64(word);
#endif
      buffer |= word << bits;  // Shift <= 56.
      const int inserted = (63 - bits) >> 3;  // Whole bytes, 1..8.
      next += static_cast<size_t>(inserted);
      bits += inserted * 8;
    } else {
      while (bits <= 56 && next < bytes.size()) {
        buffer |= static_cast<uint64_t>(bytes[next++]) << bits;
        bits += 8;
      }
    }
  }

  void Refill() const {
    RefillCursor({data_, size_}, bit_buffer_, bits_in_buffer_, next_byte_);
  }

  const uint8_t* data_;
  size_t size_;
  // Reads are logically const (decode helpers take const&-adjacent paths);
  // the cursor trio is the mutable lookahead state.
  mutable uint64_t bit_buffer_ = 0;
  mutable int bits_in_buffer_ = 0;  // Bits buffered and unconsumed, 0..64.
  mutable size_t next_byte_ = 0;    // Next input byte to load.
};

/// The original bit-at-a-time writer, kept verbatim as the executable
/// specification of the stream format: differential tests pin BitWriter to
/// it, and bench/micro_compression uses it as the in-process scalar baseline
/// for the self-relative speedup floors.
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

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_BITSTREAM_H_

#include "zip/bitstream.h"

#include <gtest/gtest.h>

#include <random>

#include "oracles/bitstream.h"

namespace lossyts::zip {
namespace {

TEST(BitstreamTest, WriteReadRoundTrip) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0b11110000, 8);
  writer.WriteBits(1, 1);
  std::vector<uint8_t> bytes = writer.Finish();

  BitReader reader(bytes);
  EXPECT_EQ(*reader.ReadBits(3), 0b101u);
  EXPECT_EQ(*reader.ReadBits(8), 0b11110000u);
  EXPECT_EQ(*reader.ReadBits(1), 1u);
}

TEST(BitstreamTest, LsbFirstPacking) {
  BitWriter writer;
  writer.WriteBits(1, 1);  // Bit 0 of first byte.
  writer.WriteBits(0, 1);
  writer.WriteBits(1, 1);  // Bit 2.
  std::vector<uint8_t> bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b00000101);
}

TEST(BitstreamTest, HuffmanCodeIsBitReversed) {
  // Code 0b10 of length 2 must be emitted MSB-first: 1 then 0.
  BitWriter writer;
  writer.WriteHuffmanCode(0b10, 2);
  std::vector<uint8_t> bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0] & 0b11, 0b01);  // LSB-first stream: first bit = 1.
}

TEST(BitstreamTest, AlignToBytePads) {
  BitWriter writer;
  writer.WriteBits(1, 1);
  writer.AlignToByte();
  writer.WriteByte(0xAB);
  std::vector<uint8_t> bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0xAB);

  BitReader reader(bytes);
  EXPECT_EQ(*reader.ReadBit(), 1u);
  reader.AlignToByte();
  EXPECT_EQ(*reader.ReadByte(), 0xAB);
}

TEST(BitstreamTest, ReadPastEndFails) {
  BitWriter writer;
  writer.WriteBits(0x3, 2);
  std::vector<uint8_t> bytes = writer.Finish();
  BitReader reader(bytes);
  EXPECT_TRUE(reader.ReadBits(8).ok());
  EXPECT_FALSE(reader.ReadBits(8).ok());
}

TEST(BitstreamTest, EmptyReaderFailsImmediately) {
  BitReader reader({});
  EXPECT_FALSE(reader.ReadBit().ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitstreamTest, MultiByteValues) {
  BitWriter writer;
  writer.WriteBits(0xDEAD, 16);
  writer.WriteBits(0xBEEF, 16);
  std::vector<uint8_t> bytes = writer.Finish();
  BitReader reader(bytes);
  EXPECT_EQ(*reader.ReadBits(16), 0xDEADu);
  EXPECT_EQ(*reader.ReadBits(16), 0xBEEFu);
}

TEST(BitstreamTest, BitCountTracksWrites) {
  BitWriter writer;
  writer.WriteBits(0, 5);
  EXPECT_EQ(writer.bit_count(), 5u);
  writer.AlignToByte();
  EXPECT_EQ(writer.bit_count(), 8u);
}

TEST(BitstreamTest, ZeroBitWritesAndReadsAreNoOps) {
  BitWriter writer;
  writer.WriteBits(0xFFFFFFFFu, 0);
  writer.WriteBits64(~0ull, 0);
  writer.WriteBitsMsbFirst(~0ull, 0);
  EXPECT_EQ(writer.bit_count(), 0u);
  writer.WriteBits(1, 1);
  std::vector<uint8_t> bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x01);

  BitReader reader(bytes);
  EXPECT_EQ(*reader.ReadBits(0), 0u);
  EXPECT_EQ(*reader.ReadBits64(0), 0u);
  EXPECT_EQ(*reader.ReadBitsMsbFirst(0), 0u);
  EXPECT_EQ(reader.RemainingBits(), 8u);
  EXPECT_EQ(*reader.ReadBit(), 1u);
  // Zero-bit reads still succeed at (and past) the last data bit.
  EXPECT_EQ(*reader.ReadBits(0), 0u);
}

TEST(BitstreamTest, SixtyFourBitRoundTrip) {
  const uint64_t patterns[] = {0ull, ~0ull, 0x8000000000000001ull,
                               0xAAAAAAAAAAAAAAAAull,
                               0x0123456789ABCDEFull};
  for (const uint64_t p : patterns) {
    BitWriter writer;
    writer.WriteBits(1, 1);  // Force an unaligned start.
    writer.WriteBits64(p, 64);
    writer.WriteBitsMsbFirst(p, 64);
    std::vector<uint8_t> bytes = writer.Finish();
    BitReader reader(bytes);
    EXPECT_EQ(*reader.ReadBit(), 1u);
    EXPECT_EQ(*reader.ReadBits64(64), p);
    EXPECT_EQ(*reader.ReadBitsMsbFirst(64), p);
  }
}

TEST(BitstreamTest, ReverseBitsNMatchesBitLoop) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = static_cast<int>(rng() % 65);
    const uint64_t v =
        count == 64 ? rng() : (rng() & ((1ull << count) - 1ull));
    uint64_t expected = 0;
    for (int i = 0; i < count; ++i) {
      expected = (expected << 1) | ((v >> i) & 1ull);
    }
    EXPECT_EQ(ReverseBitsN(v, count), expected) << "count=" << count;
  }
  EXPECT_EQ(ReverseBitsN(0, 0), 0u);
  EXPECT_EQ(ReverseBits64(1ull), 0x8000000000000000ull);
}

TEST(BitstreamTest, FailedReadExhaustsStream) {
  BitWriter writer;
  writer.WriteBits(0x7, 3);
  std::vector<uint8_t> bytes = writer.Finish();
  BitReader reader(bytes);
  // 8 bits exist (3 data + 5 padding); asking for 9 fails and consumes all.
  EXPECT_FALSE(reader.ReadBits64(9).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.RemainingBits(), 0u);
  EXPECT_FALSE(reader.ReadBit().ok());
}

TEST(BitstreamTest, PeekPaddedAndDropBits) {
  BitWriter writer;
  writer.WriteBits(0b1011, 4);
  std::vector<uint8_t> bytes = writer.Finish();
  BitReader reader(bytes);
  // Peek never consumes and zero-pads past the end.
  EXPECT_EQ(reader.PeekPadded(4) & 0xFu, 0b1011u);
  EXPECT_EQ(reader.PeekPadded(12), static_cast<uint64_t>(0b1011));
  EXPECT_EQ(reader.RemainingBits(), 8u);
  reader.DropBits(4);
  EXPECT_EQ(reader.RemainingBits(), 4u);
  EXPECT_EQ(reader.BytesConsumed(), 1u);  // Mid-byte rounds up.
  reader.Exhaust();
  EXPECT_TRUE(reader.AtEnd());
}

// Differential battery: random op sequences must behave identically on the
// batched classes and the bit-at-a-time reference classes — same bytes, same
// bit counts, same values, same error points.
TEST(BitstreamTest, RandomOpsMatchReferenceWriter) {
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter fast;
    oracles::ReferenceBitWriter ref;
    const int ops = 1 + static_cast<int>(rng() % 60);
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 6) {
        case 0: {
          const int count = static_cast<int>(rng() % 33);
          const uint32_t value = static_cast<uint32_t>(rng());
          const uint32_t masked =
              count == 32 ? value : (value & ((1u << count) - 1u));
          fast.WriteBits(masked, count);
          ref.WriteBits(masked, count);
          break;
        }
        case 1: {
          const int count = static_cast<int>(rng() % 65);
          const uint64_t value = rng();
          const uint64_t masked =
              count == 64 ? value
                          : (count == 0 ? 0 : value & ((1ull << count) - 1));
          fast.WriteBits64(masked, count);
          ref.WriteBits64(masked, count);
          break;
        }
        case 2: {
          const int count = static_cast<int>(rng() % 65);
          const uint64_t value = rng();
          const uint64_t masked =
              count == 64 ? value
                          : (count == 0 ? 0 : value & ((1ull << count) - 1));
          fast.WriteBitsMsbFirst(masked, count);
          ref.WriteBitsMsbFirst(masked, count);
          break;
        }
        case 3: {
          const int length = 1 + static_cast<int>(rng() % 15);
          const uint32_t code =
              static_cast<uint32_t>(rng()) & ((1u << length) - 1u);
          fast.WriteHuffmanCode(code, length);
          ref.WriteHuffmanCode(code, length);
          break;
        }
        case 4:
          fast.AlignToByte();
          ref.AlignToByte();
          break;
        case 5: {
          const uint8_t byte = static_cast<uint8_t>(rng());
          fast.WriteByte(byte);
          ref.WriteByte(byte);
          break;
        }
      }
      ASSERT_EQ(fast.bit_count(), ref.bit_count()) << "trial " << trial;
    }
    EXPECT_EQ(fast.Finish(), ref.Finish()) << "trial " << trial;
  }
}

TEST(BitstreamTest, RandomOpsMatchReferenceReader) {
  std::mt19937_64 rng(98765);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> bytes(rng() % 64);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());

    BitReader fast(bytes);
    oracles::ReferenceBitReader ref(bytes);
    bool dead = false;
    for (int op = 0; op < 80 && !dead; ++op) {
      switch (rng() % 5) {
        case 0: {
          const int count = static_cast<int>(rng() % 33);
          Result<uint32_t> a = fast.ReadBits(count);
          Result<uint32_t> b = ref.ReadBits(count);
          ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << " op " << op;
          if (a.ok()) {
            ASSERT_EQ(*a, *b);
          } else {
            dead = true;  // A failed read leaves the fast reader exhausted.
          }
          break;
        }
        case 1: {
          const int count = static_cast<int>(rng() % 65);
          Result<uint64_t> a = fast.ReadBits64(count);
          Result<uint64_t> b = ref.ReadBits64(count);
          ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << " op " << op;
          if (a.ok()) {
            ASSERT_EQ(*a, *b);
          } else {
            dead = true;
          }
          break;
        }
        case 2: {
          const int count = static_cast<int>(rng() % 65);
          Result<uint64_t> a = fast.ReadBitsMsbFirst(count);
          Result<uint64_t> b = ref.ReadBitsMsbFirst(count);
          ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << " op " << op;
          if (a.ok()) {
            ASSERT_EQ(*a, *b);
          } else {
            dead = true;
          }
          break;
        }
        case 3:
          fast.AlignToByte();
          ref.AlignToByte();
          break;
        case 4: {
          Result<uint8_t> a = fast.ReadByte();
          Result<uint8_t> b = ref.ReadByte();
          ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << " op " << op;
          if (a.ok()) {
            ASSERT_EQ(*a, *b);
          } else {
            dead = true;
          }
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lossyts::zip

#include "zip/crc32.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/crc32.h"

namespace lossyts::zip {
namespace {

uint32_t CrcOfString(const std::string& s) {
  return ComputeCrc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}

TEST(Crc32Test, KnownCheckValue) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(CrcOfString("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(CrcOfString(""), 0u); }

TEST(Crc32Test, SingleByte) {
  // crc32(b"a") as produced by zlib.
  EXPECT_EQ(CrcOfString("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string s = "hello world, this is an incremental test";
  Crc32 inc;
  inc.Update({reinterpret_cast<const uint8_t*>(s.data()), 5});
  inc.Update({reinterpret_cast<const uint8_t*>(s.data()) + 5, s.size() - 5});
  EXPECT_EQ(inc.value(), CrcOfString(s));
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string a = "payload";
  std::string b = a;
  b[3] = static_cast<char>(b[3] ^ 1);
  EXPECT_NE(CrcOfString(a), CrcOfString(b));
}

TEST(Crc32Test, DispatchedKernelMatchesReferenceByteLoop) {
  // Slice-by-8 against the one-table byte loop: every length 0..64 (each
  // 8-byte tail case, with and without full blocks), longer inputs, and each
  // start offset 0..7 so the 8-byte loads are unaligned in every way.
  std::mt19937_64 rng(31337);
  std::vector<size_t> sizes;
  for (size_t size = 0; size <= 64; ++size) sizes.push_back(size);
  for (size_t size : {65u, 777u, 1000u, 4096u, 4099u}) sizes.push_back(size);
  std::vector<uint8_t> buffer(4099 + 8);
  for (auto& b : buffer) b = static_cast<uint8_t>(rng());
  for (size_t size : sizes) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(ComputeCrc32({data, size}),
                oracles::ReferenceCrc32({data, size}))
          << "size " << size << " offset " << offset;
    }
  }
}

}  // namespace
}  // namespace lossyts::zip

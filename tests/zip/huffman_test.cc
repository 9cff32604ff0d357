#include "zip/huffman.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "compress/header.h"
#include "compress/lfzip.h"
#include "compress/serde.h"
#include "compress/sz.h"
#include "core/rng.h"
#include "oracles/huffman.h"

namespace lossyts::zip {
namespace {

// Kraft sum in units of 2^-max; a complete prefix code sums to exactly 1.
double KraftSum(const std::vector<int>& lengths) {
  double sum = 0.0;
  for (int l : lengths) {
    if (l > 0) sum += std::pow(2.0, -l);
  }
  return sum;
}

TEST(HuffmanTest, TwoSymbolsGetOneBitEach) {
  Result<std::vector<int>> lengths = BuildCodeLengths({5, 3}, 15);
  ASSERT_TRUE(lengths.ok());
  EXPECT_EQ((*lengths)[0], 1);
  EXPECT_EQ((*lengths)[1], 1);
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  Result<std::vector<int>> lengths = BuildCodeLengths({0, 9, 0}, 15);
  ASSERT_TRUE(lengths.ok());
  EXPECT_EQ((*lengths)[0], 0);
  EXPECT_EQ((*lengths)[1], 1);
  EXPECT_EQ((*lengths)[2], 0);
}

TEST(HuffmanTest, AllZeroFrequenciesGiveAllZeroLengths) {
  Result<std::vector<int>> lengths = BuildCodeLengths({0, 0, 0}, 15);
  ASSERT_TRUE(lengths.ok());
  for (int l : *lengths) EXPECT_EQ(l, 0);
}

TEST(HuffmanTest, SkewedFrequenciesGiveShorterCodesToFrequentSymbols) {
  Result<std::vector<int>> lengths = BuildCodeLengths({100, 10, 10, 1}, 15);
  ASSERT_TRUE(lengths.ok());
  EXPECT_LE((*lengths)[0], (*lengths)[1]);
  EXPECT_LE((*lengths)[1], (*lengths)[3]);
  EXPECT_NEAR(KraftSum(*lengths), 1.0, 1e-12);
}

TEST(HuffmanTest, LengthLimitIsEnforced) {
  // Fibonacci-like frequencies force deep trees in unlimited Huffman.
  std::vector<uint64_t> freqs;
  uint64_t a = 1;
  uint64_t b = 1;
  for (int i = 0; i < 30; ++i) {
    freqs.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
  ASSERT_TRUE(lengths.ok());
  int max_len = 0;
  for (int l : *lengths) max_len = std::max(max_len, l);
  EXPECT_LE(max_len, 15);
  EXPECT_NEAR(KraftSum(*lengths), 1.0, 1e-12);
}

TEST(HuffmanTest, LengthLimitSeven) {
  std::vector<uint64_t> freqs(19);
  for (size_t i = 0; i < freqs.size(); ++i) freqs[i] = 1ull << i;
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 7);
  ASSERT_TRUE(lengths.ok());
  int max_len = 0;
  for (int l : *lengths) max_len = std::max(max_len, l);
  EXPECT_LE(max_len, 7);
  EXPECT_NEAR(KraftSum(*lengths), 1.0, 1e-12);
}

TEST(HuffmanTest, TooManySymbolsForLimitFails) {
  std::vector<uint64_t> freqs(9, 1);  // 9 symbols cannot fit in 3-bit codes.
  EXPECT_FALSE(BuildCodeLengths(freqs, 3).ok());
}

TEST(HuffmanTest, CanonicalCodesAreIncreasingWithinLength) {
  std::vector<int> lengths = {2, 1, 3, 3};
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  // RFC 1951 example-style: length-1 symbol gets 0, length-2 gets 10,
  // length-3 symbols get 110, 111.
  EXPECT_EQ(codes[1], 0b0u);
  EXPECT_EQ(codes[0], 0b10u);
  EXPECT_EQ(codes[2], 0b110u);
  EXPECT_EQ(codes[3], 0b111u);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  std::vector<uint64_t> freqs = {50, 20, 20, 5, 4, 1};
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
  ASSERT_TRUE(lengths.ok());
  std::vector<uint32_t> codes = CanonicalCodes(*lengths);

  std::vector<int> message = {0, 1, 2, 3, 4, 5, 0, 0, 2, 1, 5, 4, 3};
  BitWriter writer;
  for (int s : message) writer.WriteHuffmanCode(codes[s], (*lengths)[s]);
  std::vector<uint8_t> bytes = writer.Finish();

  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(*lengths).ok());
  BitReader reader(bytes);
  for (int expected : message) {
    Result<int> sym = decoder.Decode(reader);
    ASSERT_TRUE(sym.ok());
    EXPECT_EQ(*sym, expected);
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribedCode) {
  // Three symbols of length 1 oversubscribe a binary prefix code.
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.Init({1, 1, 1}).ok());
}

TEST(HuffmanTest, DecoderRejectsIncompleteCode) {
  // Two symbols of length 2 leave half the code space unused.
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.Init({2, 2}).ok());
}

TEST(HuffmanTest, DecoderAcceptsDegenerateSingleSymbol) {
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init({0, 1, 0}).ok());
  BitWriter writer;
  writer.WriteHuffmanCode(0, 1);
  std::vector<uint8_t> bytes = writer.Finish();
  BitReader reader(bytes);
  Result<int> sym = decoder.Decode(reader);
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(*sym, 1);
}

// LUT decode vs the reference bit walk: identical symbols and identical
// error statuses, including codes long enough to hit the subtables.
TEST(HuffmanTest, LutDecodeMatchesReferenceOnDeepCodes) {
  // Skewed frequencies push the rare symbols past 9 bits (the root width).
  std::vector<uint64_t> freqs(24);
  for (size_t i = 0; i < freqs.size(); ++i) freqs[i] = 1ull << i;
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
  ASSERT_TRUE(lengths.ok());
  int max_len = 0;
  for (int l : *lengths) max_len = std::max(max_len, l);
  ASSERT_GT(max_len, 9) << "corpus must exercise the subtable path";

  std::vector<uint32_t> codes = CanonicalCodes(*lengths);
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(*lengths).ok());

  Rng rng(4242);
  std::vector<int> message;
  for (int i = 0; i < 500; ++i) {
    message.push_back(static_cast<int>(rng.UniformInt(freqs.size())));
  }
  BitWriter writer;
  for (int s : message) writer.WriteHuffmanCode(codes[s], (*lengths)[s]);
  std::vector<uint8_t> bytes = writer.Finish();

  BitReader lut_reader(bytes);
  BitReader ref_reader(bytes);
  for (int expected : message) {
    Result<int> a = decoder.Decode(lut_reader);
    Result<int> b = oracles::ReferenceHuffmanDecode(*lengths, ref_reader);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(*a, expected);
    ASSERT_EQ(*b, expected);
  }
}

TEST(HuffmanTest, LutDecodeMatchesReferenceOnGarbageStreams) {
  // Random bytes decoded with both paths until either errors: symbols must
  // agree while both succeed, and the terminal status kinds must match.
  std::vector<uint64_t> freqs(24);
  for (size_t i = 0; i < freqs.size(); ++i) freqs[i] = 1ull << i;
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
  ASSERT_TRUE(lengths.ok());
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(*lengths).ok());

  Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> bytes(rng.UniformInt(24));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
    BitReader lut_reader(bytes);
    BitReader ref_reader(bytes);
    for (int step = 0; step < 200; ++step) {
      Result<int> a = decoder.Decode(lut_reader);
      Result<int> b = oracles::ReferenceHuffmanDecode(*lengths, ref_reader);
      ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << " step " << step;
      if (!a.ok()) {
        ASSERT_EQ(a.status().code(), b.status().code())
            << "trial " << trial << " step " << step;
        break;
      }
      ASSERT_EQ(*a, *b) << "trial " << trial << " step " << step;
    }
  }
}

TEST(HuffmanTest, TruncatedStreamIsOutOfRangeCorruptPrefixIsCorruption) {
  // {2,2,2,3,3}: a complete code. Use an invalid deep prefix vs truncation.
  std::vector<int> lengths = {2, 2, 2, 3, 3};
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(lengths).ok());
  const std::vector<uint32_t> codes = CanonicalCodes(lengths);

  {
    // One valid symbol, then padding only: the padding decodes as *some*
    // code or fails; drain to the terminal state and require OutOfRange.
    BitWriter writer;
    writer.WriteHuffmanCode(codes[3], 3);
    std::vector<uint8_t> bytes = writer.Finish();
    BitReader reader(bytes);
    Status last = Status::OK();
    for (int i = 0; i < 10; ++i) {
      Result<int> sym = decoder.Decode(reader);
      if (!sym.ok()) {
        last = sym.status();
        break;
      }
    }
    EXPECT_FALSE(last.ok());
    EXPECT_TRUE(reader.AtEnd());
  }
  {
    // Empty stream: immediately OutOfRange on both paths.
    BitReader lut_reader({});
    BitReader ref_reader({});
    Result<int> a = decoder.Decode(lut_reader);
    Result<int> b = oracles::ReferenceHuffmanDecode(lengths, ref_reader);
    ASSERT_FALSE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().code(), b.status().code());
  }
}

TEST(HuffmanTest, InitRejectsOversizedAlphabet) {
  // The LUT packs symbols into 17 bits; 2^17 + 1 lengths must be rejected
  // up front rather than truncated.
  std::vector<int> lengths((1u << 17) + 1, 0);
  lengths[0] = 1;
  lengths[1] = 1;
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.Init(lengths).ok());
}

TEST(HuffmanTest, RandomAlphabetRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.UniformInt(280);
    std::vector<uint64_t> freqs(n);
    for (auto& f : freqs) f = rng.UniformInt(1000);
    // Ensure at least two used symbols.
    freqs[0] += 1;
    freqs[n - 1] += 1;
    Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
    ASSERT_TRUE(lengths.ok());
    std::vector<uint32_t> codes = CanonicalCodes(*lengths);
    HuffmanDecoder decoder;
    ASSERT_TRUE(decoder.Init(*lengths).ok());

    std::vector<int> message;
    for (int i = 0; i < 200; ++i) {
      int s = static_cast<int>(rng.UniformInt(n));
      while ((*lengths)[s] == 0) s = static_cast<int>(rng.UniformInt(n));
      message.push_back(s);
    }
    BitWriter writer;
    for (int s : message) writer.WriteHuffmanCode(codes[s], (*lengths)[s]);
    std::vector<uint8_t> bytes = writer.Finish();
    BitReader reader(bytes);
    for (int expected : message) {
      Result<int> sym = decoder.Decode(reader);
      ASSERT_TRUE(sym.ok());
      ASSERT_EQ(*sym, expected);
    }
  }
}

// Applies (symbol, length) pairs in order to a dense per-symbol array, as a
// reader of SZ's table format would.
std::vector<int> DenseFromPairs(const std::vector<SymbolLength>& pairs,
                                size_t alphabet) {
  std::vector<int> lengths(alphabet, 0);
  for (const SymbolLength& p : pairs) lengths[p.symbol] = p.length;
  return lengths;
}

// Length sets of each code class the table builder must tell apart.
enum class CodeKind { kValid, kOversubscribed, kIncomplete, kSingle, kEmpty,
                      kBadLength };

// Symbol -> length for one random code of `kind` over `alphabet` symbols.
std::vector<SymbolLength> RandomCode(CodeKind kind, size_t alphabet,
                                     Rng& rng) {
  std::vector<SymbolLength> code;
  if (kind == CodeKind::kEmpty) return code;
  if (kind == CodeKind::kSingle) {
    code.push_back({static_cast<uint32_t>(rng.UniformInt(alphabet)),
                    1 + static_cast<int>(rng.UniformInt(15))});
    return code;
  }
  // Distinct symbols, clustered around the middle of the alphabet the way
  // quantization codes are.
  const size_t used = std::min<size_t>(alphabet, 3 + rng.UniformInt(400));
  const size_t lo = (alphabet - used) / 2 - std::min((alphabet - used) / 2,
                                                     rng.UniformInt(64));
  std::vector<uint64_t> freqs;
  for (size_t k = 0; k < used; ++k) {
    freqs.push_back(1 + (rng.UniformInt(4) == 0 ? rng.UniformInt(5000)
                                                : rng.UniformInt(20)));
  }
  Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
  EXPECT_TRUE(lengths.ok());
  for (size_t k = 0; k < used; ++k) {
    code.push_back({static_cast<uint32_t>(lo + k), (*lengths)[k]});
  }
  size_t victim = rng.UniformInt(code.size());
  if (kind == CodeKind::kOversubscribed) {
    // Shortening a longest code (>= 2 bits in a complete code of >= 3
    // symbols) pushes the Kraft sum past 1.
    victim = static_cast<size_t>(
        std::max_element(code.begin(), code.end(),
                         [](const SymbolLength& a, const SymbolLength& b) {
                           return a.length < b.length;
                         }) -
        code.begin());
    code[victim].length -= 1;
  } else if (kind == CodeKind::kIncomplete) {
    code.erase(code.begin() + static_cast<std::ptrdiff_t>(victim));
  } else if (kind == CodeKind::kBadLength) {
    code[victim].length = 16 + static_cast<int>(rng.UniformInt(240));
  }
  return code;
}

// The code's pairs in a random order, with decoy pairs for some symbols
// placed before the pair that overrides them and zero-length pairs for
// unused symbols mixed in.
std::vector<SymbolLength> ScrambledPairs(const std::vector<SymbolLength>& code,
                                         size_t alphabet, Rng& rng) {
  std::vector<std::pair<double, SymbolLength>> keyed;
  std::vector<bool> in_code(alphabet, false);
  for (const SymbolLength& p : code) {
    in_code[p.symbol] = true;
    const double key = rng.Uniform();
    keyed.push_back({key, p});
    if (rng.UniformInt(3) == 0) {
      // A decoy any length a u8 field can carry, overridden later.
      keyed.push_back({key * rng.Uniform(),
                       {p.symbol, static_cast<int>(rng.UniformInt(256))}});
    }
  }
  for (int extra = static_cast<int>(rng.UniformInt(8)); extra > 0; --extra) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(alphabet));
    if (!in_code[s]) keyed.push_back({rng.Uniform(), {s, 0}});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<SymbolLength> pairs;
  for (const auto& [key, p] : keyed) pairs.push_back(p);
  return pairs;
}

// Differential check of the pair-based table build: over random codes of
// every class, given as scrambled pairs, it must give the dense build's
// status and decode every stream to the dense build's symbols and statuses,
// and both must agree with the reference bit walk.
TEST(HuffmanTest, PairBuildMatchesDenseBuild) {
  Rng rng(2024);
  const CodeKind kKinds[] = {CodeKind::kValid, CodeKind::kOversubscribed,
                             CodeKind::kIncomplete, CodeKind::kSingle,
                             CodeKind::kEmpty, CodeKind::kBadLength};
  int valid_codes = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const CodeKind kind = kKinds[trial % 6];
    const size_t alphabet = trial % 4 == 0 ? 65537 : 2 + rng.UniformInt(600);
    const std::vector<SymbolLength> code = RandomCode(kind, alphabet, rng);
    const std::vector<SymbolLength> pairs = ScrambledPairs(code, alphabet, rng);
    const std::vector<int> dense_lengths = DenseFromPairs(pairs, alphabet);
    ASSERT_EQ(dense_lengths, DenseFromPairs(code, alphabet));

    HuffmanDecoder dense;
    HuffmanDecoder sparse;
    const Status a = dense.Init(dense_lengths);
    const Status b = sparse.Init(pairs, alphabet);
    ASSERT_EQ(a.ToString(), b.ToString()) << "trial " << trial;
    if (kind == CodeKind::kValid || kind == CodeKind::kSingle) {
      ASSERT_TRUE(a.ok()) << "trial " << trial << ": " << a.ToString();
    } else {
      ASSERT_FALSE(a.ok()) << "trial " << trial;
    }
    if (!a.ok()) continue;
    ++valid_codes;

    // A message coded with the canonical codes decodes back exactly.
    const std::vector<uint32_t> codes = CanonicalCodes(dense_lengths);
    std::vector<int> message;
    BitWriter writer;
    for (int i = 0; i < 300; ++i) {
      const SymbolLength& p = code[rng.UniformInt(code.size())];
      message.push_back(static_cast<int>(p.symbol));
      writer.WriteHuffmanCode(codes[p.symbol], p.length);
    }
    const std::vector<uint8_t> bytes = writer.Finish();
    BitReader reader(bytes);
    for (int expected : message) {
      Result<int> sym = sparse.Decode(reader);
      ASSERT_TRUE(sym.ok()) << "trial " << trial;
      ASSERT_EQ(*sym, expected) << "trial " << trial;
    }

    // Garbage: the two builds and the bit walk agree step by step.
    for (int g = 0; g < 4; ++g) {
      std::vector<uint8_t> garbage(rng.UniformInt(48));
      for (auto& byte : garbage) byte = static_cast<uint8_t>(rng.UniformInt(256));
      BitReader r_dense(garbage);
      BitReader r_sparse(garbage);
      BitReader r_ref(garbage);
      for (int step = 0; step < 400; ++step) {
        Result<int> x = dense.Decode(r_dense);
        Result<int> y = sparse.Decode(r_sparse);
        Result<int> z = oracles::ReferenceHuffmanDecode(dense_lengths, r_ref);
        ASSERT_EQ(x.ok(), y.ok()) << "trial " << trial << " step " << step;
        ASSERT_EQ(x.ok(), z.ok()) << "trial " << trial << " step " << step;
        if (!x.ok()) {
          ASSERT_EQ(x.status().code(), y.status().code());
          ASSERT_EQ(x.status().code(), z.status().code());
          break;
        }
        ASSERT_EQ(*x, *y) << "trial " << trial << " step " << step;
        ASSERT_EQ(*x, *z) << "trial " << trial << " step " << step;
      }
    }
  }
  EXPECT_GE(valid_codes, 150);
}

TEST(HuffmanTest, PairBuildRejectsSymbolPastAlphabetAndLongLengths) {
  HuffmanDecoder decoder;
  Status s = decoder.Init({{0, 1}, {3, 1}}, 3);
  EXPECT_EQ(s.ToString(), "Corruption: Huffman symbol out of range");
  s = decoder.Init({{0, 1}, {1, 16}}, 3);
  EXPECT_EQ(s.ToString(), "Corruption: invalid Huffman code length");
  // The last pair for a symbol decides, so an overridden bad length is fine.
  EXPECT_TRUE(decoder.Init({{1, 16}, {0, 1}, {1, 1}}, 3).ok());
  EXPECT_EQ(decoder.Init({}, 3).ToString(),
            "Corruption: empty Huffman alphabet");
  EXPECT_EQ(decoder.Init({{0, 1}, {1, 1}}, (1u << 17) + 1).code(),
            StatusCode::kInvalidArgument);
}

// What one decode path did with a stream: the symbols it produced before
// stopping, its terminal status, and where it left the reader.
struct DecodeTrace {
  std::vector<int> symbols;
  std::string status = "OK";
  size_t remaining_bits = 0;
  size_t bytes_consumed = 0;

  bool operator==(const DecodeTrace& o) const {
    return symbols == o.symbols && status == o.status &&
           remaining_bits == o.remaining_bits &&
           bytes_consumed == o.bytes_consumed;
  }
};

enum class DecodePath { kDecode, kReference, kMany, kManyPieces };

// Decodes up to `count` symbols of `bytes` along `path`, stopping at the
// first failure; kReference decodes with the oracle over `lengths`, the
// code `decoder` was built from. kManyPieces splits the count into
// random-sized DecodeMany calls; the many paths also check that nothing past
// the failing symbol was written.
DecodeTrace TraceDecode(const HuffmanDecoder& decoder,
                        const std::vector<int>& lengths,
                        const std::vector<uint8_t>& bytes, size_t count,
                        DecodePath path, Rng& rng) {
  DecodeTrace trace;
  BitReader reader(bytes);
  if (path == DecodePath::kDecode || path == DecodePath::kReference) {
    for (size_t i = 0; i < count; ++i) {
      Result<int> sym = path == DecodePath::kDecode
                            ? decoder.Decode(reader)
                            : oracles::ReferenceHuffmanDecode(lengths, reader);
      if (!sym.ok()) {
        trace.status = sym.status().ToString();
        break;
      }
      trace.symbols.push_back(*sym);
    }
  } else {
    std::vector<int> out(count, -1);
    size_t pos = 0;
    while (pos < count) {
      const size_t piece = path == DecodePath::kMany
                               ? count
                               : std::min(count - pos, 1 + rng.UniformInt(40));
      const Status s = decoder.DecodeMany(reader, out.data() + pos, piece);
      if (!s.ok()) {
        trace.status = s.ToString();
        break;
      }
      pos += piece;
    }
    const size_t decoded = static_cast<size_t>(
        std::find(out.begin(), out.end(), -1) - out.begin());
    trace.symbols.assign(out.begin(), out.begin() + decoded);
    for (size_t i = decoded; i < count; ++i) EXPECT_EQ(out[i], -1) << i;
  }
  trace.remaining_bits = reader.RemainingBits();
  trace.bytes_consumed = reader.BytesConsumed();
  return trace;
}

// Differential check of the batched decode: over seeded random codes (every
// length 1..15, single-symbol codes, SZ's 65,537-symbol alphabet with its
// escape symbol) and over clean, truncated, bit-flipped and random streams,
// DecodeMany (whole or in pieces), repeated Decode and the oracle give
// the same symbols, the same status code and message, and leave the reader
// at the same RemainingBits and BytesConsumed.
TEST(HuffmanTest, DecodeManyMatchesDecodeAndReference) {
  Rng rng(1919);
  bool saw_length[16] = {};
  int failures = 0;
  for (int trial = 0; trial < 400; ++trial) {
    size_t alphabet = 0;
    std::vector<SymbolLength> code;
    switch (trial % 4) {
      case 0:  // Random skewed code.
        alphabet = 2 + rng.UniformInt(600);
        code = RandomCode(CodeKind::kValid, alphabet, rng);
        break;
      case 1:  // One symbol, any length.
        alphabet = 1 + rng.UniformInt(300);
        code = RandomCode(CodeKind::kSingle, alphabet, rng);
        break;
      case 2: {  // Doubling frequencies reach the 15-bit limit.
        const size_t used = 16 + rng.UniformInt(16);
        alphabet = used;
        std::vector<uint64_t> freqs(used);
        for (size_t i = 0; i < used; ++i) {
          freqs[i] = (uint64_t{1} << i) + rng.UniformInt(3);
        }
        Result<std::vector<int>> lengths = BuildCodeLengths(freqs, 15);
        ASSERT_TRUE(lengths.ok());
        for (size_t i = 0; i < used; ++i) {
          code.push_back({static_cast<uint32_t>(i), (*lengths)[i]});
        }
        break;
      }
      default:  // SZ's alphabet; the rarest symbol becomes the escape.
        alphabet = 65537;
        code = RandomCode(CodeKind::kValid, alphabet, rng);
        std::max_element(code.begin(), code.end(),
                         [](const SymbolLength& a, const SymbolLength& b) {
                           return a.length < b.length;
                         })
            ->symbol = 65536;
        break;
    }
    HuffmanDecoder decoder;
    ASSERT_TRUE(decoder.Init(code, alphabet).ok()) << "trial " << trial;
    for (const SymbolLength& p : code) saw_length[p.length] = true;

    const std::vector<int> lengths = DenseFromPairs(code, alphabet);
    const std::vector<uint32_t> codes = CanonicalCodes(lengths);
    const size_t message_size = rng.UniformInt(300);
    BitWriter writer;
    for (size_t i = 0; i < message_size; ++i) {
      const SymbolLength& p = code[rng.UniformInt(code.size())];
      writer.WriteHuffmanCode(codes[p.symbol], p.length);
    }
    std::vector<uint8_t> clean = writer.Finish();
    std::vector<uint8_t> truncated = clean;
    truncated.resize(rng.UniformInt(clean.size() + 1));
    std::vector<uint8_t> flipped = clean;
    if (!flipped.empty()) {
      flipped[rng.UniformInt(flipped.size())] ^=
          static_cast<uint8_t>(1 + rng.UniformInt(255));
    }
    std::vector<uint8_t> garbage(rng.UniformInt(64));
    for (auto& byte : garbage) byte = static_cast<uint8_t>(rng.UniformInt(256));

    for (const std::vector<uint8_t>* bytes :
         {&clean, &truncated, &flipped, &garbage}) {
      // Past the message, so every stream ends in a failure.
      const size_t count = message_size + 1 + rng.UniformInt(20);
      const DecodeTrace expected = TraceDecode(decoder, lengths, *bytes, count,
                                               DecodePath::kReference, rng);
      if (expected.status != "OK") ++failures;
      for (DecodePath path : {DecodePath::kDecode, DecodePath::kMany,
                              DecodePath::kManyPieces}) {
        const DecodeTrace got =
            TraceDecode(decoder, lengths, *bytes, count, path, rng);
        ASSERT_TRUE(got == expected)
            << "trial " << trial << " path " << static_cast<int>(path)
            << ": " << got.status << " after " << got.symbols.size()
            << " symbols, want " << expected.status << " after "
            << expected.symbols.size();
      }
    }
  }
  for (int l = 1; l <= 15; ++l) EXPECT_TRUE(saw_length[l]) << "length " << l;
  EXPECT_GT(failures, 400);
}

// SZ and LFZip carry their Huffman table as (u32 symbol, u8 length) pairs.
// Each mutant below damages that table in one way; the decode status (or,
// for a table that still decodes, whether the values stay the same) is pinned
// to what the dense per-symbol table gave, so any table builder must resolve
// pairs exactly that way.

// Byte offset of the entropy stage's mode byte in an SZ or LFZip blob.
size_t EntropyStageOffset(const std::vector<uint8_t>& blob,
                          compress::AlgorithmId id) {
  compress::ByteReader reader(blob);
  Result<compress::BlobHeader> header = compress::ReadHeader(reader, id);
  EXPECT_TRUE(header.ok());
  EXPECT_TRUE(reader.GetU32().ok());  // Non-zero count.
  EXPECT_TRUE(reader.Skip(header->num_points).ok());  // Class stream.
  Result<uint32_t> n_blocks = reader.GetU32();
  EXPECT_TRUE(n_blocks.ok());
  for (uint32_t b = 0; b < *n_blocks; ++b) {
    if (id == compress::AlgorithmId::kLfzip) {
      EXPECT_TRUE(reader.Skip(4).ok());  // f32 step.
      continue;
    }
    Result<uint8_t> predictor = reader.GetU8();
    EXPECT_TRUE(predictor.ok());
    // f32 bound, then the mean (predictor 1) or the line (predictor 2).
    EXPECT_TRUE(reader.Skip(4 + 8 * static_cast<size_t>(*predictor)).ok());
  }
  return reader.position();
}

struct TablePair {
  uint32_t symbol;
  uint8_t length;
};

// Rewrites the mode-0 table at `offset` as `pairs`, keeping the payload.
std::vector<uint8_t> WithTable(const std::vector<uint8_t>& blob, size_t offset,
                               const std::vector<TablePair>& pairs) {
  compress::ByteReader reader({blob.data() + offset + 1,
                               blob.size() - offset - 1});
  const uint32_t n_used = *reader.GetU32();
  const size_t tail = offset + 5 + 5 * static_cast<size_t>(n_used);
  compress::ByteWriter writer;
  writer.PutBytes(std::vector<uint8_t>(blob.begin(), blob.begin() + offset));
  writer.PutU8(0);
  writer.PutU32(static_cast<uint32_t>(pairs.size()));
  for (const TablePair& p : pairs) {
    writer.PutU32(p.symbol);
    writer.PutU8(p.length);
  }
  writer.PutBytes(std::vector<uint8_t>(blob.begin() + tail, blob.end()));
  return writer.Finish();
}

std::vector<TablePair> ReadTable(const std::vector<uint8_t>& blob,
                                 size_t offset) {
  compress::ByteReader reader({blob.data() + offset, blob.size() - offset});
  EXPECT_EQ(*reader.GetU8(), 0) << "mutants need a Huffman-mode blob";
  const uint32_t n_used = *reader.GetU32();
  std::vector<TablePair> pairs;
  for (uint32_t k = 0; k < n_used; ++k) {
    const uint32_t symbol = *reader.GetU32();
    pairs.push_back({symbol, *reader.GetU8()});
  }
  return pairs;
}

struct TableMutant {
  const char* name;
  const char* sz;     // Pinned outcome for SZ.
  const char* lfzip;  // Pinned outcome for LFZip.
};

// "OK same" when the decoded values are the original ones, "OK <FNV-1a of
// the value bits>" when the table decodes to other values, else the status.
std::string DecodeOutcome(const compress::Compressor& codec,
                          const std::vector<uint8_t>& blob,
                          const std::vector<double>& original) {
  Result<TimeSeries> out = codec.Decompress(blob);
  if (!out.ok()) return out.status().ToString();
  if (out->values() == original) return "OK same";
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (double v : out->values()) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  char text[32];
  std::snprintf(text, sizeof(text), "OK %016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

std::vector<TablePair> MutateTable(const std::string& name,
                                   std::vector<TablePair> pairs,
                                   uint32_t alphabet) {
  if (name == "duplicate-same") {
    pairs.insert(pairs.begin() + 1, pairs[0]);
  } else if (name == "duplicate-later-wins") {
    // A bad length first, then the symbol's true length: the last wins.
    std::vector<TablePair> out = {{pairs[1].symbol, 16}};
    out.insert(out.end(), pairs.begin(), pairs.end());
    pairs = out;
  } else if (name == "duplicate-breaks-code") {
    pairs.push_back({pairs[0].symbol, static_cast<uint8_t>(pairs[0].length + 1)});
  } else if (name == "descending") {
    std::reverse(pairs.begin(), pairs.end());
  } else if (name == "swap-symbols") {
    // The shortest and the longest code trade symbols: the table stays a
    // complete code, so the stream decodes, to different values.
    const auto by_length = [](const TablePair& a, const TablePair& b) {
      return a.length < b.length;
    };
    std::swap(std::min_element(pairs.begin(), pairs.end(), by_length)->symbol,
              std::max_element(pairs.begin(), pairs.end(), by_length)->symbol);
  } else if (name == "zero-length") {
    pairs[0].length = 0;
  } else if (name == "zero-length-extra") {
    pairs.push_back({pairs.back().symbol == 0 ? 1u : 0u, 0});
  } else if (name == "length-16") {
    pairs[0].length = 16;
  } else if (name == "length-255") {
    pairs.back().length = 255;
  } else if (name == "symbol-past-alphabet") {
    pairs[0].symbol = alphabet;
  } else if (name == "symbol-far-past-alphabet") {
    pairs.back().symbol = 0xFFFFFFFFu;
  } else if (name == "empty") {
    pairs.clear();
  } else if (name == "single-symbol") {
    pairs.resize(1);
    pairs[0].length = 1;
  }
  return pairs;
}

TEST(SymbolTableMutantTest, StatusesMatchTheDenseTable) {
  // clang-format off
  const TableMutant kMutants[] = {
      {"duplicate-same", "OK same", "OK same"},
      {"duplicate-later-wins", "OK same", "OK same"},
      {"duplicate-breaks-code", "Corruption: incomplete Huffman code",
       "Corruption: incomplete Huffman code"},
      {"descending", "OK same", "OK same"},
      {"swap-symbols", "OK fc0bd96513278f94", "OK 5416e12929ebf30d"},
      {"zero-length", "Corruption: incomplete Huffman code",
       "Corruption: incomplete Huffman code"},
      {"zero-length-extra", "OK same", "OK same"},
      {"length-16", "Corruption: invalid Huffman code length",
       "Corruption: invalid Huffman code length"},
      {"length-255", "Corruption: invalid Huffman code length",
       "Corruption: invalid Huffman code length"},
      {"symbol-past-alphabet", "Corruption: SZ Huffman symbol out of range",
       "Corruption: LFZip Huffman symbol out of range"},
      {"symbol-far-past-alphabet",
       "Corruption: SZ Huffman symbol out of range",
       "Corruption: LFZip Huffman symbol out of range"},
      {"empty", "Corruption: empty Huffman alphabet",
       "Corruption: empty Huffman alphabet"},
      {"single-symbol", "Corruption: invalid Huffman code in stream",
       "Corruption: invalid Huffman code in stream"},
  };
  // clang-format on
  Rng rng(31);
  std::vector<double> v(1024);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 20.0 + 5.0 * std::sin(static_cast<double>(i) * 0.05) +
           0.2 * rng.Normal();
  }
  const TimeSeries series(0, 60, v);
  const compress::SzCompressor sz;
  const compress::LfzipCompressor lfzip;
  const uint32_t alphabet = 2 * 32768 + 1;
  for (const TableMutant& m : kMutants) {
    for (const bool is_sz : {true, false}) {
      const compress::Compressor& codec =
          is_sz ? static_cast<const compress::Compressor&>(sz)
                : static_cast<const compress::Compressor&>(lfzip);
      Result<std::vector<uint8_t>> blob = codec.Compress(series, 0.05);
      ASSERT_TRUE(blob.ok());
      Result<TimeSeries> original = codec.Decompress(*blob);
      ASSERT_TRUE(original.ok());
      const size_t offset = EntropyStageOffset(
          *blob,
          is_sz ? compress::AlgorithmId::kSz : compress::AlgorithmId::kLfzip);
      const std::vector<TablePair> pairs = ReadTable(*blob, offset);
      ASSERT_GE(pairs.size(), 3u);
      const std::vector<uint8_t> mutant =
          WithTable(*blob, offset, MutateTable(m.name, pairs, alphabet));
      EXPECT_EQ(DecodeOutcome(codec, mutant, original->values()),
                is_sz ? m.sz : m.lfzip)
          << m.name << (is_sz ? " SZ" : " LFZip");
    }
  }
}

}  // namespace
}  // namespace lossyts::zip

#include "zip/lz77.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "compress/pipeline.h"
#include "core/rng.h"
#include "data/datasets.h"
#include "golden/gzip_digest.h"

namespace lossyts::zip {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// Reconstructs the input from tokens; the fundamental LZ77 invariant.
std::vector<uint8_t> Reconstruct(const std::vector<Lz77Token>& tokens) {
  std::vector<uint8_t> out;
  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      const size_t start = out.size() - t.distance;
      for (int k = 0; k < t.length; ++k) out.push_back(out[start + k]);
    } else {
      out.push_back(t.literal);
    }
  }
  return out;
}

TEST(Lz77Test, EmptyInputGivesNoTokens) {
  EXPECT_TRUE(Lz77Tokenize({}).empty());
}

// Positions are 32-bit, so a 2^32-byte input is refused before any byte is
// read (the one byte here is never touched).
TEST(Lz77Test, InputOf2To32BytesThrows) {
  const uint8_t byte = 0;
  EXPECT_THROW(Lz77Tokenize({&byte, size_t{1} << 32}), std::length_error);
}

TEST(Lz77Test, ShortInputIsAllLiterals) {
  std::vector<uint8_t> data = Bytes("ab");
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_FALSE(tokens[0].is_match);
  EXPECT_FALSE(tokens[1].is_match);
}

TEST(Lz77Test, RepetitionProducesMatches) {
  std::vector<uint8_t> data = Bytes("abcabcabcabcabcabc");
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  bool has_match = false;
  for (const Lz77Token& t : tokens) has_match |= t.is_match;
  EXPECT_TRUE(has_match);
  EXPECT_LT(tokens.size(), data.size());
  EXPECT_EQ(Reconstruct(tokens), data);
}

TEST(Lz77Test, OverlappingMatchReconstructs) {
  // "aaaa..." forces distance-1 overlapping copies.
  std::vector<uint8_t> data(100, 'a');
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  EXPECT_EQ(Reconstruct(tokens), data);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_TRUE(tokens[1].is_match);
  EXPECT_EQ(tokens[1].distance, 1);
}

TEST(Lz77Test, MatchFieldsWithinDeflateLimits) {
  Rng rng(3);
  std::vector<uint8_t> data;
  for (int i = 0; i < 50000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.UniformInt(4)));
  }
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      EXPECT_GE(t.length, 3);
      EXPECT_LE(t.length, 258);
      EXPECT_GE(t.distance, 1);
      EXPECT_LE(t.distance, 32768);
    }
  }
  EXPECT_EQ(Reconstruct(tokens), data);
}

TEST(Lz77Test, RandomBytesReconstruct) {
  Rng rng(11);
  std::vector<uint8_t> data;
  for (int i = 0; i < 10000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.UniformInt(256)));
  }
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  EXPECT_EQ(Reconstruct(tokens), data);
}

TEST(Lz77Test, TextCompressesWell) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  std::vector<uint8_t> data = Bytes(text);
  std::vector<Lz77Token> tokens = Lz77Tokenize({data.data(), data.size()});
  EXPECT_LT(tokens.size(), data.size() / 5);
  EXPECT_EQ(Reconstruct(tokens), data);
}

// The hash-chain matcher Lz77Tokenize replaced, kept as its spec: head/prev
// chains updated as the parse advances, with every position a match covers
// inserted before the next search. Lz77Tokenize must return the same tokens.
// max_chain is a parameter only so a test can show that an input reaches the
// 128-candidate cap.
std::vector<Lz77Token> ReferenceTokenize(const uint8_t* data, size_t size,
                                         int max_chain = 128) {
  constexpr size_t kWindow = 32768;
  constexpr size_t kMinMatch = 3;
  constexpr size_t kMaxMatch = 258;
  constexpr size_t kGood = 64;
  constexpr int kHashBits = 15;
  const auto hash3 = [](const uint8_t* p) {
    const uint32_t v = static_cast<uint32_t>(p[0]) |
                       (static_cast<uint32_t>(p[1]) << 8) |
                       (static_cast<uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  std::vector<int64_t> prev(size, -1);
  const auto insert = [&](size_t pos) {
    if (pos + kMinMatch > size) return;
    const uint32_t h = hash3(data + pos);
    prev[pos] = head[h];
    head[h] = static_cast<int64_t>(pos);
  };
  const auto find_match = [&](size_t pos, size_t* distance) -> size_t {
    if (pos + kMinMatch > size) return 0;
    size_t best_len = 0;
    const size_t limit = std::min(kMaxMatch, size - pos);
    int chain = max_chain;
    for (int64_t c = head[hash3(data + pos)];
         c >= 0 && chain-- > 0 && pos - static_cast<size_t>(c) <= kWindow;
         c = prev[c]) {
      const uint8_t* a = data + pos;
      const uint8_t* b = data + c;
      if (best_len != 0 && b[best_len] != a[best_len]) continue;
      size_t len = 0;
      while (len < limit && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        *distance = pos - static_cast<size_t>(c);
        if (len >= kGood || len >= limit) break;
      }
    }
    insert(pos);
    return best_len >= kMinMatch ? best_len : 0;
  };

  std::vector<Lz77Token> tokens;
  const auto literal = [&](size_t pos) {
    Lz77Token t;
    t.literal = data[pos];
    tokens.push_back(t);
  };
  const auto match = [&](size_t len, size_t dist) {
    Lz77Token t;
    t.is_match = true;
    t.length = static_cast<uint16_t>(len);
    t.distance = static_cast<uint16_t>(dist);
    tokens.push_back(t);
  };
  size_t pos = 0;
  size_t held_len = 0;
  size_t held_dist = 0;
  bool holding = false;
  while (pos < size) {
    size_t dist = 0;
    const size_t len = find_match(pos, &dist);
    if (holding) {
      if (len > held_len) {
        literal(pos - 1);
        held_len = len;
        held_dist = dist;
        ++pos;
      } else {
        match(held_len, held_dist);
        const size_t end = pos - 1 + held_len;
        for (size_t k = pos + 1; k < end; ++k) insert(k);
        pos = end;
        holding = false;
      }
      continue;
    }
    if (len == 0) {
      literal(pos);
      ++pos;
    } else if (len >= kGood) {
      match(len, dist);
      for (size_t k = pos + 1; k < pos + len; ++k) insert(k);
      pos += len;
    } else {
      held_len = len;
      held_dist = dist;
      holding = true;
      ++pos;
    }
  }
  if (holding) match(held_len, held_dist);
  return tokens;
}

// Index of the first token where a and b differ, or -1 when they are equal.
long FirstDifference(const std::vector<Lz77Token>& a,
                     const std::vector<Lz77Token>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].is_match != b[i].is_match || a[i].literal != b[i].literal ||
        a[i].length != b[i].length || a[i].distance != b[i].distance) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

void ExpectMatchesReference(const std::vector<uint8_t>& data) {
  EXPECT_EQ(FirstDifference(Lz77Tokenize({data.data(), data.size()}),
                            ReferenceTokenize(data.data(), data.size())),
            -1);
}

TEST(Lz77SpecTest, MatchesHashChainMatcherOnSyntheticInputs) {
  for (const std::string& pattern : golden::SyntheticPatterns()) {
    for (size_t size : golden::SyntheticSizes()) {
      SCOPED_TRACE(pattern + ":" + std::to_string(size));
      ExpectMatchesReference(golden::SyntheticBytes(pattern, size));
    }
  }
}

TEST(Lz77SpecTest, MatchesHashChainMatcherOnCodecBlobs) {
  for (const std::string& name :
       std::vector<std::string>{"ETTm1", "Solar"}) {
    Result<data::Dataset> dataset = data::MakeDataset(name);
    ASSERT_TRUE(dataset.ok()) << dataset.status().message();
    for (const std::string& codec :
         std::vector<std::string>{"PMC", "CAMEO", "GORILLA"}) {
      Result<std::unique_ptr<compress::Compressor>> compressor =
          compress::MakeCompressor(codec);
      ASSERT_TRUE(compressor.ok()) << compressor.status().message();
      const std::vector<double> bounds =
          codec == "GORILLA" ? std::vector<double>{0.0}
                             : compress::PaperErrorBounds();
      for (double bound : bounds) {
        SCOPED_TRACE(name + " " + codec + " eb=" + std::to_string(bound));
        Result<std::vector<uint8_t>> blob =
            (*compressor)->Compress(dataset->series, bound);
        ASSERT_TRUE(blob.ok()) << blob.status().message();
        ExpectMatchesReference(*blob);
      }
    }
    SCOPED_TRACE(name + " raw CSV");
    ExpectMatchesReference(compress::SerializeRawCsv(dataset->series));
  }
}

// The synthetic inputs reach the edges the spec test is meant to cover: a
// match at distance exactly 32768, and a bucket deep enough that the
// 128-candidate cap changes the parse.
TEST(Lz77SpecTest, SyntheticInputsReachTheWindowAndChainLimits) {
  const std::vector<uint8_t> periodic =
      golden::SyntheticBytes("period32768", 65536);
  const std::vector<Lz77Token> tokens =
      Lz77Tokenize({periodic.data(), periodic.size()});
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const Lz77Token& t) {
    return t.is_match && t.distance == 32768;
  }));
  EXPECT_EQ(Reconstruct(tokens), periodic);

  const std::vector<uint8_t> runs = golden::SyntheticBytes("runs", 140000);
  EXPECT_NE(FirstDifference(ReferenceTokenize(runs.data(), runs.size()),
                            ReferenceTokenize(runs.data(), runs.size(),
                                              1 << 20)),
            -1);
}

}  // namespace
}  // namespace lossyts::zip

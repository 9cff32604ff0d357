#include "zip/lz77.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace lossyts::zip {

namespace {

constexpr size_t kWindowSize = 32768;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 258;
constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;
// Match effort: candidates probed per search, and the length that ends a
// search and skips the lazy probe.
constexpr uint32_t kMaxChain = 128;
constexpr size_t kGoodLength = 64;

inline uint32_t Hash3(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Byte-order-normalized 64-bit load: the value's low byte is p[0], so the
// lowest set bit of an XOR of two loads indexes the first differing byte
// regardless of host endianness.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

// Length of the common prefix of a and b, capped at limit, extended eight
// bytes per step.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t diff = LoadLe64(a + len) ^ LoadLe64(b + len);
    if (diff != 0) {
      return len + (static_cast<size_t>(__builtin_ctzll(diff)) >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Every position p with p + kMinMatch <= size, counting-sorted by Hash3 and
// by position within a hash. The parse searches every such position once, in
// increasing order, and a search at pos considers exactly the earlier
// positions with pos's hash, most recent first: sorted[slot[pos] - 1] down to
// the bucket's start. That is the hash chain a head/prev matcher would walk
// if it inserted every position before searching past it, so the buckets are
// built once and never updated.
struct Matcher {
  const uint8_t* data;
  size_t size;
  std::vector<uint32_t> bucket_start;  // Each hash's first index in sorted.
  std::vector<uint32_t> sorted;        // Positions, by (hash, position).
  std::vector<uint32_t> slot;          // slot[p]: p's index in sorted.

  explicit Matcher(std::span<const uint8_t> input)
      : data(input.data()), size(input.size()), bucket_start(kHashSize, 0) {
    if (size < kMinMatch) return;
    const size_t n = size - kMinMatch + 1;
    sorted.resize(n);
    slot.resize(n);
    for (size_t p = 0; p < n; ++p) ++bucket_start[Hash3(data + p)];
    uint32_t end = 0;
    for (uint32_t& b : bucket_start) {
      end += b;
      b = end;
    }
    // Scattering backwards fills each bucket from its end, so positions stay
    // increasing within a bucket and each bucket's end becomes its start.
    for (size_t p = n; p-- > 0;) {
      const uint32_t s = --bucket_start[Hash3(data + p)];
      sorted[s] = static_cast<uint32_t>(p);
      slot[p] = s;
    }
  }

  // Finds the best match at pos. Returns the length (0 when none of at least
  // kMinMatch exists); distance comes back through *distance.
  size_t FindMatch(size_t pos, size_t* distance) const {
    if (pos + kMinMatch > size) return 0;
    const uint8_t* a = data + pos;
    const uint32_t s = slot[pos];
    const uint32_t lo = std::max(bucket_start[Hash3(a)],
                                 s > kMaxChain ? s - kMaxChain : 0u);
    const size_t limit = std::min(kMaxMatch, size - pos);
    size_t best_len = 0;
    for (uint32_t i = s; i > lo;) {
      const size_t candidate = sorted[--i];
      if (pos - candidate > kWindowSize) break;
      const uint8_t* b = data + candidate;
      // Cheap rejection: a longer match must improve on the current best's
      // last byte, and 3-byte hashing already filters most of the rest.
      if (best_len == 0 || b[best_len] == a[best_len]) {
        const size_t len = MatchLength(a, b, limit);
        if (len > best_len) {
          best_len = len;
          *distance = pos - candidate;
          if (len >= kGoodLength || len >= limit) {
            // limit also bounds a[best_len] above: stopping here keeps the
            // rejection probe in bounds.
            break;
          }
        }
      }
    }
    return best_len >= kMinMatch ? best_len : 0;
  }
};

}  // namespace

std::vector<Lz77Token> Lz77Tokenize(std::span<const uint8_t> input) {
  const uint8_t* data = input.data();
  const size_t size = input.size();
  if (size > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Lz77Tokenize: input of 2^32 bytes or more");
  }
  std::vector<Lz77Token> tokens;
  tokens.reserve(size / 2 + 16);
  const Matcher matcher(input);

  const auto emit_literal = [&](size_t pos) {
    Lz77Token t;
    t.literal = data[pos];
    tokens.push_back(t);
  };
  const auto emit_match = [&](size_t len, size_t dist) {
    Lz77Token t;
    t.is_match = true;
    t.length = static_cast<uint16_t>(len);
    t.distance = static_cast<uint16_t>(dist);
    tokens.push_back(t);
  };

  size_t pos = 0;
  // Lazy evaluation (zlib's deflate_slow shape): hold each match one
  // position; if the next position matches longer, the held match shrinks to
  // a literal and the longer match is held instead.
  size_t held_len = 0;
  size_t held_dist = 0;
  bool holding = false;  // A match starting at pos - 1 is pending.

  while (pos < size) {
    size_t dist = 0;
    const size_t len = matcher.FindMatch(pos, &dist);
    if (holding) {
      if (len > held_len) {
        // The probe won: the held match's first byte becomes a literal.
        emit_literal(pos - 1);
        held_len = len;
        held_dist = dist;
        ++pos;
      } else {
        emit_match(held_len, held_dist);
        pos += held_len - 1;
        holding = false;
      }
      continue;
    }
    if (len == 0) {
      emit_literal(pos);
      ++pos;
      continue;
    }
    if (len >= kGoodLength) {
      emit_match(len, dist);
      pos += len;
      continue;
    }
    held_len = len;
    held_dist = dist;
    holding = true;
    ++pos;
  }
  if (holding) {
    // Input ended while a match was pending; it is still the best option.
    emit_match(held_len, held_dist);
  }
  return tokens;
}

}  // namespace lossyts::zip

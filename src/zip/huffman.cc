#include "zip/huffman.h"

#include <algorithm>
#include <queue>
#include <string>

namespace lossyts::zip {

namespace {

struct Node {
  uint64_t weight;
  int index;   // Node index in the pool.
  int symbol;  // >= 0 for leaves, -1 for internal.
};

struct NodeCompare {
  bool operator()(const Node& a, const Node& b) const {
    // Min-heap on weight; break ties on index for determinism.
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index > b.index;
  }
};

}  // namespace

Result<std::vector<int>> BuildCodeLengths(const std::vector<uint64_t>& freqs,
                                          int max_length) {
  const int n = static_cast<int>(freqs.size());
  std::vector<int> lengths(n, 0);

  std::vector<int> used;
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) used.push_back(i);
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }
  if ((1u << max_length) < used.size()) {
    return Status::InvalidArgument(
        "alphabet of " + std::to_string(used.size()) +
        " symbols cannot fit in codes of max length " +
        std::to_string(max_length));
  }

  // Standard Huffman construction; track parents to recover leaf depths.
  std::vector<int> parent;
  std::vector<int> leaf_node_of_symbol(n, -1);
  std::priority_queue<Node, std::vector<Node>, NodeCompare> heap;
  int next_index = 0;
  for (int s : used) {
    leaf_node_of_symbol[s] = next_index;
    parent.push_back(-1);
    heap.push(Node{freqs[s], next_index, s});
    ++next_index;
  }
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    parent.push_back(-1);
    parent[a.index] = next_index;
    parent[b.index] = next_index;
    heap.push(Node{a.weight + b.weight, next_index, -1});
    ++next_index;
  }

  std::vector<int> depth(parent.size(), 0);
  // Nodes are created children-before-parents, so a reverse sweep fills
  // depths top-down.
  for (int i = static_cast<int>(parent.size()) - 2; i >= 0; --i) {
    depth[i] = depth[parent[i]] + 1;
  }
  for (int s : used) lengths[s] = depth[leaf_node_of_symbol[s]];

  // Enforce the maximum code length, then repair the Kraft sum (miniz-style).
  int max_used = 0;
  for (int s : used) max_used = std::max(max_used, lengths[s]);
  if (max_used > max_length) {
    std::vector<int> count(max_length + 1, 0);
    for (int s : used) count[std::min(lengths[s], max_length)]++;
    uint64_t total = 0;
    for (int l = max_length; l >= 1; --l) {
      total += static_cast<uint64_t>(count[l]) << (max_length - l);
    }
    while (total > (1ull << max_length)) {
      // Shorten one max-length code by promoting a shorter code deeper.
      count[max_length]--;
      for (int l = max_length - 1; l >= 1; --l) {
        if (count[l] > 0) {
          count[l]--;
          count[l + 1] += 2;
          break;
        }
      }
      total--;
    }
    // Reassign lengths: least frequent symbols get the longest codes.
    std::vector<int> order = used;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      if (freqs[a] != freqs[b]) return freqs[a] < freqs[b];
      return a < b;
    });
    size_t pos = 0;
    for (int l = max_length; l >= 1; --l) {
      for (int k = 0; k < count[l]; ++k) lengths[order[pos++]] = l;
    }
  }
  return lengths;
}

std::vector<uint32_t> CanonicalCodes(const std::vector<int>& lengths) {
  int max_len = 0;
  for (int l : lengths) max_len = std::max(max_len, l);
  std::vector<int> count(max_len + 1, 0);
  for (int l : lengths) {
    if (l > 0) count[l]++;
  }
  std::vector<uint32_t> next_code(max_len + 2, 0);
  uint32_t code = 0;
  for (int l = 1; l <= max_len; ++l) {
    code = (code + static_cast<uint32_t>(count[l - 1])) << 1;
    next_code[l] = code;
  }
  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

Status HuffmanDecoder::Init(const std::vector<int>& lengths) {
  std::vector<SymbolLength> pairs;
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] != 0) {
      pairs.push_back({static_cast<uint32_t>(s), lengths[s]});
    }
  }
  return Init(std::move(pairs), lengths.size());
}

Status HuffmanDecoder::Init(std::vector<SymbolLength> pairs,
                            size_t alphabet_size) {
  sorted_symbols_.clear();
  max_used_length_ = 0;
  std::fill(std::begin(count_), std::end(count_), 0);
  if (alphabet_size > static_cast<size_t>(kSymMask) + 1) {
    // The LUT packs symbol values into 17 bits; nothing in this library
    // (DEFLATE's 288, SZ's 65537) comes close, so a larger alphabet is a
    // caller bug, not a stream property.
    return Status::InvalidArgument("Huffman alphabet exceeds 2^17 symbols");
  }

  // Resolve to one length per symbol, ascending. The stable sort keeps a
  // repeated symbol's pairs in their given order, so its last one wins.
  const auto by_symbol = [](const SymbolLength& a, const SymbolLength& b) {
    return a.symbol < b.symbol;
  };
  if (!std::is_sorted(pairs.begin(), pairs.end(), by_symbol)) {
    std::stable_sort(pairs.begin(), pairs.end(), by_symbol);
  }
  size_t used = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + 1 < pairs.size() && pairs[i + 1].symbol == pairs[i].symbol) {
      continue;
    }
    if (pairs[i].symbol >= alphabet_size) {
      return Status::Corruption("Huffman symbol out of range");
    }
    const int l = pairs[i].length;
    if (l < 0 || l > kMaxLength) {
      return Status::Corruption("invalid Huffman code length");
    }
    if (l == 0) continue;
    count_[l]++;
    max_used_length_ = std::max(max_used_length_, l);
    pairs[used++] = pairs[i];
  }
  pairs.resize(used);
  if (used == 0) return Status::Corruption("empty Huffman alphabet");

  // Validate Kraft inequality; allow the single-symbol degenerate code.
  uint64_t kraft = 0;
  for (int l = 1; l <= max_used_length_; ++l) {
    kraft += static_cast<uint64_t>(count_[l]) << (max_used_length_ - l);
  }
  const uint64_t full = 1ull << max_used_length_;
  if (kraft > full) return Status::Corruption("oversubscribed Huffman code");
  if (kraft < full && used > 1) {
    return Status::Corruption("incomplete Huffman code");
  }

  uint32_t code = 0;
  int offset = 0;
  for (int l = 1; l <= max_used_length_; ++l) {
    code = (code + static_cast<uint32_t>(count_[l - 1])) << 1;
    first_code_[l] = code;
    offset_[l] = offset;
    offset += count_[l];
  }
  // Canonical order: by length, then by symbol within a length.
  sorted_symbols_.resize(offset);
  int next[kMaxLength + 1] = {};
  for (const SymbolLength& p : pairs) {
    sorted_symbols_[offset_[p.length] + next[p.length]++] =
        static_cast<int>(p.symbol);
  }
  BuildLut();
  return Status::OK();
}

void HuffmanDecoder::BuildLut() {
  table_bits_ = std::min(max_used_length_, kRootBits);
  table_.assign(size_t{1} << table_bits_, 0u);

  // Codes longer than the root width share a subtable per 9-bit prefix;
  // size each subtable for the longest suffix under that prefix.
  if (max_used_length_ > kRootBits) {
    std::vector<uint32_t> sub_width(size_t{1} << kRootBits, 0);
    for (int l = kRootBits + 1; l <= max_used_length_; ++l) {
      for (int k = 0; k < count_[l]; ++k) {
        const uint32_t code = first_code_[l] + static_cast<uint32_t>(k);
        // The stream is LSB-first and codes are emitted bit-reversed, so the
        // first kRootBits stream bits are the reversed top bits of the code.
        const uint32_t root_idx =
            static_cast<uint32_t>(ReverseBitsN(code >> (l - kRootBits),
                                               kRootBits));
        sub_width[root_idx] = std::max(
            sub_width[root_idx], static_cast<uint32_t>(l - kRootBits));
      }
    }
    for (uint32_t root_idx = 0; root_idx < sub_width.size(); ++root_idx) {
      if (sub_width[root_idx] == 0) continue;
      const uint32_t base = static_cast<uint32_t>(table_.size());
      table_[root_idx] =
          kSubFlag | (sub_width[root_idx] << kLenShift) | base;
      table_.resize(table_.size() + (size_t{1} << sub_width[root_idx]), 0u);
    }
  }

  // Direct codes: every root index whose low l bits spell the reversed code
  // decodes to the symbol, so replicate at stride 1 << l.
  for (int l = 1; l <= table_bits_; ++l) {
    for (int k = 0; k < count_[l]; ++k) {
      const uint32_t code = first_code_[l] + static_cast<uint32_t>(k);
      const int sym = sorted_symbols_[offset_[l] + k];
      const uint32_t entry = static_cast<uint32_t>(sym) |
                             (static_cast<uint32_t>(l) << kLenShift);
      const uint32_t start = static_cast<uint32_t>(ReverseBitsN(code, l));
      for (uint32_t i = start; i < (1u << table_bits_); i += 1u << l) {
        table_[i] = entry;
      }
    }
  }

  // Long codes land in their prefix's subtable, replicated the same way
  // over the suffix bits.
  for (int l = kRootBits + 1; l <= max_used_length_; ++l) {
    for (int k = 0; k < count_[l]; ++k) {
      const uint32_t code = first_code_[l] + static_cast<uint32_t>(k);
      const int sym = sorted_symbols_[offset_[l] + k];
      const uint32_t root_idx = static_cast<uint32_t>(
          ReverseBitsN(code >> (l - kRootBits), kRootBits));
      const uint32_t root_entry = table_[root_idx];
      const uint32_t width = (root_entry >> kLenShift) & 31u;
      const uint32_t base = root_entry & kSymMask;
      const int suffix_len = l - kRootBits;
      const uint32_t suffix = code & ((1u << suffix_len) - 1);
      const uint32_t start =
          static_cast<uint32_t>(ReverseBitsN(suffix, suffix_len));
      const uint32_t entry = static_cast<uint32_t>(sym) |
                             (static_cast<uint32_t>(l) << kLenShift);
      for (uint32_t i = start; i < (1u << width); i += 1u << suffix_len) {
        table_[base + i] = entry;
      }
    }
  }
}

Status HuffmanDecoder::DecodeMany(BitReader& reader, int* out,
                                  size_t count) const {
  // The cursor lives in locals for the whole loop, so stores to `out` cannot
  // force it back to memory, and is written back once at the end.
  const std::span<const uint8_t> bytes(reader.data_, reader.size_);
  uint64_t buffer = reader.bit_buffer_;
  int bits = reader.bits_in_buffer_;
  size_t next = reader.next_byte_;
  const uint32_t* const table = table_.data();
  const uint64_t root_mask = (uint64_t{1} << table_bits_) - 1;
  Status status;
  for (size_t i = 0; i < count; ++i) {
    // After a refill the buffer holds >= 57 bits or everything left, so
    // `bits` stands for the stream's remaining bits in every test below
    // (codes are <= 15 bits). The buffer is zero above `bits`: a short tail
    // reads as zero padding, which cannot alias a wrong symbol because a
    // prefix code's identity is fixed by its true prefix.
    BitReader::RefillCursor(bytes, buffer, bits, next);
    uint32_t entry = table[buffer & root_mask];
    if (entry & kSubFlag) {
      const uint32_t width = (entry >> kLenShift) & 31u;
      entry = table[(entry & kSymMask) +
                    (static_cast<uint32_t>(buffer >> table_bits_) &
                     ((1u << width) - 1))];
    }
    const int len = static_cast<int>((entry >> kLenShift) & 31u);
    if (len == 0 || len > bits) [[unlikely]] {
      // As the bit walk: a prefix matching no code is Corruption once
      // max_used_length_ bits were available, and running out of bits first
      // is OutOfRange with the stream fully consumed.
      if (len == 0 && bits >= max_used_length_) {
        buffer >>= max_used_length_;
        bits -= max_used_length_;
        status = Status::Corruption("invalid Huffman code in stream");
      } else {
        next = bytes.size();
        bits = 0;
        buffer = 0;
        status = Status::OutOfRange("bit stream exhausted");
      }
      break;
    }
    buffer >>= len;
    bits -= len;
    out[i] = static_cast<int>(entry & kSymMask);
  }
  reader.bit_buffer_ = buffer;
  reader.bits_in_buffer_ = bits;
  reader.next_byte_ = next;
  return status;
}

Result<int> HuffmanDecoder::Decode(BitReader& reader) const {
  int symbol = 0;
  if (Status s = DecodeMany(reader, &symbol, 1); !s.ok()) return s;
  return symbol;
}

}  // namespace lossyts::zip

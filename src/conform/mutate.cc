#include "conform/mutate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "compress/serde.h"
#include "core/rng.h"
#include "serve/wal.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"

namespace lossyts::conform {

namespace {

// Shared header layout offsets (compress/header.h).
constexpr size_t kPointCountOffset = 7;
constexpr size_t kHeaderSize = 11;
constexpr size_t kFirstPayloadCountOffset = 11;

uint32_t ReadU32LE(const std::vector<uint8_t>& blob, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, blob.data() + offset, sizeof(v));
  return v;
}

void WriteU32LE(std::vector<uint8_t>& blob, size_t offset, uint32_t v) {
  std::memcpy(blob.data() + offset, &v, sizeof(v));
}

void WriteU16LE(std::vector<uint8_t>& blob, size_t offset, uint16_t v) {
  std::memcpy(blob.data() + offset, &v, sizeof(v));
}

std::string Hex(uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

void AddTruncations(const std::vector<uint8_t>& blob,
                    std::vector<Mutant>& out) {
  const size_t candidates[] = {0,  1,  5,          10,
                               11, 15, blob.size() / 2,
                               blob.size() > 0 ? blob.size() - 1 : 0};
  size_t last = blob.size();  // Skip the identity "truncation".
  for (const size_t at : candidates) {
    if (at >= blob.size() || at == last) continue;
    last = at;
    out.push_back({"truncate@" + std::to_string(at),
                   std::vector<uint8_t>(blob.begin(),
                                        blob.begin() + static_cast<long>(at))});
  }
}

void AddHeaderBitFlips(const std::vector<uint8_t>& blob,
                       std::vector<Mutant>& out) {
  const size_t limit = std::min(blob.size(), kHeaderSize);
  for (size_t byte = 0; byte < limit; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Mutant m{"bit-flip@" + std::to_string(byte) + "." + std::to_string(bit),
               blob};
      m.blob[byte] ^= static_cast<uint8_t>(1u << bit);
      out.push_back(std::move(m));
    }
  }
}

void AddCountSplices(const std::vector<uint8_t>& blob, size_t offset,
                     const char* what, std::vector<Mutant>& out) {
  if (blob.size() < offset + 4) return;
  const uint32_t old = ReadU32LE(blob, offset);
  const uint32_t values[] = {0u,       1u,          old - 1u, old + 1u,
                             old * 2u, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (const uint32_t v : values) {
    if (v == old) continue;
    Mutant m{std::string(what) + "=" + Hex(v), blob};
    WriteU32LE(m.blob, offset, v);
    out.push_back(std::move(m));
  }
}

void AddSegmentLengthSplices(const std::vector<uint8_t>& blob,
                             std::vector<Mutant>& out) {
  // First u16 inside the first payload record: the segment length for the
  // length-prefixed codecs (PMC/Swing), arbitrary payload bytes for the rest
  // — either way the decoder must cope.
  const size_t offset = kFirstPayloadCountOffset + 4;
  if (blob.size() < offset + 2) return;
  for (const uint16_t v : {uint16_t{0}, uint16_t{0xFFFF}}) {
    Mutant m{"seg-len=" + Hex(v), blob};
    WriteU16LE(m.blob, offset, v);
    out.push_back(std::move(m));
  }
}

void AddRandomMutations(const std::vector<uint8_t>& blob, uint64_t seed,
                        int count, std::vector<Mutant>& out) {
  if (blob.empty()) return;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const size_t byte = rng.UniformInt(blob.size());
    if (rng.UniformInt(2) == 0) {
      const int bit = static_cast<int>(rng.UniformInt(8));
      Mutant m{"rand-flip#" + std::to_string(i) + "@" + std::to_string(byte) +
                   "." + std::to_string(bit),
               blob};
      m.blob[byte] ^= static_cast<uint8_t>(1u << bit);
      out.push_back(std::move(m));
    } else {
      const uint8_t v = static_cast<uint8_t>(rng.UniformInt(256));
      Mutant m{"rand-byte#" + std::to_string(i) + "@" + std::to_string(byte) +
                   "=" + Hex(v),
               blob};
      m.blob[byte] = v;
      out.push_back(std::move(m));
    }
  }
}

}  // namespace

std::vector<Mutant> GenerateMutants(const std::vector<uint8_t>& blob,
                                    uint64_t seed, int random_bit_flips) {
  std::vector<Mutant> out;
  AddTruncations(blob, out);
  AddHeaderBitFlips(blob, out);
  AddCountSplices(blob, kPointCountOffset, "num-points", out);
  AddCountSplices(blob, kFirstPayloadCountOffset, "payload-count", out);
  AddSegmentLengthSplices(blob, out);
  AddRandomMutations(blob, seed, random_bit_flips, out);
  return out;
}

std::optional<OracleFailure> CheckMutantDecode(
    const compress::Compressor& codec, const Mutant& mutant) {
  Result<TimeSeries> rec = codec.Decompress(mutant.blob);
  // Any clean rejection satisfies the contract; only an OK result carries an
  // obligation. A flip may of course leave the blob valid (payload bits of a
  // lossless codec), in which case the decode must still be self-consistent:
  // the point count the header claims is the point count returned.
  if (!rec.ok()) return std::nullopt;
  if (mutant.blob.size() >= kPointCountOffset + 4) {
    const uint32_t claimed = ReadU32LE(mutant.blob, kPointCountOffset);
    if (rec->size() != claimed) {
      return OracleFailure{
          "mutant-accept",
          "mutant '" + mutant.kind + "' decoded OK with " +
              std::to_string(rec->size()) + " points but the header claims " +
              std::to_string(claimed),
          0};
    }
  }
  return std::nullopt;
}

namespace {

void WriteU64LE(std::vector<uint8_t>& blob, size_t offset, uint64_t v) {
  std::memcpy(blob.data() + offset, &v, sizeof(v));
}

void AddBitFlipRange(const std::vector<uint8_t>& image, size_t begin,
                     size_t count, const char* what,
                     std::vector<Mutant>& out) {
  const size_t end = std::min(image.size(), begin + count);
  for (size_t byte = begin; byte < end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Mutant m{std::string(what) + "-flip@" + std::to_string(byte) + "." +
                   std::to_string(bit),
               image};
      m.blob[byte] ^= static_cast<uint8_t>(1u << bit);
      out.push_back(std::move(m));
    }
  }
}

void AddStoreTruncation(const std::vector<uint8_t>& image, size_t at,
                        std::vector<Mutant>& out) {
  if (at >= image.size()) return;
  for (const Mutant& existing : out) {
    if (existing.blob.size() == at &&
        existing.kind.rfind("truncate@", 0) == 0) {
      return;  // Deduplicate identical cut points.
    }
  }
  out.push_back({"truncate@" + std::to_string(at),
                 std::vector<uint8_t>(image.begin(),
                                      image.begin() + static_cast<long>(at))});
}

void AddU32Splices(const std::vector<uint8_t>& image, size_t offset,
                   const char* what, std::vector<Mutant>& out) {
  if (image.size() < offset + 4) return;
  const uint32_t old = ReadU32LE(image, offset);
  const uint32_t values[] = {0u,       1u,          old - 1u, old + 1u,
                             old * 2u, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (const uint32_t v : values) {
    if (v == old) continue;
    Mutant m{std::string(what) + "=" + Hex(v), image};
    WriteU32LE(m.blob, offset, v);
    out.push_back(std::move(m));
  }
}

// Maximum |a - b| the fp-rounding gap between a closed-form pushdown
// aggregate and the decode-then-aggregate reference can explain. Anything
// larger is a genuinely different answer.
bool AggregatesAgree(double pushdown, double decode) {
  const double scale = std::max({1.0, std::fabs(pushdown), std::fabs(decode)});
  return std::fabs(pushdown - decode) <= 1e-6 * scale;
}

}  // namespace

std::vector<Mutant> GenerateStoreMutants(const std::vector<uint8_t>& image,
                                         uint64_t seed,
                                         int random_bit_flips) {
  std::vector<Mutant> out;

  // Structural offsets, recovered by opening the (valid) input image. If it
  // does not open, only the structure-blind mutations apply.
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::OpenBytes(image);
  if (opened.ok()) {
    const store::StoreReader& reader = **opened;
    uint64_t index_offset = image.size();
    if (image.size() >= store::kFooterSize) {
      uint64_t off = 0;
      std::memcpy(&off, image.data() + image.size() - 16, sizeof(off));
      index_offset = off;
    }
    const size_t data_begin =
        reader.chunks().empty() ? static_cast<size_t>(index_offset)
                                : static_cast<size_t>(reader.chunks()[0].offset);

    // Torn-write truncations: inside the file header, at every structural
    // boundary of the first frame, mid-payload, at the index and the footer.
    AddStoreTruncation(image, 0, out);
    AddStoreTruncation(image, 1, out);
    AddStoreTruncation(image, data_begin / 2, out);
    AddStoreTruncation(image, data_begin, out);
    if (!reader.chunks().empty()) {
      const store::ChunkInfo& first = reader.chunks()[0];
      const size_t frame = static_cast<size_t>(first.offset);
      AddStoreTruncation(image, frame + 4, out);
      AddStoreTruncation(image, frame + 8, out);
      AddStoreTruncation(image, frame + 8 + first.payload_size / 2, out);
      AddStoreTruncation(image, frame + 8 + first.payload_size, out);
      AddStoreTruncation(
          image, frame + compress::kFrameOverhead + first.payload_size, out);

      // Frame framing fields: magic + payload size, payload edges.
      AddBitFlipRange(image, frame, 8, "frame", out);
      AddBitFlipRange(image, frame + 8, 1, "payload-head", out);
      AddBitFlipRange(image, frame + 8 + first.payload_size - 1, 1,
                      "payload-tail", out);
      AddU32Splices(image, frame + 4, "frame-size", out);
    }
    if (index_offset < image.size()) {
      const size_t index = static_cast<size_t>(index_offset);
      AddStoreTruncation(image, index, out);
      AddStoreTruncation(image, index + 6, out);
      AddBitFlipRange(image, index, 8, "index-head", out);
      AddU32Splices(image, index + 4, "index-count", out);
      if (!reader.chunks().empty()) {
        // First index entry: offset u64, first_timestamp i64, num_points u32.
        AddU32Splices(image, index + 8 + 16, "index-points", out);
      }
    }
    if (image.size() >= store::kFooterSize) {
      const size_t footer = image.size() - store::kFooterSize;
      AddStoreTruncation(image, footer, out);
      AddStoreTruncation(image, footer + 10, out);
      AddStoreTruncation(image, image.size() - 1, out);
      AddBitFlipRange(image, footer, store::kFooterSize, "footer", out);
      for (const uint64_t v :
           {uint64_t{0}, uint64_t{1}, static_cast<uint64_t>(image.size()),
            static_cast<uint64_t>(image.size()) * 2, ~uint64_t{0}}) {
        Mutant m{"footer-offset=" + Hex(v), image};
        WriteU64LE(m.blob, footer + 4, v);
        out.push_back(std::move(m));
      }
    }

    // File header: every bit, as for codec blobs.
    AddBitFlipRange(image, 0, data_begin, "header", out);
  }

  AddRandomMutations(image, seed, random_bit_flips, out);
  return out;
}

std::vector<Mutant> GenerateWalMutants(const std::vector<uint8_t>& image,
                                       uint64_t seed, int random_bit_flips) {
  std::vector<Mutant> out;

  // Torn-write truncations inside the header.
  AddStoreTruncation(image, 0, out);
  AddStoreTruncation(image, 1, out);
  AddStoreTruncation(image, serve::kWalHeaderSize - 1, out);
  AddStoreTruncation(image, serve::kWalHeaderSize, out);
  AddBitFlipRange(image, 0, serve::kWalHeaderSize, "wal-header", out);

  // Structure of the first record, recovered by replaying the (valid) input.
  Result<serve::WalReplay> replay = serve::ReplayWalBytes(image);
  if (replay.ok() && !replay->records.empty()) {
    const size_t frame = serve::kWalHeaderSize;
    // Replay accepted the record's frame, so it re-encodes.
    const size_t frame_size =
        serve::EncodeWalRecord(replay->records[0])->size();
    const size_t payload_size = frame_size - compress::kFrameOverhead;
    AddStoreTruncation(image, frame + 4, out);      // After the magic.
    AddStoreTruncation(image, frame + 8, out);      // After the size field.
    AddStoreTruncation(image, frame + 8 + payload_size / 2, out);
    AddStoreTruncation(image, frame + 8 + payload_size, out);  // Before CRC.
    AddStoreTruncation(image, frame + frame_size - 1, out);
    AddStoreTruncation(image, frame + frame_size, out);
    AddBitFlipRange(image, frame, 8, "wal-frame", out);
    AddBitFlipRange(image, frame + 8, 1, "wal-payload-head", out);
    AddBitFlipRange(image, frame + 8 + payload_size - 1, 1,
                    "wal-payload-tail", out);
    AddBitFlipRange(image, frame + 8 + payload_size, 4, "wal-crc", out);
    AddU32Splices(image, frame + 4, "wal-record-size", out);
  }

  AddRandomMutations(image, seed, random_bit_flips, out);
  return out;
}

std::optional<OracleFailure> CheckWalMutant(const Mutant& mutant) {
  Result<serve::WalReplay> replay = serve::ReplayWalBytes(mutant.blob);
  // Corruption (unreadable header) is a clean rejection; an OK replay must
  // be exactly the longest valid prefix of the image.
  if (!replay.ok()) return std::nullopt;

  auto fail = [&mutant](const std::string& detail) {
    return OracleFailure{"wal-mutant-accept",
                         "mutant '" + mutant.kind + "': " + detail, 0};
  };

  if (replay->valid_bytes < serve::kWalHeaderSize ||
      replay->valid_bytes > mutant.blob.size()) {
    return fail("replay claims a valid prefix of " +
                std::to_string(replay->valid_bytes) + " bytes in a " +
                std::to_string(mutant.blob.size()) + " byte image");
  }
  if (replay->clean != (replay->valid_bytes == mutant.blob.size())) {
    return fail("clean flag disagrees with the valid prefix length");
  }

  // Bit-exact round trip: the header plus the re-encoded records must
  // reproduce the valid prefix, byte for byte — anything else means the
  // parser accepted a record it could not have been handed.
  std::vector<uint8_t> rebuilt(mutant.blob.begin(),
                               mutant.blob.begin() + serve::kWalHeaderSize);
  for (const serve::WalRecord& record : replay->records) {
    Result<std::vector<uint8_t>> frame = serve::EncodeWalRecord(record);
    if (!frame.ok()) return fail("a replayed record does not re-encode");
    rebuilt.insert(rebuilt.end(), frame->begin(), frame->end());
  }
  if (rebuilt.size() != replay->valid_bytes ||
      std::memcmp(rebuilt.data(), mutant.blob.data(), rebuilt.size()) != 0) {
    return fail("re-encoding the replayed records does not reproduce the "
                "valid prefix");
  }
  return std::nullopt;
}

std::optional<OracleFailure> CheckStoreMutant(const Mutant& mutant) {
  // Any Status at any depth is a clean rejection: the contract obliges only
  // OK answers, which must then be self-consistent.
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::OpenBytes(mutant.blob);
  if (!opened.ok()) return std::nullopt;
  const store::StoreReader& reader = **opened;

  auto fail = [&mutant](const std::string& detail) {
    return OracleFailure{"store-mutant-accept",
                         "mutant '" + mutant.kind + "': " + detail, 0};
  };

  Result<TimeSeries> all = reader.ReadAll();
  if (!all.ok()) return std::nullopt;
  if (all->size() != reader.total_points()) {
    return fail("full decode returned " + std::to_string(all->size()) +
                " points but the store declares " +
                std::to_string(reader.total_points()));
  }
  if (reader.total_points() == 0) return std::nullopt;
  if (all->start_timestamp() != reader.start_timestamp() ||
      all->interval_seconds() != reader.interval_seconds()) {
    return fail("full decode disagrees with the store's time grid");
  }

  // Point reads at the edges must match the materialized series.
  Result<double> first = reader.ReadPoint(reader.start_timestamp());
  Result<double> last = reader.ReadPoint(reader.last_timestamp());
  if (first.ok() && *first != all->values().front()) {
    return fail("point read of the first timestamp disagrees with decode");
  }
  if (last.ok() && *last != all->values().back()) {
    return fail("point read of the last timestamp disagrees with decode");
  }

  // Pushdown vs decode-then-aggregate over the whole extent.
  for (const store::AggregateKind kind :
       {store::AggregateKind::kCount, store::AggregateKind::kSum,
        store::AggregateKind::kMin, store::AggregateKind::kMax,
        store::AggregateKind::kMean}) {
    store::AggregateOptions pushdown;
    store::AggregateOptions decode;
    decode.allow_pushdown = false;
    Result<store::AggregateResult> a = store::AggregateRange(
        reader, kind, reader.start_timestamp(), reader.last_timestamp(),
        pushdown);
    Result<store::AggregateResult> b = store::AggregateRange(
        reader, kind, reader.start_timestamp(), reader.last_timestamp(),
        decode);
    if (!a.ok() || !b.ok()) return std::nullopt;
    if (a->count != reader.total_points() || b->count != a->count) {
      return fail(std::string(store::AggregateKindName(kind)) +
                  " count disagrees with the declared point count");
    }
    if (!AggregatesAgree(a->value, b->value)) {
      return fail(std::string(store::AggregateKindName(kind)) +
                  " pushdown answer " + std::to_string(a->value) +
                  " disagrees with decode answer " + std::to_string(b->value));
    }
  }
  return std::nullopt;
}

}  // namespace lossyts::conform

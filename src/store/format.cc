#include "store/format.h"

#include "zip/crc32.h"

namespace lossyts::store {

void WriteStoreHeader(const StoreHeader& header, compress::ByteWriter& writer) {
  compress::ByteWriter body;
  body.PutU8(kFormatVersion);
  body.PutDouble(header.error_bound);
  body.PutU32(header.chunk_span);
  body.PutU8(static_cast<uint8_t>(header.codecs.size()));
  for (const std::string& name : header.codecs) {
    body.PutU8(static_cast<uint8_t>(name.size()));
    for (char c : name) body.PutU8(static_cast<uint8_t>(c));
  }
  std::vector<uint8_t> bytes = body.Finish();
  writer.PutU32(kFileMagic);
  writer.PutBytes(bytes);
  writer.PutU32(zip::ComputeCrc32(bytes));
}

Result<StoreHeader> ReadStoreHeader(compress::ByteReader& reader) {
  Result<uint32_t> magic = reader.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kFileMagic) {
    return Status::Corruption("not a chunk store file (bad magic)");
  }

  // The CRC covers version..names, so remember where the body starts.
  const size_t body_start = reader.position();
  const uint8_t* body_ptr = reader.current();

  StoreHeader header;
  Result<uint8_t> version = reader.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::Corruption("unsupported store format version " +
                              std::to_string(*version));
  }
  Result<double> eb = reader.GetDouble();
  if (!eb.ok()) return eb.status();
  header.error_bound = *eb;
  Result<uint32_t> span = reader.GetU32();
  if (!span.ok()) return span.status();
  if (*span == 0) {
    return Status::Corruption("store header has zero chunk span");
  }
  header.chunk_span = *span;
  Result<uint8_t> codec_count = reader.GetU8();
  if (!codec_count.ok()) return codec_count.status();
  for (uint8_t i = 0; i < *codec_count; ++i) {
    Result<uint8_t> len = reader.GetU8();
    if (!len.ok()) return len.status();
    std::string name;
    name.reserve(*len);
    for (uint8_t j = 0; j < *len; ++j) {
      Result<uint8_t> c = reader.GetU8();
      if (!c.ok()) return c.status();
      name.push_back(static_cast<char>(*c));
    }
    header.codecs.push_back(std::move(name));
  }

  const size_t body_size = reader.position() - body_start;
  Result<uint32_t> crc = reader.GetU32();
  if (!crc.ok()) return crc.status();
  if (*crc != zip::ComputeCrc32({body_ptr, body_size})) {
    return Status::Corruption("store header checksum mismatch");
  }
  return header;
}

}  // namespace lossyts::store

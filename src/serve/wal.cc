#include "serve/wal.h"

#include <sys/stat.h>

#include <span>
#include <utility>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/crc32.h"

namespace lossyts::serve {

namespace {

std::vector<uint8_t> EncodeWalHeader() {
  compress::ByteWriter writer;
  writer.PutU32(kWalMagic);
  writer.PutU8(kWalVersion);
  const uint8_t version = kWalVersion;
  writer.PutU32(zip::ComputeCrc32(&version, 1));
  return writer.Finish();
}

}  // namespace

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  compress::ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(record.series.size()));
  for (const char c : record.series) {
    payload.PutU8(static_cast<uint8_t>(c));
  }
  payload.PutI64(record.first_timestamp);
  payload.PutI32(record.interval_seconds);
  payload.PutU64(record.first_index);
  payload.PutU32(static_cast<uint32_t>(record.values.size()));
  for (const double v : record.values) payload.PutDouble(v);
  std::vector<uint8_t> body = payload.Finish();

  compress::ByteWriter frame;
  frame.PutU32(kWalRecordMagic);
  frame.PutU32(static_cast<uint32_t>(body.size()));
  frame.PutBytes(body);
  frame.PutU32(zip::ComputeCrc32(body.data(), body.size()));
  return frame.Finish();
}

namespace {

/// Parses the record frame at `offset`; any defect (bad magic, bad CRC,
/// truncation, inconsistent counts) returns Corruption, which the caller
/// treats as "the valid prefix ends here".
Result<WalRecord> ParseRecordAt(const std::vector<uint8_t>& bytes,
                                size_t offset) {
  compress::ByteReader frame(bytes.data() + offset, bytes.size() - offset);
  Result<uint32_t> magic = frame.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kWalRecordMagic) {
    return Status::Corruption("wal record has a bad magic");
  }
  Result<uint32_t> size = frame.GetU32();
  if (!size.ok()) return size.status();
  if (*size == 0 || *size > kWalMaxPayload) {
    return Status::Corruption("wal record size field is implausible");
  }
  if (static_cast<uint64_t>(*size) + 4 > frame.remaining()) {
    return Status::Corruption("wal record truncated");
  }
  const uint8_t* payload = frame.current();
  if (Status s = frame.Skip(*size); !s.ok()) return s;
  Result<uint32_t> crc = frame.GetU32();
  if (!crc.ok()) return crc.status();
  if (*crc != zip::ComputeCrc32(payload, *size)) {
    return Status::Corruption("wal record checksum mismatch");
  }

  compress::ByteReader body(payload, *size);
  WalRecord record;
  Result<uint8_t> id_len = body.GetU8();
  if (!id_len.ok()) return id_len.status();
  if (*id_len == 0) return Status::Corruption("wal record with an empty id");
  for (uint8_t i = 0; i < *id_len; ++i) {
    Result<uint8_t> c = body.GetU8();
    if (!c.ok()) return c.status();
    record.series.push_back(static_cast<char>(*c));
  }
  Result<int64_t> ts = body.GetI64();
  if (!ts.ok()) return ts.status();
  record.first_timestamp = *ts;
  Result<int32_t> interval = body.GetI32();
  if (!interval.ok()) return interval.status();
  if (*interval <= 0) {
    return Status::Corruption("wal record with a non-positive interval");
  }
  record.interval_seconds = *interval;
  Result<uint64_t> first_index = body.GetU64();
  if (!first_index.ok()) return first_index.status();
  record.first_index = *first_index;
  Result<uint32_t> count = body.GetU32();
  if (!count.ok()) return count.status();
  // The count must account for the remaining payload exactly; anything else
  // is a corrupt or spliced length field.
  if (*count == 0 ||
      body.remaining() != static_cast<uint64_t>(*count) * sizeof(double)) {
    return Status::Corruption("wal record count disagrees with its payload");
  }
  record.values.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<double> v = body.GetDouble();
    if (!v.ok()) return v.status();
    record.values.push_back(*v);
  }
  return record;
}

}  // namespace

Result<WalReplay> ReplayWalBytes(const std::vector<uint8_t>& bytes) {
  compress::ByteReader reader(bytes);
  Result<uint32_t> magic = reader.GetU32();
  if (!magic.ok() || *magic != kWalMagic) {
    return Status::Corruption("wal header has a bad magic");
  }
  Result<uint8_t> version = reader.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kWalVersion) {
    return Status::Corruption("wal version " + std::to_string(*version) +
                              " is not supported");
  }
  Result<uint32_t> crc = reader.GetU32();
  if (!crc.ok()) return crc.status();
  const uint8_t v = *version;
  if (*crc != zip::ComputeCrc32(&v, 1)) {
    return Status::Corruption("wal header checksum mismatch");
  }

  WalReplay replay;
  size_t pos = kWalHeaderSize;
  while (pos + kWalFrameOverhead <= bytes.size()) {
    Result<WalRecord> record = ParseRecordAt(bytes, pos);
    if (!record.ok()) break;
    pos += kWalFrameOverhead + record->values.size() * sizeof(double) +
           record->series.size() + 25;  // id_len + ts + interval + index + n.
    replay.records.push_back(std::move(*record));
  }
  replay.valid_bytes = pos;
  replay.clean = pos == bytes.size();
  return replay;
}

Result<WalReplay> ReplayWalFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = durable::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ReplayWalBytes(*bytes);
}

Status ResetWalFile(const std::string& path) {
  return durable::AtomicReplace(path, EncodeWalHeader());
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t valid_bytes) {
  struct stat st;
  if (valid_bytes < kWalHeaderSize || ::stat(path.c_str(), &st) != 0) {
    if (Status s = ResetWalFile(path); !s.ok()) return s;
    valid_bytes = kWalHeaderSize;
  }
  // Drop the torn tail before appending: everything after the valid prefix
  // is garbage a previous kill left behind.
  Result<durable::File> file = durable::File::OpenAppend(path, valid_bytes);
  if (!file.ok()) return file.status();
  std::unique_ptr<WalWriter> writer(new WalWriter());
  writer->file_ = std::move(*file);
  writer->bytes_ = valid_bytes;
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  if (failed_) {
    return Status::FailedPrecondition("wal writer failed earlier");
  }
  if (record.series.empty() || record.series.size() > 255) {
    return Status::InvalidArgument("wal series id must be 1..255 bytes");
  }
  if (record.values.empty()) {
    return Status::InvalidArgument("wal record must carry at least 1 point");
  }
  const std::vector<uint8_t> frame = EncodeWalRecord(record);

  // Crash injection: half the frame reaches the log and the writer is dead —
  // the torn tail replay must drop, with every prior record intact.
  Status crash = FailPoints::Hit("wal_write");
  if (!crash.ok()) {
    failed_ = true;
    (void)file_.Append(std::span(frame).first(frame.size() / 2));
    return crash;
  }

  if (Status s = file_.Append(frame); !s.ok()) {
    failed_ = true;
    return s;
  }
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (failed_) {
    return Status::FailedPrecondition("wal writer failed earlier");
  }
  Status crash = FailPoints::Hit("wal_fsync");
  if (!crash.ok()) {
    failed_ = true;
    return crash;
  }
  if (Status s = file_.Sync(); !s.ok()) {
    failed_ = true;
    return s;
  }
  return Status::OK();
}

}  // namespace lossyts::serve

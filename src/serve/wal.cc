#include "serve/wal.h"

#include <sys/stat.h>

#include <span>
#include <utility>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "serve/fields.h"
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

constexpr compress::FrameFormat kWalRecordFrame{kWalRecordMagic, 1,
                                                kWalMaxPayload, "wal record"};

/// The record payload's fields in wire order (serve/fields.h), once for both
/// directions.
template <typename V, typename M>
void WalRecordFields(V& v, M& record) {
  v.Field(record.series);
  v.Field(record.first_timestamp);
  v.Field(record.interval_seconds);
  v.Field(record.first_index);
  v.Field(record.values);
}

/// Decodes one record payload; any defect (truncation, inconsistent counts,
/// an empty id or value list, a non-positive interval) is Corruption, which
/// the caller treats as "the valid prefix ends here".
Result<WalRecord> DecodeWalPayload(std::span<const uint8_t> payload) {
  FieldReader reader(payload);
  WalRecord record;
  WalRecordFields(reader, record);
  if (Status s = reader.Finish(); !s.ok()) return s;
  if (record.series.empty()) {
    return Status::Corruption("wal record with an empty id");
  }
  if (record.interval_seconds <= 0) {
    return Status::Corruption("wal record with a non-positive interval");
  }
  if (record.values.empty()) {
    return Status::Corruption("wal record with no values");
  }
  return record;
}

}  // namespace

Result<std::vector<uint8_t>> EncodeWalRecord(const WalRecord& record) {
  FieldWriter body;
  WalRecordFields(body, record);
  compress::ByteWriter frame;
  if (Status s = compress::PutFrame(frame, kWalRecordFrame, body.Finish());
      !s.ok()) {
    return s;
  }
  return frame.Finish();
}

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
  while (pos < bytes.size()) {
    Result<compress::FrameView> frame = compress::ParseFrame(
        std::span(bytes).subspan(pos), kWalRecordFrame);
    if (!frame.ok()) break;
    Result<WalRecord> record = DecodeWalPayload(frame->payload);
    if (!record.ok()) break;
    replay.records.push_back(std::move(*record));
    pos += frame->frame_size;
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
  Result<std::vector<uint8_t>> encoded = EncodeWalRecord(record);
  if (!encoded.ok()) return encoded.status();
  const std::vector<uint8_t>& frame = *encoded;

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

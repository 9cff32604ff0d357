#include "store/writer.h"

#include <cmath>
#include <span>
#include <utility>

#include "compress/pipeline.h"
#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/crc32.h"

namespace lossyts::store {

namespace {

const std::vector<std::string>& DefaultCodecs() {
  // The paper's three PEBLC methods plus one lossless fallback so chunks
  // with non-finite values (which the lossy codecs reject) still ingest.
  static const std::vector<std::string> kDefault = {"PMC", "SWING", "SZ",
                                                    "GORILLA"};
  return kDefault;
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path, const StoreOptions& options) {
  if (Status s = compress::CheckErrorBound(options.error_bound); !s.ok()) {
    return s;
  }
  if (options.chunk_span == 0) {
    return Status::InvalidArgument("chunk span must be >= 1");
  }
  if (options.chunk_span > 65535) {
    // A chunk is one codec blob, and PMC/Swing segment lengths are u16; a
    // span past that could not even represent a single-segment chunk.
    return Status::InvalidArgument(
        "chunk span exceeds the u16 segment-length wire format: " +
        std::to_string(options.chunk_span));
  }

  std::unique_ptr<StoreWriter> writer(new StoreWriter());
  writer->options_ = options;
  if (writer->options_.codecs.empty()) {
    writer->options_.codecs = DefaultCodecs();
  }
  if (writer->options_.codecs.size() > 255) {
    return Status::InvalidArgument("too many codecs for the u8 header field");
  }
  for (const std::string& name : writer->options_.codecs) {
    if (name.size() > 255) {
      return Status::InvalidArgument("codec name too long: " + name);
    }
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    if (!codec.ok()) return codec.status();
    writer->codecs_.push_back(std::move(*codec));
  }

  Result<durable::File> file = durable::File::Create(path);
  if (!file.ok()) return file.status();
  writer->file_ = std::move(*file);
  if (options.sync) {
    // Make the directory entry itself durable; without this a power loss
    // after Finish could forget the file ever existed.
    if (Status s = durable::SyncDir(durable::ParentDir(path)); !s.ok()) {
      return s;
    }
  }

  StoreHeader header;
  header.error_bound = writer->options_.error_bound;
  header.chunk_span = writer->options_.chunk_span;
  header.codecs = writer->options_.codecs;
  compress::ByteWriter bytes;
  WriteStoreHeader(header, bytes);
  if (Status s = writer->WriteAll(bytes.Finish()); !s.ok()) return s;
  return writer;
}

Status StoreWriter::WriteAll(const std::vector<uint8_t>& bytes) {
  if (Status s = file_.Append(bytes); !s.ok()) {
    failed_ = true;
    return s;
  }
  offset_ += bytes.size();
  return Status::OK();
}

Status StoreWriter::SyncFile() {
  if (!options_.sync) return Status::OK();
  if (Status s = file_.Sync(); !s.ok()) {
    failed_ = true;
    return s;
  }
  return Status::OK();
}

Status StoreWriter::WriteChunk(const std::vector<double>& values,
                               int64_t first_timestamp) {
  TimeSeries chunk(first_timestamp, interval_, values);

  // Trial-compress with every configured codec; smallest blob wins, ties
  // break toward the earlier codec (part of the determinism contract). Lossy
  // codecs reject non-finite values, so skip them outright for such chunks
  // instead of collecting per-codec errors.
  const bool finite = AllFinite(values);
  std::vector<uint8_t> best;
  Status first_error = Status::OK();
  for (size_t i = 0; i < codecs_.size(); ++i) {
    const std::string_view name = codecs_[i]->name();
    const bool lossless = name == "GORILLA" || name == "CHIMP";
    if (!finite && !lossless) continue;
    Result<std::vector<uint8_t>> blob =
        codecs_[i]->Compress(chunk, options_.error_bound);
    if (!blob.ok()) {
      if (first_error.ok()) first_error = blob.status();
      continue;
    }
    if (best.empty() || blob->size() < best.size()) best = std::move(*blob);
  }
  if (best.empty()) {
    failed_ = true;
    if (!first_error.ok()) return first_error;
    return Status::InvalidArgument(
        "no configured codec can compress this chunk (non-finite values "
        "and no lossless codec in the list?)");
  }

  compress::ByteWriter frame;
  if (Status s = compress::PutFrame(frame, kChunkFrame, best); !s.ok()) {
    failed_ = true;
    return s;
  }
  std::vector<uint8_t> bytes = frame.Finish();

  ChunkInfo info;
  info.offset = offset_;
  info.first_timestamp = first_timestamp;
  info.num_points = static_cast<uint32_t>(values.size());
  info.algorithm = static_cast<compress::AlgorithmId>(best[0]);
  info.payload_size = static_cast<uint32_t>(best.size());
  info.interval_seconds = interval_;

  // Crash injection: when the failpoint fires, half the frame reaches the
  // file (a torn tail the reader's CRC scan must drop) and the writer is
  // dead — exactly the state a killed process leaves behind.
  Status crash = FailPoints::Hit("store_write");
  if (!crash.ok()) {
    failed_ = true;
    (void)file_.Append(std::span(bytes).first(bytes.size() / 2));
    return crash;
  }

  if (Status s = WriteAll(bytes); !s.ok()) return s;
  chunks_.push_back(info);
  points_flushed_ += values.size();
  return Status::OK();
}

Status StoreWriter::Append(const TimeSeries& series) {
  if (finished_) {
    return Status::FailedPrecondition("store writer is already finished");
  }
  if (failed_) {
    return Status::FailedPrecondition("store writer failed earlier");
  }
  if (series.empty()) return Status::OK();
  if (series.interval_seconds() <= 0) {
    return Status::InvalidArgument("store requires a positive interval");
  }

  if (!grid_fixed_) {
    start_timestamp_ = series.start_timestamp();
    interval_ = series.interval_seconds();
    grid_fixed_ = true;
  } else {
    if (series.interval_seconds() != interval_) {
      return Status::InvalidArgument(
          "append interval " + std::to_string(series.interval_seconds()) +
          " does not match the store's " + std::to_string(interval_));
    }
    const int64_t expected =
        start_timestamp_ +
        static_cast<int64_t>(points_written()) * interval_;
    if (series.start_timestamp() != expected) {
      return Status::InvalidArgument(
          "append breaks the regular grid: expected timestamp " +
          std::to_string(expected) + ", got " +
          std::to_string(series.start_timestamp()));
    }
  }

  for (double v : series.values()) buffer_.push_back(v);
  points_buffered_ = buffer_.size();

  while (buffer_.size() >= options_.chunk_span) {
    std::vector<double> chunk(buffer_.begin(),
                              buffer_.begin() + options_.chunk_span);
    const int64_t first_ts =
        start_timestamp_ + static_cast<int64_t>(points_flushed_) * interval_;
    if (Status s = WriteChunk(chunk, first_ts); !s.ok()) return s;
    buffer_.erase(buffer_.begin(), buffer_.begin() + options_.chunk_span);
    points_buffered_ = buffer_.size();
  }
  return Status::OK();
}

Status StoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("store writer is already finished");
  }
  if (failed_) {
    return Status::FailedPrecondition("store writer failed earlier");
  }
  if (!buffer_.empty()) {
    const int64_t first_ts =
        start_timestamp_ + static_cast<int64_t>(points_flushed_) * interval_;
    if (Status s = WriteChunk(buffer_, first_ts); !s.ok()) return s;
    buffer_.clear();
    points_buffered_ = 0;
  }

  // Durability barrier: every chunk frame must be on stable storage before
  // the footer that declares the file complete goes out, otherwise a power
  // loss could leave a footer-valid file whose data region is torn — the one
  // state the strict open trusts without a salvage scan.
  if (Status s = SyncFile(); !s.ok()) return s;

  const uint64_t index_offset = offset_;
  compress::ByteWriter entries;
  for (const ChunkInfo& chunk : chunks_) {
    entries.PutU64(chunk.offset);
    entries.PutI64(chunk.first_timestamp);
    entries.PutU32(chunk.num_points);
    entries.PutU8(static_cast<uint8_t>(chunk.algorithm));
  }
  std::vector<uint8_t> entry_bytes = entries.Finish();

  compress::ByteWriter tail;
  tail.PutU32(kIndexMagic);
  if (Status s = compress::PutCountU32(tail, chunks_.size(), "index entry");
      !s.ok()) {
    failed_ = true;
    return s;
  }
  tail.PutBytes(entry_bytes);
  tail.PutU32(zip::ComputeCrc32(entry_bytes.data(), entry_bytes.size()));

  compress::ByteWriter footer_body;
  footer_body.PutU64(index_offset);
  footer_body.PutU32(static_cast<uint32_t>(chunks_.size()));
  std::vector<uint8_t> footer_bytes = footer_body.Finish();
  tail.PutU32(kFooterMagic);
  tail.PutBytes(footer_bytes);
  tail.PutU32(zip::ComputeCrc32(footer_bytes.data(), footer_bytes.size()));

  Status crash = FailPoints::Hit("store_write");
  if (!crash.ok()) {
    // A crash between the last chunk and the footer: the reader salvages
    // every chunk but reports the file as not clean.
    failed_ = true;
    return crash;
  }

  if (Status s = WriteAll(tail.Finish()); !s.ok()) return s;
  if (Status s = SyncFile(); !s.ok()) return s;
  if (Status s = file_.Close(); !s.ok()) {
    failed_ = true;
    return s;
  }
  finished_ = true;
  return Status::OK();
}

}  // namespace lossyts::store

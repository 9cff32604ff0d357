#include "serve/shard.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "compress/compressor.h"
#include "core/durable_file.h"
#include "core/failpoint.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::serve {

namespace {

constexpr const char* kWalFileName = "wal.log";
constexpr const char* kStoreSuffix = ".lts";
constexpr const char* kTmpSuffix = ".tmp";
/// One append may not exceed this many points (the WAL frame and protocol
/// frame caps both comfortably cover it).
constexpr size_t kMaxAppendPoints = 1u << 20;

}  // namespace

bool Shard::ValidSeriesName(const std::string& name) {
  if (name.empty() || name.size() > 128 || name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<std::unique_ptr<Shard>> Shard::Open(const std::string& dir,
                                           const ShardOptions& options) {
  if (Status s = compress::CheckErrorBound(options.error_bound); !s.ok()) {
    return s;
  }
  if (options.chunk_span == 0 || options.chunk_span > 65535) {
    return Status::InvalidArgument("shard chunk span must be in [1, 65535]");
  }
  if (!options.stream_codec.empty()) {
    if (!stream::HasStreamingCompressor(options.stream_codec)) {
      return Status::InvalidArgument(
          "no streaming compressor named '" + options.stream_codec +
          "' (streamable: PMC, SWING)");
    }
    if (Status s = compress::CheckErrorBound(options.stream_error_bound);
        !s.ok()) {
      return s;
    }
  }
  if (Status s = durable::EnsureDir(dir); !s.ok()) return s;

  std::unique_ptr<Shard> shard(new Shard());
  shard->dir_ = dir;
  shard->options_ = options;

  // Pass 1: drop checkpoint temporaries a killed flush left behind, and
  // collect the series checkpoint stores.
  std::vector<std::string> store_files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot list " + dir + ": " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (name.ends_with(kTmpSuffix)) {
      (void)durable::Unlink(dir + "/" + name);
      continue;
    }
    if (name.ends_with(kStoreSuffix)) store_files.push_back(name);
  }
  ::closedir(d);
  std::sort(store_files.begin(), store_files.end());

  for (const std::string& file : store_files) {
    const std::string series =
        file.substr(0, file.size() - std::strlen(kStoreSuffix));
    if (!ValidSeriesName(series)) continue;  // Not one of ours.
    Result<std::unique_ptr<store::StoreReader>> reader =
        store::StoreReader::Open(dir + "/" + file);
    if (!reader.ok()) {
      // Unsalvageable checkpoint (bit rot): the series restarts from
      // whatever the WAL still covers; records past the gap are dropped.
      ++shard->salvaged_stores_;
      continue;
    }
    if (!(*reader)->clean()) ++shard->salvaged_stores_;
    Result<TimeSeries> all = (*reader)->ReadAll();
    if (!all.ok()) return all.status();
    SeriesState state;
    state.start_timestamp = all->start_timestamp();
    state.interval_seconds = all->interval_seconds();
    state.values = std::move(all->mutable_values());
    state.store_points = state.values.size();
    shard->series_.emplace(series, std::move(state));
  }

  // Pass 2: replay the WAL on top of the checkpoints.
  const std::string wal_path = dir + "/" + kWalFileName;
  uint64_t valid_bytes = kWalHeaderSize;
  Result<WalReplay> replay = ReplayWalFile(wal_path);
  if (replay.ok()) {
    shard->wal_clean_ = replay->clean;
    valid_bytes = replay->valid_bytes;
  } else if (replay.status().code() == StatusCode::kCorruption) {
    // A WAL whose header never made it to disk salvages as empty.
    shard->wal_clean_ = false;
    valid_bytes = 0;
  } else if (replay.status().code() != StatusCode::kNotFound) {
    return replay.status();
  }
  if (replay.ok()) {
    for (const WalRecord& record : replay->records) {
      shard->ApplyReplayedRecord(record);
    }
  }

  // Recovery rebuilt every series' durable value sequence; the streaming
  // state is a pure function of it, so re-feeding reproduces exactly the
  // state of a stream that saw only the surviving points.
  for (auto& [name, state] : shard->series_) {
    shard->AdvanceStream(state);
  }

  // A missing log, or one with an unreadable header, starts afresh here.
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(wal_path, valid_bytes);
  if (!wal.ok()) return wal.status();
  shard->wal_ = std::move(*wal);
  shard->wal_bytes_.store(shard->wal_->bytes(), std::memory_order_relaxed);
  return shard;
}

bool Shard::ApplyReplayedRecord(const WalRecord& record) {
  if (!ValidSeriesName(record.series) || record.interval_seconds <= 0 ||
      record.values.empty()) {
    return false;
  }
  auto it = series_.find(record.series);
  if (it == series_.end()) {
    if (record.first_index != 0) return false;  // Gap: the store is gone.
    SeriesState state;
    state.start_timestamp = record.first_timestamp;
    state.interval_seconds = record.interval_seconds;
    state.values = record.values;
    series_.emplace(record.series, std::move(state));
    ++replayed_records_;
    return true;
  }
  SeriesState& state = it->second;
  if (record.interval_seconds != state.interval_seconds) return false;
  const int64_t expected =
      state.start_timestamp +
      static_cast<int64_t>(record.first_index) * state.interval_seconds;
  if (record.first_timestamp != expected) return false;
  const uint64_t have = state.values.size();
  if (record.first_index > have) return false;  // Gap in the middle.
  const uint64_t covered = have - record.first_index;
  if (covered >= record.values.size()) return true;  // Fully checkpointed.
  state.values.insert(state.values.end(),
                      record.values.begin() + static_cast<long>(covered),
                      record.values.end());
  ++replayed_records_;
  return true;
}

Result<WalRecord> Shard::PrepareOp(
    const AppendOp& op, std::map<std::string, BatchSeries>& pending) const {
  if (!ValidSeriesName(op.series)) {
    return Status::InvalidArgument("invalid series id: '" + op.series + "'");
  }
  if (op.interval_seconds <= 0) {
    return Status::InvalidArgument("append requires a positive interval");
  }
  if (op.values.empty()) {
    return Status::InvalidArgument("append carries no points");
  }
  if (op.values.size() > kMaxAppendPoints) {
    return Status::InvalidArgument("append exceeds " +
                                   std::to_string(kMaxAppendPoints) +
                                   " points");
  }

  // The series' grid position, accounting for earlier ops in this batch.
  int64_t start = op.first_timestamp;
  int32_t interval = op.interval_seconds;
  uint64_t points = 0;
  bool exists = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(op.series);
    if (it != series_.end()) {
      exists = true;
      start = it->second.start_timestamp;
      interval = it->second.interval_seconds;
      points = it->second.values.size();
    }
  }
  // Earlier ops of this batch supersede committed state — including the grid
  // origin, which committed state lacks when the batch created the series.
  auto p = pending.find(op.series);
  if (p != pending.end()) {
    exists = true;
    start = p->second.start_timestamp;
    interval = p->second.interval_seconds;
    points = p->second.points;
  }

  if (exists && points > 0) {
    if (op.interval_seconds != interval) {
      return Status::InvalidArgument(
          "append interval " + std::to_string(op.interval_seconds) +
          " does not match the series' " + std::to_string(interval));
    }
    const int64_t expected =
        start + static_cast<int64_t>(points) * interval;
    if (op.first_timestamp != expected) {
      return Status::InvalidArgument(
          "append breaks the regular grid: expected timestamp " +
          std::to_string(expected) + ", got " +
          std::to_string(op.first_timestamp));
    }
  }

  WalRecord record;
  record.series = op.series;
  record.first_timestamp = op.first_timestamp;
  record.interval_seconds = op.interval_seconds;
  record.first_index = points;
  record.values = op.values;
  BatchSeries& entry = pending[op.series];
  entry.start_timestamp = start;
  entry.interval_seconds = interval;
  entry.points = points + op.values.size();
  return record;
}

std::vector<Status> Shard::AppendBatch(const std::vector<AppendOp>& ops) {
  std::vector<Status> statuses(ops.size(), Status::OK());
  if (failed_.load(std::memory_order_relaxed)) {
    for (Status& s : statuses) {
      s = Status::FailedPrecondition("shard writer failed earlier");
    }
    return statuses;
  }

  // Validate and log. `logged[i]` marks ops whose record reached the WAL;
  // none of them may be acked (or applied) unless the batch fsync succeeds.
  std::vector<WalRecord> records(ops.size());
  std::vector<bool> logged(ops.size(), false);
  std::map<std::string, BatchSeries> pending;
  bool any_logged = false;
  Status wal_failure = Status::OK();
  for (size_t i = 0; i < ops.size(); ++i) {
    Result<WalRecord> record = PrepareOp(ops[i], pending);
    if (!record.ok()) {
      statuses[i] = record.status();
      continue;
    }
    Status s = wal_->Append(*record);
    if (!s.ok()) {
      wal_failure = s;
      statuses[i] = s;
      break;
    }
    records[i] = std::move(*record);
    logged[i] = true;
    any_logged = true;
  }

  if (wal_failure.ok() && any_logged) {
    Status s = wal_->Sync();
    if (!s.ok()) wal_failure = s;
  }

  if (!wal_failure.ok()) {
    // The shard writer is dead; nothing from this batch was made durable,
    // so nothing becomes visible — readers and the recovery scan agree.
    failed_.store(true, std::memory_order_relaxed);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (statuses[i].ok()) statuses[i] = wal_failure;
    }
    return statuses;
  }

  if (any_logged) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!logged[i]) continue;
      const WalRecord& record = records[i];
      auto [it, created] = series_.try_emplace(record.series);
      SeriesState& state = it->second;
      if (created) {
        state.start_timestamp = record.first_timestamp;
        state.interval_seconds = record.interval_seconds;
      }
      state.values.insert(state.values.end(), record.values.begin(),
                          record.values.end());
      AdvanceStream(state);
      ++appended_ops_;
    }
    wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  }

  if (any_logged &&
      wal_->bytes() > kWalHeaderSize + options_.flush_wal_bytes) {
    Flush();  // Failure is counted, not fatal: the WAL covers everything.
  }
  return statuses;
}

Status Shard::Flush() {
  if (failed_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard writer failed earlier");
  }

  // Snapshot the dirty series. AppendBatch/Flush are single-writer, so the
  // copies cannot go stale before the checkpoint finishes.
  struct DirtySeries {
    std::string name;
    int64_t start = 0;
    int32_t interval = 0;
    std::vector<double> values;
  };
  std::vector<DirtySeries> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : series_) {
      if (state.values.size() > state.store_points) {
        dirty.push_back({name, state.start_timestamp, state.interval_seconds,
                         state.values});
      }
    }
  }

  if (dirty.empty() && wal_->bytes() <= kWalHeaderSize) {
    return Status::OK();  // Nothing to checkpoint, nothing to reset.
  }

  auto abort_flush = [this](Status s) {
    std::lock_guard<std::mutex> lock(mu_);
    ++flush_failures_;
    return s;
  };

  for (const DirtySeries& series : dirty) {
    if (Status s = FailPoints::Hit("shard_flush"); !s.ok()) {
      return abort_flush(s);
    }
    store::StoreOptions store_options;
    store_options.error_bound = options_.error_bound;
    store_options.chunk_span = options_.chunk_span;
    store_options.codecs = options_.codecs;
    store_options.sync = options_.sync;
    const std::string final_path = dir_ + "/" + series.name + kStoreSuffix;
    const std::string tmp_path = final_path + kTmpSuffix;
    Result<std::unique_ptr<store::StoreWriter>> writer =
        store::StoreWriter::Create(tmp_path, store_options);
    if (!writer.ok()) return abort_flush(writer.status());
    TimeSeries snapshot(series.start, series.interval, series.values);
    if (Status s = (*writer)->Append(snapshot); !s.ok()) {
      return abort_flush(s);
    }
    if (Status s = (*writer)->Finish(); !s.ok()) return abort_flush(s);
    if (Status s = durable::Rename(tmp_path, final_path); !s.ok()) {
      return abort_flush(s);
    }
  }
  if (!dirty.empty() && options_.sync) {
    if (Status s = durable::SyncDir(dir_); !s.ok()) return abort_flush(s);
  }

  // The stores are durable; the log may now be reset. A crash anywhere up
  // to here replays the old WAL over the new stores — idempotent by
  // first_index — so there is no ordering hazard.
  if (Status s = FailPoints::Hit("shard_flush"); !s.ok()) {
    return abort_flush(s);
  }
  const std::string wal_path = dir_ + "/" + kWalFileName;
  const uint64_t old_bytes = wal_->bytes();
  wal_.reset();
  Status reset = ResetWalFile(wal_path);
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(
      wal_path, reset.ok() ? kWalHeaderSize : old_bytes);
  if (!wal.ok()) {
    // Cannot even reopen the old log: the shard can no longer make
    // anything durable.
    failed_.store(true, std::memory_order_relaxed);
    return abort_flush(wal.status());
  }
  wal_ = std::move(*wal);
  wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  if (!reset.ok()) return abort_flush(reset);

  std::lock_guard<std::mutex> lock(mu_);
  for (const DirtySeries& series : dirty) {
    series_[series.name].store_points = series.values.size();
  }
  ++flushes_;
  return Status::OK();
}

Result<TimeSeries> Shard::ReadRange(const std::string& series, int64_t t0,
                                    int64_t t1) const {
  if (t0 > t1) return Status::InvalidArgument("inverted time range");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) {
    return Status::NotFound("no series named '" + series + "'");
  }
  const SeriesState& state = it->second;
  const int64_t start = state.start_timestamp;
  const int64_t interval = state.interval_seconds;
  const uint64_t n = state.values.size();
  if (n == 0) return TimeSeries(start, state.interval_seconds, {});
  const int64_t last = start + static_cast<int64_t>(n - 1) * interval;
  if (t1 < start || t0 > last) {
    return TimeSeries(start, state.interval_seconds, {});
  }
  uint64_t g0 = 0;
  if (t0 > start) {
    g0 = static_cast<uint64_t>((t0 - start + interval - 1) / interval);
  }
  uint64_t g1 = n - 1;
  if (t1 < last) g1 = static_cast<uint64_t>((t1 - start) / interval);
  if (g0 > g1) return TimeSeries(start, state.interval_seconds, {});
  std::vector<double> values(state.values.begin() + static_cast<long>(g0),
                             state.values.begin() + static_cast<long>(g1 + 1));
  return TimeSeries(start + static_cast<int64_t>(g0) * interval,
                    state.interval_seconds, std::move(values));
}

void Shard::AdvanceStream(SeriesState& state) {
  if (options_.stream_codec.empty() || state.stream_failed) return;
  if (state.stream == nullptr) {
    Result<std::unique_ptr<stream::StreamingCompressor>> made =
        stream::MakeStreamingCompressor(options_.stream_codec);
    if (!made.ok() ||
        !(*made)
             ->Open(state.start_timestamp, state.interval_seconds,
                    options_.stream_error_bound)
             .ok()) {
      // Series metadata outside the streaming header's range (i64 timestamp
      // past i32, interval past u16): the series still serves appends and
      // reads, it just has no stream state.
      state.stream_failed = true;
      return;
    }
    state.stream = std::move(*made);
  }
  while (state.stream_fed < state.values.size()) {
    // Per-point rejection (non-finite values, u32 point-count cap) skips the
    // offending value but keeps the stream alive; the count makes the
    // discrepancy visible in StreamInfo.
    if (!state.stream
             ->Append(state.values[static_cast<size_t>(state.stream_fed)])
             .ok()) {
      ++state.stream_rejected;
    }
    ++state.stream_fed;
  }
}

Result<SeriesStreamInfo> Shard::StreamInfo(const std::string& series) const {
  if (options_.stream_codec.empty()) {
    return Status::FailedPrecondition(
        "shard runs without a stream codec (--stream)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) {
    return Status::NotFound("no series named '" + series + "'");
  }
  const SeriesState& state = it->second;
  if (state.stream == nullptr) {
    return Status::FailedPrecondition(
        "series '" + series +
        "' has no stream state: its grid does not fit the streaming header");
  }
  SeriesStreamInfo info;
  info.codec = options_.stream_codec;
  info.error_bound = options_.stream_error_bound;
  info.points = state.stream->points();
  info.rejected = state.stream_rejected;
  info.segments = state.stream->segments();
  info.open_length = state.stream->open_length();
  const compress::SegmentModel open = state.stream->Provisional();
  info.open_anchor = open.anchor;
  info.open_slope = open.slope;
  return info;
}

std::vector<std::string> Shard::ListSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, state] : series_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

ShardStats Shard::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardStats stats;
  stats.series = series_.size();
  for (const auto& [name, state] : series_) {
    stats.points += state.values.size();
    if (state.stream != nullptr) {
      stats.streamed_points += state.stream->points();
      stats.stream_segments += state.stream->segments();
    }
    stats.stream_rejected += state.stream_rejected;
  }
  stats.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  stats.appended_ops = appended_ops_;
  stats.flushes = flushes_;
  stats.flush_failures = flush_failures_;
  stats.salvaged_stores = salvaged_stores_;
  stats.replayed_records = replayed_records_;
  stats.wal_clean = wal_clean_;
  stats.failed = failed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace lossyts::serve

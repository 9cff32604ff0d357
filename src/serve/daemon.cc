#include "serve/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/seed.h"
#include "serve/wal.h"

namespace lossyts::serve {

namespace {

constexpr const char* kShardCountFile = "shards";
constexpr uint32_t kMaxShards = 1024;
/// Accept/idle polls use this tick so stopping_ is observed promptly.
constexpr int kPollTickMs = 200;

Result<uint32_t> ReadShardCount(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no shard count file");
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  char buffer[32] = {0};
  const ssize_t n = ::read(fd, buffer, sizeof(buffer) - 1);
  ::close(fd);
  if (n <= 0) return Status::Corruption("empty shard count file " + path);
  char* end = nullptr;
  const unsigned long count = std::strtoul(buffer, &end, 10);
  if (end == buffer || count == 0 || count > kMaxShards) {
    return Status::Corruption("implausible shard count in " + path);
  }
  return static_cast<uint32_t>(count);
}

Status WriteShardCount(const std::string& dir, const std::string& path,
                       uint32_t count) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  const std::string text = std::to_string(count) + "\n";
  Status s = Status::OK();
  if (::write(fd, text.data(), text.size()) !=
      static_cast<ssize_t>(text.size())) {
    s = Status::IoError("write to " + tmp + " failed");
  }
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError("fsync of " + tmp + " failed");
  }
  ::close(fd);
  if (!s.ok()) return s;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename of " + tmp + " failed: " +
                           std::strerror(errno));
  }
  return SyncDirectory(dir);
}

/// Waits for readability; +1 ready, 0 timeout, -1 dead fd.
int PollIn(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) {
      return (pfd.revents & (POLLERR | POLLNVAL)) != 0 ? -1 : 1;
    }
    if (rc == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

}  // namespace

size_t Daemon::ShardFor(const std::string& series) const {
  return static_cast<size_t>(HashTag(series) % shards_.size());
}

Result<std::unique_ptr<Daemon>> Daemon::Start(const DaemonOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("serve catalog directory is required");
  }
  if (options.shards == 0 || options.shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (Status s = EnsureDirectory(options.dir); !s.ok()) return s;

  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->options_ = options;
  daemon->socket_path_ = options.socket_path.empty()
                             ? options.dir + "/serve.sock"
                             : options.socket_path;

  // The persisted shard count wins over --shards: series→shard placement is
  // part of the on-disk layout, so it must survive restarts unchanged.
  uint32_t shards = options.shards;
  const std::string count_path =
      options.dir + "/" + std::string(kShardCountFile);
  Result<uint32_t> persisted = ReadShardCount(count_path);
  if (persisted.ok()) {
    shards = *persisted;
  } else if (persisted.status().code() == StatusCode::kNotFound) {
    if (Status s = WriteShardCount(options.dir, count_path, shards);
        !s.ok()) {
      return s;
    }
  } else {
    return persisted.status();
  }

  for (uint32_t i = 0; i < shards; ++i) {
    Result<std::unique_ptr<Shard>> shard = Shard::Open(
        options.dir + "/shard-" + std::to_string(i), options.shard);
    if (!shard.ok()) return shard.status();
    daemon->shards_.push_back(std::move(*shard));
    daemon->queues_.push_back(std::make_unique<ShardQueue>());
  }

  daemon->pool_ = std::make_unique<ThreadPool>(
      options.jobs == 0 ? ThreadPool::DefaultJobs() : options.jobs);

  Result<int> listener = ListenUnix(daemon->socket_path_);
  if (!listener.ok()) return listener.status();
  daemon->listen_fd_ = *listener;
  daemon->accept_thread_ = std::thread([d = daemon.get()] { d->AcceptLoop(); });
  return daemon;
}

Daemon::~Daemon() { Stop(); }

void Daemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready = PollIn(listen_fd_, kPollTickMs);
    if (ready < 0) break;
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // Listener closed by Stop().
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void Daemon::ServeConnection(int fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Idle wait at the frame boundary is unbounded (a quiet client is not a
    // slow client); only once bytes start flowing does the eviction clock
    // run.
    const int ready = PollIn(fd, kPollTickMs);
    if (ready < 0) break;
    if (ready == 0) continue;

    Result<std::vector<uint8_t>> payload =
        ReadFrame(fd, options_.client_timeout_ms);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kUnavailable) {
        evicted_clients_.fetch_add(1, std::memory_order_relaxed);
      }
      break;  // Clean EOF, torn frame, or a stalled peer: drop it.
    }
    Result<Request> request = DecodeRequest(*payload);
    Reply reply;
    RequestType type = RequestType::kPing;
    if (!request.ok()) {
      reply = ReplyFromStatus(request.status(), options_.retry_after_ms);
    } else {
      type = request->type;
      reply = Handle(std::move(*request));
    }
    Status written =
        WriteFrame(fd, EncodeReply(type, reply), options_.client_timeout_ms);
    if (!written.ok()) {
      if (written.code() == StatusCode::kUnavailable) {
        evicted_clients_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (type == RequestType::kShutdown) {
      // Acked first, acted on second: the client's shutdown request never
      // races its own reply.
      stop_requested_.store(true, std::memory_order_relaxed);
      stop_cv_.notify_all();
      break;
    }
  }
  ::close(fd);
}

Reply Daemon::HandleAppend(Request request) {
  auto pending = std::make_shared<PendingAppend>();
  pending->op.series = std::move(request.series);
  pending->op.first_timestamp = request.first_timestamp;
  pending->op.interval_seconds = request.interval_seconds;
  pending->op.values = std::move(request.values);

  if (!Shard::ValidSeriesName(pending->op.series)) {
    return ReplyFromStatus(
        Status::InvalidArgument("invalid series id: '" + pending->op.series +
                                "'"),
        options_.retry_after_ms);
  }
  const size_t index = ShardFor(pending->op.series);
  ShardQueue& queue = *queues_[index];
  bool need_drain = false;
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    if (stopping_.load(std::memory_order_relaxed)) {
      return ReplyFromStatus(Status::Unavailable("daemon is shutting down"),
                             options_.retry_after_ms);
    }
    if (queue.pending.size() >= options_.max_queue_ops) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return ReplyFromStatus(
          Status::Unavailable("shard ingest queue is full"),
          options_.retry_after_ms);
    }
    queue.pending.push_back(pending);
    if (!queue.scheduled) {
      queue.scheduled = true;
      need_drain = true;
    }
  }
  // Submitted outside the queue lock: in inline-pool mode (single-core
  // machines) Submit runs the drain on this very thread, which must be able
  // to re-take queue.mu.
  if (need_drain) {
    pool_->Submit([this, index] { DrainShard(index); });
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lock(pending->mu);
  const bool done = pending->cv.wait_for(
      lock, std::chrono::milliseconds(options_.append_deadline_ms),
      [&] { return pending->done; });
  if (!done) {
    // The op is already queued (and possibly WAL-durable); only the ack is
    // abandoned. The client must treat this as commit-unknown.
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    return ReplyFromStatus(
        Status::Unavailable(
            "append deadline exceeded; the write may still commit"),
        options_.retry_after_ms);
  }
  return ReplyFromStatus(pending->status, options_.retry_after_ms);
}

Reply Daemon::Handle(Request request) {
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kShutdown:
      return Reply{};
    case RequestType::kAppend:
      return HandleAppend(std::move(request));
    case RequestType::kReadRange: {
      if (!Shard::ValidSeriesName(request.series)) {
        return ReplyFromStatus(Status::NotFound("invalid series id: '" +
                                                request.series + "'"),
                               options_.retry_after_ms);
      }
      Result<TimeSeries> series =
          shards_[ShardFor(request.series)]->ReadRange(request.series,
                                                       request.t0,
                                                       request.t1);
      if (!series.ok()) {
        return ReplyFromStatus(series.status(), options_.retry_after_ms);
      }
      Reply reply;
      reply.start_timestamp = series->start_timestamp();
      reply.interval_seconds = series->interval_seconds();
      reply.values = std::move(series->mutable_values());
      return reply;
    }
    case RequestType::kStats: {
      Reply reply;
      reply.stats = Stats();
      return reply;
    }
    case RequestType::kListSeries: {
      Reply reply;
      for (const std::unique_ptr<Shard>& shard : shards_) {
        std::vector<std::string> names = shard->ListSeries();
        reply.names.insert(reply.names.end(),
                           std::make_move_iterator(names.begin()),
                           std::make_move_iterator(names.end()));
      }
      std::sort(reply.names.begin(), reply.names.end());
      return reply;
    }
    case RequestType::kQuery:
      return HandleQuery(request.query);
    case RequestType::kStreamInfo: {
      if (!Shard::ValidSeriesName(request.series)) {
        return ReplyFromStatus(Status::NotFound("invalid series id: '" +
                                                request.series + "'"),
                               options_.retry_after_ms);
      }
      Result<SeriesStreamInfo> info =
          shards_[ShardFor(request.series)]->StreamInfo(request.series);
      if (!info.ok()) {
        return ReplyFromStatus(info.status(), options_.retry_after_ms);
      }
      Reply reply;
      reply.stream = std::move(*info);
      return reply;
    }
  }
  return ReplyFromStatus(Status::Internal("unhandled request type"),
                         options_.retry_after_ms);
}

Reply Daemon::HandleQuery(const QuerySpec& spec) {
  const auto fail = [&](const Status& status) {
    return ReplyFromStatus(status, options_.retry_after_ms);
  };
  if (spec.metrics.empty()) {
    return fail(Status::InvalidArgument("query requests no metrics"));
  }
  if (spec.pred_suffix.empty()) {
    return fail(Status::InvalidArgument(
        "metric queries need a non-empty pred suffix to pair series"));
  }
  query::QueryOptions qopts;
  qopts.metrics = spec.metrics;
  Result<query::GroupMode> mode = query::ParseGroupMode(spec.group_by);
  if (!mode.ok()) return fail(mode.status());
  qopts.group_by = *mode;
  qopts.delimiter = spec.delimiter;
  qopts.t0 = spec.t0;
  qopts.t1 = spec.t1;
  qopts.pred_suffix = spec.pred_suffix;
  qopts.season_length = spec.season_length;

  // Every catalog series `<name>` (minus the forecast pairs themselves)
  // joins the query; each series' snapshot is consistent under its shard
  // mutex, so a query never sees half of an append.
  std::vector<std::string> names;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::string> shard_names = shard->ListSeries();
    names.insert(names.end(), std::make_move_iterator(shard_names.begin()),
                 std::make_move_iterator(shard_names.end()));
  }
  std::sort(names.begin(), names.end());

  std::vector<std::pair<TimeSeries, TimeSeries>> snapshots;
  std::vector<std::string> selected;
  for (const std::string& name : names) {
    if (name.ends_with(spec.pred_suffix)) continue;
    if (!spec.match.empty() &&
        name.find(spec.match) == std::string::npos) {
      continue;
    }
    Result<TimeSeries> actual =
        shards_[ShardFor(name)]->ReadRange(name, spec.t0, spec.t1);
    if (!actual.ok()) return fail(actual.status());
    const std::string pred_name = name + spec.pred_suffix;
    Result<TimeSeries> predicted =
        shards_[ShardFor(pred_name)]->ReadRange(pred_name, spec.t0, spec.t1);
    if (!predicted.ok()) {
      return fail(Status::NotFound("series '" + name +
                                   "' has no forecast series '" + pred_name +
                                   "'"));
    }
    snapshots.emplace_back(std::move(*actual), std::move(*predicted));
    selected.push_back(name);
  }
  std::vector<query::SeriesInput> inputs;
  inputs.reserve(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    inputs.push_back(
        {selected[i], &snapshots[i].first, &snapshots[i].second});
  }
  Result<query::QueryResult> result =
      query::EvaluateGroupedSeries(inputs, qopts);
  if (!result.ok()) return fail(result.status());
  Reply reply;
  reply.query = std::move(*result);
  return reply;
}

void Daemon::DrainShard(size_t index) {
  ShardQueue& queue = *queues_[index];
  while (true) {
    std::vector<std::shared_ptr<PendingAppend>> batch;
    {
      std::lock_guard<std::mutex> lock(queue.mu);
      if (queue.pending.empty()) {
        queue.scheduled = false;
        return;
      }
      batch.swap(queue.pending);
    }
    std::vector<AppendOp> ops;
    ops.reserve(batch.size());
    for (const std::shared_ptr<PendingAppend>& pending : batch) {
      ops.push_back(pending->op);
    }
    const std::vector<Status> statuses = shards_[index]->AppendBatch(ops);
    for (size_t i = 0; i < batch.size(); ++i) {
      std::lock_guard<std::mutex> lock(batch[i]->mu);
      batch[i]->status = statuses[i];
      batch[i]->done = true;
      batch[i]->cv.notify_all();
    }
  }
}

ServeStats Daemon::Stats() const {
  ServeStats stats;
  stats.shards = shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const ShardStats s = shard->Stats();
    stats.series += s.series;
    stats.points += s.points;
    stats.wal_bytes += s.wal_bytes;
    stats.appended_ops += s.appended_ops;
    stats.flushes += s.flushes;
    stats.flush_failures += s.flush_failures;
    stats.salvaged_stores += s.salvaged_stores;
    stats.replayed_records += s.replayed_records;
    stats.streamed_points += s.streamed_points;
    stats.stream_segments += s.stream_segments;
    stats.stream_rejected += s.stream_rejected;
    if (s.failed) ++stats.failed_shards;
  }
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  stats.evicted_clients = evicted_clients_.load(std::memory_order_relaxed);
  return stats;
}

void Daemon::Wait(std::function<bool()> interrupted) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (true) {
    if (stopped_ || stop_requested_.load(std::memory_order_relaxed)) return;
    if (interrupted && interrupted()) return;
    stop_cv_.wait_for(lock, std::chrono::milliseconds(kPollTickMs));
  }
}

Status Daemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return Status::OK();
  }
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }
  // Connection threads observe stopping_ within one poll tick and finish
  // their in-flight request first.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  // Every admitted append was enqueued with a drain task armed; Wait()
  // drains them all, so admitted-but-unacked writes still commit.
  pool_->Wait();
  Status first_failure = Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (Status s = shard->Flush();
        !s.ok() && s.code() != StatusCode::kFailedPrecondition &&
        first_failure.ok()) {
      first_failure = s;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
  return first_failure;
}

}  // namespace lossyts::serve

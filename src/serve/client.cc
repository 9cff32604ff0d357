#include "serve/client.h"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

namespace lossyts::serve {

Result<std::unique_ptr<Client>> Client::Connect(
    const std::string& socket_path, const ClientOptions& options) {
  std::unique_ptr<Client> client(new Client());
  client->path_ = socket_path;
  client->options_ = options;
  Result<int> fd = ConnectUnix(socket_path);
  if (!fd.ok()) return fd.status();
  client->fd_ = *fd;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Reply> Client::RoundTrip(const Request& request) {
  if (Status s = ValidateRequest(request); !s.ok()) return s;
  const std::vector<uint8_t> payload = EncodeRequest(request);
  for (int attempt = 0;; ++attempt) {
    if (Status s = WriteFrame(fd_, payload, options_.timeout_ms); !s.ok()) {
      return s;
    }
    Result<std::vector<uint8_t>> frame = ReadFrame(fd_, options_.timeout_ms);
    if (!frame.ok()) return frame.status();
    Result<Reply> reply = DecodeReply(request.type, *frame);
    if (!reply.ok()) return reply.status();
    if (reply->kind != ReplyKind::kRetry || attempt >= options_.max_retries) {
      return reply;
    }
    // Honour the server's backoff hint, with a floor so a zero hint cannot
    // spin the socket.
    const uint32_t backoff_ms =
        reply->retry_after_ms == 0 ? 1 : reply->retry_after_ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

Status Client::Ping() {
  Request request;
  request.type = RequestType::kPing;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  return StatusFromReply(*reply);
}

Status Client::Append(const std::string& series, int64_t first_timestamp,
                      int32_t interval_seconds,
                      const std::vector<double>& values) {
  Request request;
  request.type = RequestType::kAppend;
  request.series = series;
  request.first_timestamp = first_timestamp;
  request.interval_seconds = interval_seconds;
  request.values = values;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  return StatusFromReply(*reply);
}

Result<TimeSeries> Client::ReadRange(const std::string& series, int64_t t0,
                                     int64_t t1) {
  Request request;
  request.type = RequestType::kReadRange;
  request.series = series;
  request.t0 = t0;
  request.t1 = t1;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  if (Status s = StatusFromReply(*reply); !s.ok()) return s;
  return TimeSeries(reply->start_timestamp, reply->interval_seconds,
                    std::move(reply->values));
}

Result<ServeStats> Client::Stats() {
  Request request;
  request.type = RequestType::kStats;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  if (Status s = StatusFromReply(*reply); !s.ok()) return s;
  return reply->stats;
}

Result<std::vector<std::string>> Client::ListSeries() {
  Request request;
  request.type = RequestType::kListSeries;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  if (Status s = StatusFromReply(*reply); !s.ok()) return s;
  return std::move(reply->names);
}

Result<query::QueryResult> Client::Query(const QuerySpec& spec) {
  Request request;
  request.type = RequestType::kQuery;
  request.query = spec;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  if (Status s = StatusFromReply(*reply); !s.ok()) return s;
  return std::move(reply->query);
}

Result<SeriesStreamInfo> Client::StreamInfo(const std::string& series) {
  Request request;
  request.type = RequestType::kStreamInfo;
  request.series = series;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  if (Status s = StatusFromReply(*reply); !s.ok()) return s;
  return std::move(reply->stream);
}

Status Client::Shutdown() {
  Request request;
  request.type = RequestType::kShutdown;
  Result<Reply> reply = RoundTrip(request);
  if (!reply.ok()) return reply.status();
  return StatusFromReply(*reply);
}

}  // namespace lossyts::serve

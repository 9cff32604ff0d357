#include "serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "serve/fields.h"

namespace lossyts::serve {

namespace {

constexpr compress::FrameFormat kWireFrame{kFrameMagic, 0, kMaxFramePayload,
                                           "frame"};

bool KnownRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(RequestType::kPing) &&
         type <= static_cast<uint8_t>(RequestType::kStreamInfo);
}

// Field lists (serve/fields.h): each message's fields, in wire order, once
// for both directions. `M` is the message type, const when encoding.

template <typename V, typename M>
void QuerySpecFields(V& v, M& query) {
  v.Field(query.metrics);
  v.Field(query.group_by);
  v.Field(query.delimiter);
  v.Field(query.t0);
  v.Field(query.t1);
  v.Field(query.match);
  v.Field(query.pred_suffix);
  v.Field(query.season_length);
}

/// A request's payload after its type byte.
template <typename V, typename M>
void RequestFields(V& v, M& request) {
  switch (request.type) {
    case RequestType::kAppend:
      v.Field(request.series);
      v.Field(request.first_timestamp);
      v.Field(request.interval_seconds);
      v.Field(request.values);
      break;
    case RequestType::kReadRange:
      v.Field(request.series);
      v.Field(request.t0);
      v.Field(request.t1);
      break;
    case RequestType::kStreamInfo:
      v.Field(request.series);
      break;
    case RequestType::kQuery:
      QuerySpecFields(v, request.query);
      break;
    case RequestType::kPing:
    case RequestType::kStats:
    case RequestType::kShutdown:
    case RequestType::kListSeries:
      break;
  }
}

template <typename V, typename M>
void QueryResultFields(V& v, M& result) {
  v.Field(result.metric_names);
  v.Field(result.aggregate_names);
  v.List(result.rows, [](V& row_v, auto& row) {
    row_v.Field(row.group);
    row_v.Field(row.series_count);
    row_v.Field(row.points);
    row_v.Field(row.aggregates);
    row_v.Field(row.metrics);
  });
}

template <typename V, typename M>
void StatsFields(V& v, M& stats) {
  v.Field(stats.shards);
  v.Field(stats.series);
  v.Field(stats.points);
  v.Field(stats.wal_bytes);
  v.Field(stats.appended_ops);
  v.Field(stats.flushes);
  v.Field(stats.flush_failures);
  v.Field(stats.salvaged_stores);
  v.Field(stats.replayed_records);
  v.Field(stats.streamed_points);
  v.Field(stats.stream_segments);
  v.Field(stats.stream_rejected);
  v.Field(stats.failed_shards);
  v.Field(stats.accepted);
  v.Field(stats.rejected);
  v.Field(stats.deadline_misses);
  v.Field(stats.evicted_clients);
}

template <typename V, typename M>
void StreamInfoFields(V& v, M& info) {
  v.Field(info.codec);
  v.Field(info.error_bound);
  v.Field(info.points);
  v.Field(info.rejected);
  v.Field(info.segments);
  v.Field(info.open_length);
  v.Field(info.open_anchor);
  v.Field(info.open_slope);
}

/// A reply's payload after its kind byte: kError and kRetry carry their own
/// fields; a kOk reply's fields depend on the request type it answers.
template <typename V, typename M>
void ReplyFields(V& v, RequestType type, M& reply) {
  if (reply.kind == ReplyKind::kError) {
    v.Field(reply.code);
    v.LongString(reply.message);
    return;
  }
  if (reply.kind == ReplyKind::kRetry) {
    v.Field(reply.retry_after_ms);
    v.LongString(reply.message);
    return;
  }
  switch (type) {
    case RequestType::kReadRange:
      v.Field(reply.start_timestamp);
      v.Field(reply.interval_seconds);
      v.Field(reply.values);
      break;
    case RequestType::kStats:
      StatsFields(v, reply.stats);
      break;
    case RequestType::kListSeries:
      v.Field(reply.names);
      break;
    case RequestType::kQuery:
      QueryResultFields(v, reply.query);
      break;
    case RequestType::kStreamInfo:
      StreamInfoFields(v, reply.stream);
      break;
    case RequestType::kPing:
    case RequestType::kAppend:
    case RequestType::kShutdown:
      break;
  }
}

StatusCode CodeFromWire(uint8_t code) {
  switch (code) {
    case static_cast<uint8_t>(StatusCode::kInvalidArgument):
      return StatusCode::kInvalidArgument;
    case static_cast<uint8_t>(StatusCode::kOutOfRange):
      return StatusCode::kOutOfRange;
    case static_cast<uint8_t>(StatusCode::kCorruption):
      return StatusCode::kCorruption;
    case static_cast<uint8_t>(StatusCode::kNotFound):
      return StatusCode::kNotFound;
    case static_cast<uint8_t>(StatusCode::kFailedPrecondition):
      return StatusCode::kFailedPrecondition;
    case static_cast<uint8_t>(StatusCode::kIoError):
      return StatusCode::kIoError;
    case static_cast<uint8_t>(StatusCode::kUnavailable):
      return StatusCode::kUnavailable;
    default:
      return StatusCode::kInternal;
  }
}

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kIoError:
      return Status::IoError(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

Status CheckShortString(const std::string& s, const char* field) {
  if (s.size() <= kMaxShortStringBytes) return Status::OK();
  return Status::InvalidArgument(
      std::string(field) + " is " + std::to_string(s.size()) +
      " bytes; the protocol carries at most " +
      std::to_string(kMaxShortStringBytes));
}

}  // namespace

Status ValidateRequest(const Request& request) {
  switch (request.type) {
    case RequestType::kAppend:
    case RequestType::kReadRange:
    case RequestType::kStreamInfo:
      return CheckShortString(request.series, "series");
    case RequestType::kQuery: {
      for (const std::string& metric : request.query.metrics) {
        if (Status s = CheckShortString(metric, "metric"); !s.ok()) return s;
      }
      const std::pair<const std::string*, const char*> fields[] = {
          {&request.query.group_by, "group_by"},
          {&request.query.delimiter, "delimiter"},
          {&request.query.match, "match"},
          {&request.query.pred_suffix, "pred_suffix"},
      };
      for (const auto& [value, name] : fields) {
        if (Status s = CheckShortString(*value, name); !s.ok()) return s;
      }
      return Status::OK();
    }
    case RequestType::kPing:
    case RequestType::kStats:
    case RequestType::kShutdown:
    case RequestType::kListSeries:
      return Status::OK();
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeRequest(const Request& request) {
  if (!ValidateRequest(request).ok()) return {};
  FieldWriter writer;
  writer.Field(static_cast<uint8_t>(request.type));
  RequestFields(writer, request);
  return writer.Finish();
}

Result<Request> DecodeRequest(std::span<const uint8_t> payload) {
  FieldReader reader(payload);
  uint8_t type = 0;
  reader.Field(type);
  if (!reader.ok()) return reader.Finish();
  if (!KnownRequestType(type)) {
    return Status::Corruption("unknown request type " + std::to_string(type));
  }
  Request request;
  request.type = static_cast<RequestType>(type);
  RequestFields(reader, request);
  if (Status s = reader.Finish(); !s.ok()) return s;
  return request;
}

std::vector<uint8_t> EncodeReply(RequestType type, const Reply& reply) {
  FieldWriter writer;
  writer.Field(static_cast<uint8_t>(reply.kind));
  ReplyFields(writer, type, reply);
  return writer.Finish();
}

Result<Reply> DecodeReply(RequestType type, std::span<const uint8_t> payload) {
  FieldReader reader(payload);
  uint8_t kind = 0;
  reader.Field(kind);
  if (!reader.ok()) return reader.Finish();
  if (kind > static_cast<uint8_t>(ReplyKind::kRetry)) {
    return Status::Corruption("unknown reply kind " + std::to_string(kind));
  }
  if (kind == static_cast<uint8_t>(ReplyKind::kOk) &&
      !KnownRequestType(static_cast<uint8_t>(type))) {
    return Status::Corruption("reply for an unknown request type");
  }
  Reply reply;
  reply.kind = static_cast<ReplyKind>(kind);
  ReplyFields(reader, type, reply);
  if (Status s = reader.Finish(); !s.ok()) return s;
  return reply;
}

Reply ReplyFromStatus(const Status& status, uint32_t retry_after_ms) {
  Reply reply;
  if (status.ok()) return reply;
  if (status.code() == StatusCode::kUnavailable) {
    reply.kind = ReplyKind::kRetry;
    reply.retry_after_ms = retry_after_ms;
    reply.message = status.message();
    return reply;
  }
  reply.kind = ReplyKind::kError;
  reply.code = static_cast<uint8_t>(status.code());
  reply.message = status.message();
  return reply;
}

Status StatusFromReply(const Reply& reply) {
  switch (reply.kind) {
    case ReplyKind::kOk:
      return Status::OK();
    case ReplyKind::kRetry:
      return Status::Unavailable(reply.message.empty() ? "server overloaded"
                                                       : reply.message);
    case ReplyKind::kError:
      return MakeStatus(CodeFromWire(reply.code), reply.message);
  }
  return Status::Internal("malformed reply");
}

namespace {

/// Polls `fd` for `events` within the timeout. OK when ready; Unavailable on
/// timeout; IoError otherwise.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::Unavailable("peer did not become ready in " +
                                 std::to_string(timeout_ms) + "ms");
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("poll failed: ") +
                           std::strerror(errno));
  }
}

Status SendAll(int fd, std::span<const uint8_t> bytes, int timeout_ms) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    if (Status s = PollFor(fd, POLLOUT, timeout_ms); !s.ok()) return s;
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("socket send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `clean_eof_ok`: a clean close before the
/// first byte is NotFound (peer hung up between frames); any later EOF is a
/// torn frame.
Status RecvAll(int fd, uint8_t* data, size_t size, int timeout_ms,
               bool clean_eof_ok) {
  size_t received = 0;
  while (received < size) {
    if (Status s = PollFor(fd, POLLIN, timeout_ms); !s.ok()) return s;
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("socket recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof_ok && received == 0) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::Corruption("connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::span<const uint8_t> payload, int timeout_ms) {
  compress::ByteWriter writer;
  if (Status s = compress::PutFrame(writer, kWireFrame, payload); !s.ok()) {
    return s;
  }
  const std::vector<uint8_t> frame = writer.Finish();

  // Crash injection: half the frame leaves the socket and the write errors —
  // the peer must treat the torn frame as a dead connection, never as data.
  Status crash = FailPoints::Hit("socket_write");
  if (!crash.ok()) {
    SendAll(fd, std::span(frame).first(frame.size() / 2), timeout_ms);
    return crash;
  }
  return SendAll(fd, frame, timeout_ms);
}

Result<std::vector<uint8_t>> ReadFrame(int fd, int timeout_ms) {
  std::vector<uint8_t> frame(compress::kFrameHeaderSize);
  if (Status s = RecvAll(fd, frame.data(), frame.size(), timeout_ms, true);
      !s.ok()) {
    return s;
  }
  // A bad magic or an implausible size is refused before the payload is
  // read or allocated.
  Result<uint32_t> size = compress::ParseFrameHeader(frame, kWireFrame);
  if (!size.ok()) return size.status();
  frame.resize(compress::kFrameOverhead + *size);
  if (Status s = RecvAll(fd, frame.data() + compress::kFrameHeaderSize,
                         frame.size() - compress::kFrameHeaderSize,
                         timeout_ms, false);
      !s.ok()) {
    return s;
  }
  if (Result<compress::FrameView> view =
          compress::ParseFrame(frame, kWireFrame);
      !view.ok()) {
    return view.status();
  }
  frame.erase(frame.begin(), frame.begin() + compress::kFrameHeaderSize);
  frame.resize(*size);
  return frame;
}

Result<int> ListenUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("cannot create socket: ") +
                           std::strerror(errno));
  }
  ::unlink(path.c_str());  // Replace a stale socket from a killed daemon.
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Status::IoError("cannot bind " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    const Status s = Status::IoError("cannot listen on " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("cannot create socket: ") +
                           std::strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status s = Status::IoError("cannot connect to " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

}  // namespace lossyts::serve

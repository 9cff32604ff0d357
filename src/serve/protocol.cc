#include "serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/crc32.h"

namespace lossyts::serve {

namespace {

/// Error messages longer than this are truncated on the wire; the cap keeps
/// a reply frame small no matter what a Status carries.
constexpr size_t kMaxMessageBytes = 4096;

/// Writes a u8 length and the bytes. Callers keep `s` within
/// kMaxShortStringBytes: request strings pass ValidateRequest first, and a
/// reply's strings are series names the daemon accepted (at most 128 bytes),
/// groups cut from them, metric names and codec names.
void PutShortString(compress::ByteWriter& writer, const std::string& s) {
  writer.PutU8(static_cast<uint8_t>(s.size()));
  for (const char c : s) writer.PutU8(static_cast<uint8_t>(c));
}

Result<std::string> GetShortString(compress::ByteReader& reader) {
  Result<uint8_t> len = reader.GetU8();
  if (!len.ok()) return len.status();
  std::string s;
  s.reserve(*len);
  for (uint8_t i = 0; i < *len; ++i) {
    Result<uint8_t> c = reader.GetU8();
    if (!c.ok()) return c.status();
    s.push_back(static_cast<char>(*c));
  }
  return s;
}

void PutLongString(compress::ByteWriter& writer, const std::string& s) {
  const size_t n = std::min(s.size(), kMaxMessageBytes);
  writer.PutU32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) writer.PutU8(static_cast<uint8_t>(s[i]));
}

Result<std::string> GetLongString(compress::ByteReader& reader) {
  Result<uint32_t> len = reader.GetU32();
  if (!len.ok()) return len.status();
  if (*len > kMaxMessageBytes) {
    return Status::Corruption("message length field is implausible");
  }
  if (reader.remaining() < *len) {
    return Status::Corruption("message truncated");
  }
  std::string s(reinterpret_cast<const char*>(reader.current()), *len);
  if (Status st = reader.Skip(*len); !st.ok()) return st;
  return s;
}

/// Count-prefixed doubles: the values of an append or a range read, and the
/// per-row lists of a query reply.
void PutDoubleList(compress::ByteWriter& writer,
                   const std::vector<double>& values) {
  writer.PutU32(static_cast<uint32_t>(values.size()));
  for (const double v : values) writer.PutDouble(v);
}

/// A PutDoubleList that is the payload's final field: the count must use up
/// the payload exactly.
Result<std::vector<double>> GetValues(compress::ByteReader& reader) {
  Result<uint32_t> count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (reader.remaining() != static_cast<uint64_t>(*count) * sizeof(double)) {
    return Status::Corruption("value count disagrees with the payload");
  }
  std::vector<double> values;
  values.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<double> v = reader.GetDouble();
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return values;
}

void PutStringList(compress::ByteWriter& writer,
                   const std::vector<std::string>& names) {
  writer.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) PutShortString(writer, name);
}

Result<std::vector<std::string>> GetStringList(compress::ByteReader& reader) {
  Result<uint32_t> count = reader.GetU32();
  if (!count.ok()) return count.status();
  // Each entry costs at least its length byte; a count past the payload is
  // corrupt, not a huge allocation.
  if (*count > reader.remaining()) {
    return Status::Corruption("string list count is implausible");
  }
  std::vector<std::string> names;
  names.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<std::string> name = GetShortString(reader);
    if (!name.ok()) return name.status();
    names.push_back(std::move(*name));
  }
  return names;
}

/// A PutDoubleList inside a larger payload (query rows are not the final
/// field): the count must fit in what is left.
Result<std::vector<double>> GetDoubleList(compress::ByteReader& reader) {
  Result<uint32_t> count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (reader.remaining() < static_cast<uint64_t>(*count) * sizeof(double)) {
    return Status::Corruption("double list count is implausible");
  }
  std::vector<double> values;
  values.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<double> v = reader.GetDouble();
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return values;
}

void PutQueryResult(compress::ByteWriter& writer,
                    const query::QueryResult& result) {
  PutStringList(writer, result.metric_names);
  PutStringList(writer, result.aggregate_names);
  writer.PutU32(static_cast<uint32_t>(result.rows.size()));
  for (const query::GroupRow& row : result.rows) {
    PutShortString(writer, row.group);
    writer.PutU64(row.series_count);
    writer.PutU64(row.points);
    PutDoubleList(writer, row.aggregates);
    PutDoubleList(writer, row.metrics);
  }
}

Result<query::QueryResult> GetQueryResult(compress::ByteReader& reader) {
  query::QueryResult result;
  Result<std::vector<std::string>> metric_names = GetStringList(reader);
  if (!metric_names.ok()) return metric_names.status();
  result.metric_names = std::move(*metric_names);
  Result<std::vector<std::string>> aggregate_names = GetStringList(reader);
  if (!aggregate_names.ok()) return aggregate_names.status();
  result.aggregate_names = std::move(*aggregate_names);
  Result<uint32_t> count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (*count > reader.remaining()) {
    return Status::Corruption("group row count is implausible");
  }
  result.rows.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    query::GroupRow row;
    Result<std::string> group = GetShortString(reader);
    if (!group.ok()) return group.status();
    row.group = std::move(*group);
    Result<uint64_t> series_count = reader.GetU64();
    if (!series_count.ok()) return series_count.status();
    row.series_count = *series_count;
    Result<uint64_t> points = reader.GetU64();
    if (!points.ok()) return points.status();
    row.points = *points;
    Result<std::vector<double>> aggregates = GetDoubleList(reader);
    if (!aggregates.ok()) return aggregates.status();
    row.aggregates = std::move(*aggregates);
    Result<std::vector<double>> metrics = GetDoubleList(reader);
    if (!metrics.ok()) return metrics.status();
    row.metrics = std::move(*metrics);
    result.rows.push_back(std::move(row));
  }
  return result;
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

void PutStats(compress::ByteWriter& writer, const ServeStats& stats) {
  writer.PutU64(stats.shards);
  writer.PutU64(stats.series);
  writer.PutU64(stats.points);
  writer.PutU64(stats.wal_bytes);
  writer.PutU64(stats.appended_ops);
  writer.PutU64(stats.flushes);
  writer.PutU64(stats.flush_failures);
  writer.PutU64(stats.salvaged_stores);
  writer.PutU64(stats.replayed_records);
  writer.PutU64(stats.streamed_points);
  writer.PutU64(stats.stream_segments);
  writer.PutU64(stats.stream_rejected);
  writer.PutU64(stats.failed_shards);
  writer.PutU64(stats.accepted);
  writer.PutU64(stats.rejected);
  writer.PutU64(stats.deadline_misses);
  writer.PutU64(stats.evicted_clients);
}

Result<ServeStats> GetStats(compress::ByteReader& reader) {
  ServeStats stats;
  uint64_t* fields[] = {
      &stats.shards,          &stats.series,
      &stats.points,          &stats.wal_bytes,
      &stats.appended_ops,    &stats.flushes,
      &stats.flush_failures,  &stats.salvaged_stores,
      &stats.replayed_records, &stats.streamed_points,
      &stats.stream_segments, &stats.stream_rejected,
      &stats.failed_shards,   &stats.accepted,
      &stats.rejected,        &stats.deadline_misses,
      &stats.evicted_clients,
  };
  for (uint64_t* field : fields) {
    Result<uint64_t> v = reader.GetU64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  return stats;
}

void PutStreamInfo(compress::ByteWriter& writer,
                   const SeriesStreamInfo& info) {
  PutShortString(writer, info.codec);
  writer.PutDouble(info.error_bound);
  writer.PutU64(info.points);
  writer.PutU64(info.rejected);
  writer.PutU64(info.segments);
  writer.PutU64(info.open_length);
  writer.PutDouble(info.open_anchor);
  writer.PutDouble(info.open_slope);
}

Result<SeriesStreamInfo> GetStreamInfo(compress::ByteReader& reader) {
  SeriesStreamInfo info;
  Result<std::string> codec = GetShortString(reader);
  if (!codec.ok()) return codec.status();
  info.codec = std::move(*codec);
  Result<double> eb = reader.GetDouble();
  if (!eb.ok()) return eb.status();
  info.error_bound = *eb;
  uint64_t* fields[] = {&info.points, &info.rejected, &info.segments,
                        &info.open_length};
  for (uint64_t* field : fields) {
    Result<uint64_t> v = reader.GetU64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  Result<double> anchor = reader.GetDouble();
  if (!anchor.ok()) return anchor.status();
  info.open_anchor = *anchor;
  Result<double> slope = reader.GetDouble();
  if (!slope.ok()) return slope.status();
  info.open_slope = *slope;
  return info;
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
  compress::ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(request.type));
  switch (request.type) {
    case RequestType::kAppend:
      PutShortString(writer, request.series);
      writer.PutI64(request.first_timestamp);
      writer.PutI32(request.interval_seconds);
      PutDoubleList(writer, request.values);
      break;
    case RequestType::kReadRange:
      PutShortString(writer, request.series);
      writer.PutI64(request.t0);
      writer.PutI64(request.t1);
      break;
    case RequestType::kStreamInfo:
      PutShortString(writer, request.series);
      break;
    case RequestType::kQuery:
      PutStringList(writer, request.query.metrics);
      PutShortString(writer, request.query.group_by);
      PutShortString(writer, request.query.delimiter);
      writer.PutI64(request.query.t0);
      writer.PutI64(request.query.t1);
      PutShortString(writer, request.query.match);
      PutShortString(writer, request.query.pred_suffix);
      writer.PutI32(request.query.season_length);
      break;
    case RequestType::kPing:
    case RequestType::kStats:
    case RequestType::kShutdown:
    case RequestType::kListSeries:
      break;
  }
  return writer.Finish();
}

Result<Request> DecodeRequest(const std::vector<uint8_t>& payload) {
  compress::ByteReader reader(payload);
  Result<uint8_t> type = reader.GetU8();
  if (!type.ok()) return type.status();
  Request request;
  switch (*type) {
    case static_cast<uint8_t>(RequestType::kAppend): {
      request.type = RequestType::kAppend;
      Result<std::string> series = GetShortString(reader);
      if (!series.ok()) return series.status();
      request.series = std::move(*series);
      Result<int64_t> ts = reader.GetI64();
      if (!ts.ok()) return ts.status();
      request.first_timestamp = *ts;
      Result<int32_t> interval = reader.GetI32();
      if (!interval.ok()) return interval.status();
      request.interval_seconds = *interval;
      Result<std::vector<double>> values = GetValues(reader);
      if (!values.ok()) return values.status();
      request.values = std::move(*values);
      return request;
    }
    case static_cast<uint8_t>(RequestType::kReadRange): {
      request.type = RequestType::kReadRange;
      Result<std::string> series = GetShortString(reader);
      if (!series.ok()) return series.status();
      request.series = std::move(*series);
      Result<int64_t> t0 = reader.GetI64();
      if (!t0.ok()) return t0.status();
      request.t0 = *t0;
      Result<int64_t> t1 = reader.GetI64();
      if (!t1.ok()) return t1.status();
      request.t1 = *t1;
      if (reader.remaining() != 0) {
        return Status::Corruption("request carries unexpected trailing bytes");
      }
      return request;
    }
    case static_cast<uint8_t>(RequestType::kStreamInfo): {
      request.type = RequestType::kStreamInfo;
      Result<std::string> series = GetShortString(reader);
      if (!series.ok()) return series.status();
      request.series = std::move(*series);
      if (reader.remaining() != 0) {
        return Status::Corruption("request carries unexpected trailing bytes");
      }
      return request;
    }
    case static_cast<uint8_t>(RequestType::kQuery): {
      request.type = RequestType::kQuery;
      Result<std::vector<std::string>> metrics = GetStringList(reader);
      if (!metrics.ok()) return metrics.status();
      request.query.metrics = std::move(*metrics);
      Result<std::string> group_by = GetShortString(reader);
      if (!group_by.ok()) return group_by.status();
      request.query.group_by = std::move(*group_by);
      Result<std::string> delimiter = GetShortString(reader);
      if (!delimiter.ok()) return delimiter.status();
      request.query.delimiter = std::move(*delimiter);
      Result<int64_t> t0 = reader.GetI64();
      if (!t0.ok()) return t0.status();
      request.query.t0 = *t0;
      Result<int64_t> t1 = reader.GetI64();
      if (!t1.ok()) return t1.status();
      request.query.t1 = *t1;
      Result<std::string> match = GetShortString(reader);
      if (!match.ok()) return match.status();
      request.query.match = std::move(*match);
      Result<std::string> pred_suffix = GetShortString(reader);
      if (!pred_suffix.ok()) return pred_suffix.status();
      request.query.pred_suffix = std::move(*pred_suffix);
      Result<int32_t> season_length = reader.GetI32();
      if (!season_length.ok()) return season_length.status();
      request.query.season_length = *season_length;
      if (reader.remaining() != 0) {
        return Status::Corruption("request carries unexpected trailing bytes");
      }
      return request;
    }
    case static_cast<uint8_t>(RequestType::kPing):
    case static_cast<uint8_t>(RequestType::kStats):
    case static_cast<uint8_t>(RequestType::kShutdown):
    case static_cast<uint8_t>(RequestType::kListSeries):
      request.type = static_cast<RequestType>(*type);
      if (reader.remaining() != 0) {
        return Status::Corruption("request carries unexpected trailing bytes");
      }
      return request;
    default:
      return Status::Corruption("unknown request type " +
                                std::to_string(*type));
  }
}

std::vector<uint8_t> EncodeReply(RequestType type, const Reply& reply) {
  compress::ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(reply.kind));
  if (reply.kind == ReplyKind::kError) {
    writer.PutU8(reply.code);
    PutLongString(writer, reply.message);
    return writer.Finish();
  }
  if (reply.kind == ReplyKind::kRetry) {
    writer.PutU32(reply.retry_after_ms);
    PutLongString(writer, reply.message);
    return writer.Finish();
  }
  switch (type) {
    case RequestType::kReadRange:
      writer.PutI64(reply.start_timestamp);
      writer.PutI32(reply.interval_seconds);
      PutDoubleList(writer, reply.values);
      break;
    case RequestType::kStats:
      PutStats(writer, reply.stats);
      break;
    case RequestType::kListSeries:
      PutStringList(writer, reply.names);
      break;
    case RequestType::kQuery:
      PutQueryResult(writer, reply.query);
      break;
    case RequestType::kStreamInfo:
      PutStreamInfo(writer, reply.stream);
      break;
    case RequestType::kPing:
    case RequestType::kAppend:
    case RequestType::kShutdown:
      break;
  }
  return writer.Finish();
}

Result<Reply> DecodeReply(RequestType type,
                          const std::vector<uint8_t>& payload) {
  compress::ByteReader reader(payload);
  Result<uint8_t> kind = reader.GetU8();
  if (!kind.ok()) return kind.status();
  Reply reply;
  if (*kind == static_cast<uint8_t>(ReplyKind::kError)) {
    reply.kind = ReplyKind::kError;
    Result<uint8_t> code = reader.GetU8();
    if (!code.ok()) return code.status();
    reply.code = *code;
    Result<std::string> message = GetLongString(reader);
    if (!message.ok()) return message.status();
    reply.message = std::move(*message);
    return reply;
  }
  if (*kind == static_cast<uint8_t>(ReplyKind::kRetry)) {
    reply.kind = ReplyKind::kRetry;
    Result<uint32_t> after = reader.GetU32();
    if (!after.ok()) return after.status();
    reply.retry_after_ms = *after;
    Result<std::string> message = GetLongString(reader);
    if (!message.ok()) return message.status();
    reply.message = std::move(*message);
    return reply;
  }
  if (*kind != static_cast<uint8_t>(ReplyKind::kOk)) {
    return Status::Corruption("unknown reply kind " + std::to_string(*kind));
  }
  reply.kind = ReplyKind::kOk;
  switch (type) {
    case RequestType::kReadRange: {
      Result<int64_t> start = reader.GetI64();
      if (!start.ok()) return start.status();
      reply.start_timestamp = *start;
      Result<int32_t> interval = reader.GetI32();
      if (!interval.ok()) return interval.status();
      reply.interval_seconds = *interval;
      Result<std::vector<double>> values = GetValues(reader);
      if (!values.ok()) return values.status();
      reply.values = std::move(*values);
      return reply;
    }
    case RequestType::kStats: {
      Result<ServeStats> stats = GetStats(reader);
      if (!stats.ok()) return stats.status();
      reply.stats = *stats;
      return reply;
    }
    case RequestType::kQuery: {
      Result<query::QueryResult> result = GetQueryResult(reader);
      if (!result.ok()) return result.status();
      reply.query = std::move(*result);
      if (reader.remaining() != 0) {
        return Status::Corruption("reply carries unexpected trailing bytes");
      }
      return reply;
    }
    case RequestType::kStreamInfo: {
      Result<SeriesStreamInfo> info = GetStreamInfo(reader);
      if (!info.ok()) return info.status();
      reply.stream = std::move(*info);
      if (reader.remaining() != 0) {
        return Status::Corruption("reply carries unexpected trailing bytes");
      }
      return reply;
    }
    case RequestType::kListSeries: {
      Result<std::vector<std::string>> names = GetStringList(reader);
      if (!names.ok()) return names.status();
      reply.names = std::move(*names);
      if (reader.remaining() != 0) {
        return Status::Corruption("reply carries unexpected trailing bytes");
      }
      return reply;
    }
    case RequestType::kPing:
    case RequestType::kAppend:
    case RequestType::kShutdown:
      if (reader.remaining() != 0) {
        return Status::Corruption("reply carries unexpected trailing bytes");
      }
      return reply;
  }
  return Status::Corruption("reply for an unknown request type");
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

Status SendAll(int fd, const uint8_t* data, size_t size, int timeout_ms) {
  size_t sent = 0;
  while (sent < size) {
    if (Status s = PollFor(fd, POLLOUT, timeout_ms); !s.ok()) return s;
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
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

Status WriteFrame(int fd, const std::vector<uint8_t>& payload,
                  int timeout_ms) {
  compress::ByteWriter writer;
  writer.PutU32(kFrameMagic);
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  writer.PutBytes(payload);
  writer.PutU32(zip::ComputeCrc32(payload.data(), payload.size()));
  const std::vector<uint8_t> frame = writer.Finish();

  // Crash injection: half the frame leaves the socket and the write errors —
  // the peer must treat the torn frame as a dead connection, never as data.
  Status crash = FailPoints::Hit("socket_write");
  if (!crash.ok()) {
    SendAll(fd, frame.data(), frame.size() / 2, timeout_ms);
    return crash;
  }
  return SendAll(fd, frame.data(), frame.size(), timeout_ms);
}

Result<std::vector<uint8_t>> ReadFrame(int fd, int timeout_ms) {
  uint8_t header[8];
  if (Status s = RecvAll(fd, header, sizeof(header), timeout_ms, true);
      !s.ok()) {
    return s;
  }
  compress::ByteReader reader(header, sizeof(header));
  const uint32_t magic = *reader.GetU32();
  const uint32_t size = *reader.GetU32();
  if (magic != kFrameMagic) {
    return Status::Corruption("frame has a bad magic");
  }
  if (size > kMaxFramePayload) {
    return Status::Corruption("frame size field is implausible");
  }
  std::vector<uint8_t> rest(static_cast<size_t>(size) + 4);
  if (Status s = RecvAll(fd, rest.data(), rest.size(), timeout_ms, false);
      !s.ok()) {
    return s;
  }
  compress::ByteReader tail(rest.data() + size, 4);
  const uint32_t crc = *tail.GetU32();
  rest.resize(size);
  if (crc != zip::ComputeCrc32(rest.data(), rest.size())) {
    return Status::Corruption("frame checksum mismatch");
  }
  return rest;
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

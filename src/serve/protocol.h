#ifndef LOSSYTS_SERVE_PROTOCOL_H_
#define LOSSYTS_SERVE_PROTOCOL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "query/query.h"
#include "serve/stream_info.h"

namespace lossyts::serve {

// Wire protocol of the serve daemon, over a Unix-domain stream socket.
//
// Every message travels in one frame with magic kFrameMagic: the library's
// one CRC frame (compress/serde.h), shared with the chunk store and the WAL.
// Each message's payload is written and read by one field list in
// protocol.cc (encodings in serve/fields.h).
//
// A client sends one request frame and reads exactly one reply frame; the
// connection is otherwise stateless, so either side may drop it at any
// point without corrupting the other (a torn frame fails its CRC and the
// peer treats the connection as dead). Replies are one of three kinds:
// kOk (result payload follows), kError (terminal: status code + message),
// kRetry (transient overload: back off retry_after_ms and resend — the
// admission-control path, never an error bit on the data).

inline constexpr uint32_t kFrameMagic = 0x4D53544Cu;  // "LTSM"
/// Frames larger than this are rejected before allocation; bounds both a
/// corrupt length field and a hostile client. WriteFrame refuses to send
/// one, so a peer is never left mid-frame.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

enum class RequestType : uint8_t {
  kPing = 1,
  kAppend = 2,
  kReadRange = 3,
  kStats = 4,
  kShutdown = 5,
  kListSeries = 6,
  kQuery = 7,
  kStreamInfo = 8,
};

/// Parameters of a kQuery request: a grouped-metric evaluation over the
/// daemon's whole catalog, pairing each series `<name>` with its forecast
/// series `<name><pred_suffix>`. Group modes and semantics are
/// query::EvaluateGroupedSeries' (pooled pairs in canonical series order).
/// `group_by` travels as its CLI spelling ("series"/"prefix"/"all") and is
/// parsed server-side so unknown modes fail with a clear message.
struct QuerySpec {
  std::vector<std::string> metrics;
  std::string group_by = "series";
  std::string delimiter = "_";
  int64_t t0 = std::numeric_limits<int64_t>::min();
  int64_t t1 = std::numeric_limits<int64_t>::max();
  std::string match;
  std::string pred_suffix = ".pred";
  int32_t season_length = 1;
};

enum class ReplyKind : uint8_t {
  kOk = 0,
  kError = 1,
  kRetry = 2,
};

/// One client request; which fields matter depends on `type`.
struct Request {
  RequestType type = RequestType::kPing;
  std::string series;           ///< kAppend, kReadRange, kStreamInfo.
  int64_t first_timestamp = 0;  ///< kAppend.
  int32_t interval_seconds = 0; ///< kAppend.
  std::vector<double> values;   ///< kAppend.
  int64_t t0 = 0;               ///< kReadRange (inclusive).
  int64_t t1 = 0;               ///< kReadRange (inclusive).
  QuerySpec query;              ///< kQuery.
};

/// Daemon-wide counters: per-shard stats summed, plus the front-end's
/// admission/eviction book-keeping.
struct ServeStats {
  uint64_t shards = 0;
  uint64_t series = 0;
  uint64_t points = 0;
  uint64_t wal_bytes = 0;
  uint64_t appended_ops = 0;
  uint64_t flushes = 0;
  uint64_t flush_failures = 0;
  uint64_t salvaged_stores = 0;
  uint64_t replayed_records = 0;
  uint64_t streamed_points = 0;   ///< Points accepted by series streams.
  uint64_t stream_segments = 0;   ///< Segments closed by series streams.
  uint64_t stream_rejected = 0;   ///< Points the series streams refused.
  uint64_t failed_shards = 0;
  uint64_t accepted = 0;         ///< Requests admitted past the queue gate.
  uint64_t rejected = 0;         ///< kRetry replies sent (queue full).
  uint64_t deadline_misses = 0;  ///< Requests that blew their deadline.
  uint64_t evicted_clients = 0;  ///< Connections dropped for slow frame I/O.
};

/// One reply; which fields matter depends on `kind` and the request type.
struct Reply {
  ReplyKind kind = ReplyKind::kOk;
  uint8_t code = 0;             ///< kError: the StatusCode.
  std::string message;          ///< kError / kRetry.
  uint32_t retry_after_ms = 0;  ///< kRetry.
  int64_t start_timestamp = 0;  ///< kOk + kReadRange.
  int32_t interval_seconds = 0; ///< kOk + kReadRange.
  std::vector<double> values;   ///< kOk + kReadRange.
  ServeStats stats;             ///< kOk + kStats.
  std::vector<std::string> names;  ///< kOk + kListSeries.
  query::QueryResult query;        ///< kOk + kQuery.
  SeriesStreamInfo stream;         ///< kOk + kStreamInfo.
};

/// Strings travel behind a u8 length, so no string field may be longer.
inline constexpr size_t kMaxShortStringBytes = 255;

/// InvalidArgument naming the first string field of `request` (series,
/// metric, group_by, delimiter, match, pred_suffix) longer than
/// kMaxShortStringBytes; OK otherwise. Client checks every request with it.
Status ValidateRequest(const Request& request);

/// The request's payload bytes. A request ValidateRequest refuses encodes as
/// an empty payload, which DecodeRequest rejects, never as a truncated
/// string.
std::vector<uint8_t> EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::span<const uint8_t> payload);

/// Reply encoding is positional on the request type (the payload layout of
/// kOk differs per request), so both sides pass the type they exchanged.
std::vector<uint8_t> EncodeReply(RequestType type, const Reply& reply);
Result<Reply> DecodeReply(RequestType type, std::span<const uint8_t> payload);

/// Builds a kError (or kRetry for kUnavailable) reply from a Status.
Reply ReplyFromStatus(const Status& status, uint32_t retry_after_ms);
/// Inverse of ReplyFromStatus: OK for kOk, the carried Status otherwise
/// (kRetry maps back to Unavailable).
Status StatusFromReply(const Reply& reply);

/// Writes one frame, honouring `timeout_ms` per poll (the slow-client
/// eviction clock: a peer that cannot drain a frame in time gets the
/// connection dropped). Carries the "socket_write" failpoint — on fire, half
/// the frame is sent and the error returns, modelling a daemon killed
/// mid-reply. Unavailable on timeout; InvalidArgument, before a byte is
/// sent, when the payload is over kMaxFramePayload.
Status WriteFrame(int fd, std::span<const uint8_t> payload, int timeout_ms);

/// Reads one frame (same timeout discipline). NotFound on a clean EOF at a
/// frame boundary (the peer hung up between requests); Corruption on a torn
/// or CRC-invalid frame; Unavailable on timeout.
Result<std::vector<uint8_t>> ReadFrame(int fd, int timeout_ms);

/// Binds and listens on a Unix-domain socket at `path`, replacing a stale
/// socket file from a previous (killed) daemon.
Result<int> ListenUnix(const std::string& path);

/// Connects to the daemon's socket.
Result<int> ConnectUnix(const std::string& path);

}  // namespace lossyts::serve

#endif  // LOSSYTS_SERVE_PROTOCOL_H_

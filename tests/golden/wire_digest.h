#ifndef LOSSYTS_TESTS_GOLDEN_WIRE_DIGEST_H_
#define LOSSYTS_TESTS_GOLDEN_WIRE_DIGEST_H_

// The serve protocol's frames, pinned by wire_golden_test.cc and printed by
// its generator (wire_golden_gen.cc). A row is one message: every request
// type, the kOk reply to every request type, a kError and a kRetry reply.
// Each row holds
//
//   * the size and FNV-1a of the whole frame WriteFrame sends for the
//     message's payload (read back off a socketpair);
//   * three decode-outcome digests over mutants of the payload: every
//     truncation, a one-byte append, and every single-bit flip. A mutant
//     folds a 0 when the decoder rejects it (plus the status code), or a 1
//     and the bytes of the decoded message re-encoded.
//
// Every message is built from fixed literals, so the rows do not depend on
// the host.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/status.h"
#include "golden/codec_digest.h"
#include "serve/protocol.h"

namespace lossyts::golden {

struct WireDigest {
  std::string label;
  uint64_t frame_bytes = 0;
  uint64_t frame_fnv = 0;
  uint64_t truncation_fnv = 0;
  uint64_t append_fnv = 0;
  uint64_t flip_fnv = 0;
};

/// One pinned message: its payload, and how to decode it (a request, or a
/// reply to a `type` request).
struct WireCase {
  std::string label;
  bool request = true;
  serve::RequestType type = serve::RequestType::kPing;
  std::vector<uint8_t> payload;
};

inline std::vector<WireCase> MakeWireCases() {
  using serve::Reply;
  using serve::ReplyKind;
  using serve::Request;
  using serve::RequestType;
  const RequestType kTypes[] = {
      RequestType::kPing,     RequestType::kAppend,
      RequestType::kReadRange, RequestType::kStats,
      RequestType::kShutdown, RequestType::kListSeries,
      RequestType::kQuery,    RequestType::kStreamInfo,
  };
  const char* kNames[] = {"ping",     "append",      "read_range", "stats",
                          "shutdown", "list_series", "query",      "stream_info"};
  const std::vector<double> values = {
      1.5, -0.0, 1e300, -2.25e-308, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 42.0};

  std::vector<WireCase> cases;
  for (size_t i = 0; i < std::size(kTypes); ++i) {
    Request request;
    request.type = kTypes[i];
    switch (kTypes[i]) {
      case RequestType::kAppend:
        request.series = "site_a.cpu";
        request.first_timestamp = 1700000000;
        request.interval_seconds = 60;
        request.values = values;
        break;
      case RequestType::kReadRange:
        request.series = "site_a.cpu";
        request.t0 = -86400;
        request.t1 = 1700003600;
        break;
      case RequestType::kStreamInfo:
        request.series = "turbine_7";
        break;
      case RequestType::kQuery:
        request.query.metrics = {"mae", "rmse", "pinball@0.9"};
        request.query.group_by = "prefix";
        request.query.delimiter = "-";
        request.query.t0 = 1600000000;
        request.query.t1 = 1800000000;
        request.query.match = "turbine";
        request.query.pred_suffix = ".fc";
        request.query.season_length = 24;
        break;
      default:
        break;
    }
    cases.push_back({std::string("request/") + kNames[i], true, kTypes[i],
                     serve::EncodeRequest(request)});
  }

  for (size_t i = 0; i < std::size(kTypes); ++i) {
    Reply reply;
    switch (kTypes[i]) {
      case RequestType::kReadRange:
        reply.start_timestamp = 1700000060;
        reply.interval_seconds = 60;
        reply.values = values;
        break;
      case RequestType::kStats: {
        uint64_t* fields[] = {
            &reply.stats.shards,          &reply.stats.series,
            &reply.stats.points,          &reply.stats.wal_bytes,
            &reply.stats.appended_ops,    &reply.stats.flushes,
            &reply.stats.flush_failures,  &reply.stats.salvaged_stores,
            &reply.stats.replayed_records, &reply.stats.streamed_points,
            &reply.stats.stream_segments, &reply.stats.stream_rejected,
            &reply.stats.failed_shards,   &reply.stats.accepted,
            &reply.stats.rejected,        &reply.stats.deadline_misses,
            &reply.stats.evicted_clients,
        };
        uint64_t v = 3;
        for (uint64_t* field : fields) {
          *field = v;
          v = v * 1000003 + 17;
        }
        break;
      }
      case RequestType::kListSeries:
        reply.names = {"cpu", "disk.io", "site_a.pred", ""};
        break;
      case RequestType::kQuery:
        reply.query.metric_names = {"mae", "rmse"};
        reply.query.aggregate_names = {"MEAN", "COUNT", "MAX"};
        reply.query.rows = {
            {"site", 2, 2048, {0.5, 2048.0, 9.75}, {0.125, 0.25}},
            {"turbine", 1, 7, {-1.0, 7.0, 3.0},
             {std::numeric_limits<double>::quiet_NaN(), 1e-9}},
        };
        break;
      case RequestType::kStreamInfo:
        reply.stream.codec = "SWING";
        reply.stream.error_bound = 0.05;
        reply.stream.points = 1000;
        reply.stream.rejected = 2;
        reply.stream.segments = 17;
        reply.stream.open_length = 9;
        reply.stream.open_anchor = 3.5;
        reply.stream.open_slope = -0.0625;
        break;
      default:
        break;
    }
    cases.push_back({std::string("reply/ok/") + kNames[i], false, kTypes[i],
                     serve::EncodeReply(kTypes[i], reply)});
  }

  Reply error;
  error.kind = ReplyKind::kError;
  error.code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  error.message = "append breaks the regular grid: expected timestamp 180";
  cases.push_back({"reply/error", false, RequestType::kAppend,
                   serve::EncodeReply(RequestType::kAppend, error)});
  Reply retry;
  retry.kind = ReplyKind::kRetry;
  retry.retry_after_ms = 25;
  retry.message = "shard queue full";
  cases.push_back({"reply/retry", false, RequestType::kAppend,
                   serve::EncodeReply(RequestType::kAppend, retry)});
  return cases;
}

/// The bytes WriteFrame puts on the wire for `payload`.
inline Result<std::vector<uint8_t>> FrameBytes(
    const std::vector<uint8_t>& payload) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError("socketpair failed");
  }
  Status written = serve::WriteFrame(fds[0], payload, 1000);
  ::close(fds[0]);
  std::vector<uint8_t> frame;
  uint8_t buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fds[1], buffer, sizeof(buffer), 0)) > 0) {
    frame.insert(frame.end(), buffer, buffer + n);
  }
  ::close(fds[1]);
  if (!written.ok()) return written;
  if (n < 0) return Status::IoError("recv failed");
  return frame;
}

/// Decodes `payload` as `c` says and folds the outcome into `hash`.
inline uint64_t FoldOutcome(uint64_t hash, const WireCase& c,
                            const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> reencoded;
  Status status = Status::OK();
  if (c.request) {
    Result<serve::Request> decoded = serve::DecodeRequest(payload);
    if (decoded.ok()) {
      reencoded = serve::EncodeRequest(*decoded);
    } else {
      status = decoded.status();
    }
  } else {
    Result<serve::Reply> decoded = serve::DecodeReply(c.type, payload);
    if (decoded.ok()) {
      reencoded = serve::EncodeReply(c.type, *decoded);
    } else {
      status = decoded.status();
    }
  }
  const uint8_t outcome[2] = {static_cast<uint8_t>(status.ok() ? 1 : 0),
                              static_cast<uint8_t>(status.code())};
  hash = Fnv1a(hash, outcome, sizeof(outcome));
  const uint64_t size = reencoded.size();
  uint8_t size_bytes[8];
  for (int i = 0; i < 8; ++i) size_bytes[i] = (size >> (8 * i)) & 0xFF;
  hash = Fnv1a(hash, size_bytes, sizeof(size_bytes));
  return Fnv1a(hash, reencoded.data(), reencoded.size());
}

inline Result<WireDigest> DigestWireCase(const WireCase& c) {
  WireDigest digest;
  digest.label = c.label;
  Result<std::vector<uint8_t>> frame = FrameBytes(c.payload);
  if (!frame.ok()) return frame.status();
  digest.frame_bytes = frame->size();
  digest.frame_fnv = Fnv1a(kFnvOffset, frame->data(), frame->size());

  digest.truncation_fnv = kFnvOffset;
  for (size_t n = 0; n < c.payload.size(); ++n) {
    const std::vector<uint8_t> cut(c.payload.begin(), c.payload.begin() + n);
    digest.truncation_fnv = FoldOutcome(digest.truncation_fnv, c, cut);
  }
  std::vector<uint8_t> appended = c.payload;
  appended.push_back(0);
  digest.append_fnv = FoldOutcome(kFnvOffset, c, appended);
  digest.flip_fnv = kFnvOffset;
  for (size_t bit = 0; bit < c.payload.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = c.payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    digest.flip_fnv = FoldOutcome(digest.flip_fnv, c, flipped);
  }
  return digest;
}

/// Every row, in table order.
inline Result<std::vector<WireDigest>> ComputeWireDigests() {
  std::vector<WireDigest> rows;
  for (const WireCase& c : MakeWireCases()) {
    Result<WireDigest> row = DigestWireCase(c);
    if (!row.ok()) return row.status();
    rows.push_back(*row);
  }
  return rows;
}

}  // namespace lossyts::golden

#endif  // LOSSYTS_TESTS_GOLDEN_WIRE_DIGEST_H_

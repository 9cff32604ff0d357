// End-to-end daemon tests over a real Unix socket: protocol framing, the
// full request surface, admission control, slow-client eviction, restart
// recovery, and shard-count persistence (src/serve/{protocol,daemon,client}).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"

namespace lossyts::serve {
namespace {

class ServeDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

DaemonOptions TestOptions(const std::string& dir) {
  DaemonOptions options;
  options.dir = dir;
  options.shards = 2;
  options.jobs = 1;
  options.shard.codecs = {"GORILLA"};
  options.shard.sync = false;  // No checkpoint fsyncs; WAL fsyncs stay.
  return options;
}

// --- Protocol framing -----------------------------------------------------

TEST_F(ServeDaemonTest, RequestEncodingRoundTrips) {
  Request request;
  request.type = RequestType::kAppend;
  request.series = "node-7.cpu";
  request.first_timestamp = -1234567890123;
  request.interval_seconds = 15;
  request.values = {0.0, -1.5, 3.25e300, 1e-300};
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, request.type);
  EXPECT_EQ(decoded->series, request.series);
  EXPECT_EQ(decoded->first_timestamp, request.first_timestamp);
  EXPECT_EQ(decoded->interval_seconds, request.interval_seconds);
  EXPECT_EQ(decoded->values, request.values);

  Request read;
  read.type = RequestType::kReadRange;
  read.series = "x";
  read.t0 = -5;
  read.t1 = 1LL << 40;
  auto decoded_read = DecodeRequest(EncodeRequest(read));
  ASSERT_TRUE(decoded_read.ok());
  EXPECT_EQ(decoded_read->t0, read.t0);
  EXPECT_EQ(decoded_read->t1, read.t1);
}

TEST_F(ServeDaemonTest, ReplyEncodingRoundTrips) {
  Reply reply;
  reply.kind = ReplyKind::kOk;
  reply.start_timestamp = 777;
  reply.interval_seconds = 60;
  reply.values = {1.0, 2.0, 3.0};
  auto decoded = DecodeReply(RequestType::kReadRange,
                             EncodeReply(RequestType::kReadRange, reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->start_timestamp, 777);
  EXPECT_EQ(decoded->values, reply.values);

  Reply retry;
  retry.kind = ReplyKind::kRetry;
  retry.message = "queue full";
  retry.retry_after_ms = 75;
  auto decoded_retry = DecodeReply(RequestType::kAppend,
                                   EncodeReply(RequestType::kAppend, retry));
  ASSERT_TRUE(decoded_retry.ok());
  EXPECT_EQ(decoded_retry->kind, ReplyKind::kRetry);
  EXPECT_EQ(decoded_retry->retry_after_ms, 75u);
  EXPECT_EQ(StatusFromReply(*decoded_retry).code(), StatusCode::kUnavailable);

  const Status lost = Status::Corruption("chunk 3 failed its crc");
  auto decoded_error =
      DecodeReply(RequestType::kPing,
                  EncodeReply(RequestType::kPing, ReplyFromStatus(lost, 0)));
  ASSERT_TRUE(decoded_error.ok());
  const Status back = StatusFromReply(*decoded_error);
  EXPECT_EQ(back.code(), StatusCode::kCorruption);
  EXPECT_EQ(back.message(), lost.message());
}

TEST_F(ServeDaemonTest, QueryEncodingRoundTrips) {
  Request request;
  request.type = RequestType::kQuery;
  request.query.metrics = {"mae", "pinball@0.9"};
  request.query.group_by = "prefix";
  request.query.delimiter = ".";
  request.query.t0 = -5000;
  request.query.t1 = 987654321;
  request.query.match = "cpu";
  request.query.pred_suffix = ".fc";
  request.query.season_length = 24;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, RequestType::kQuery);
  EXPECT_EQ(decoded->query.metrics, request.query.metrics);
  EXPECT_EQ(decoded->query.group_by, "prefix");
  EXPECT_EQ(decoded->query.delimiter, ".");
  EXPECT_EQ(decoded->query.t0, -5000);
  EXPECT_EQ(decoded->query.t1, 987654321);
  EXPECT_EQ(decoded->query.match, "cpu");
  EXPECT_EQ(decoded->query.pred_suffix, ".fc");
  EXPECT_EQ(decoded->query.season_length, 24);

  Reply reply;
  reply.kind = ReplyKind::kOk;
  reply.query.metric_names = {"mae", "pinball@0.9"};
  reply.query.aggregate_names = {"MEAN"};
  query::GroupRow row;
  row.group = "cpu";
  row.series_count = 3;
  row.points = 1200;
  row.aggregates = {42.5};
  row.metrics = {0.25, 0.125};
  reply.query.rows.push_back(row);
  auto decoded_reply = DecodeReply(RequestType::kQuery,
                                   EncodeReply(RequestType::kQuery, reply));
  ASSERT_TRUE(decoded_reply.ok()) << decoded_reply.status().ToString();
  EXPECT_EQ(decoded_reply->query.metric_names, reply.query.metric_names);
  EXPECT_EQ(decoded_reply->query.aggregate_names,
            reply.query.aggregate_names);
  ASSERT_EQ(decoded_reply->query.rows.size(), 1u);
  EXPECT_EQ(decoded_reply->query.rows[0].group, "cpu");
  EXPECT_EQ(decoded_reply->query.rows[0].series_count, 3u);
  EXPECT_EQ(decoded_reply->query.rows[0].points, 1200u);
  EXPECT_EQ(decoded_reply->query.rows[0].aggregates, row.aggregates);
  EXPECT_EQ(decoded_reply->query.rows[0].metrics, row.metrics);
}

TEST_F(ServeDaemonTest, RequestStringsUpTo255BytesRoundTripAndLongerAreRefused) {
  // Strings travel behind a u8 length: 255 bytes is the longest that fits,
  // and 256 must be refused by name rather than wrapped to a 0-byte string
  // with the rest misread as the following fields.
  const std::string fits(255, 'a');
  const std::string too_long(256, 'a');
  for (const RequestType type : {RequestType::kAppend, RequestType::kReadRange,
                                 RequestType::kStreamInfo}) {
    Request request;
    request.type = type;
    request.series = fits;
    request.t0 = 7;
    request.t1 = 9;
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->series, fits);

    request.series = too_long;
    const Status refused = ValidateRequest(request);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.message().find("series"), std::string::npos)
        << refused.message();
    EXPECT_TRUE(EncodeRequest(request).empty());
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
  }

  const std::pair<std::string QuerySpec::*, const char*> fields[] = {
      {&QuerySpec::group_by, "group_by"},
      {&QuerySpec::delimiter, "delimiter"},
      {&QuerySpec::match, "match"},
      {&QuerySpec::pred_suffix, "pred_suffix"},
  };
  for (const auto& [member, name] : fields) {
    Request request;
    request.type = RequestType::kQuery;
    request.query.metrics = {"mae"};
    request.query.*member = fits;
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->query.*member, fits) << name;

    request.query.*member = too_long;
    const Status refused = ValidateRequest(request);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(refused.message().find(name), std::string::npos)
        << refused.message();
    EXPECT_TRUE(EncodeRequest(request).empty()) << name;
  }

  Request metrics;
  metrics.type = RequestType::kQuery;
  metrics.query.metrics = {"mae", fits};
  auto decoded = DecodeRequest(EncodeRequest(metrics));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query.metrics, metrics.query.metrics);
  metrics.query.metrics = {"mae", too_long};
  const Status refused = ValidateRequest(metrics);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("metric"), std::string::npos)
      << refused.message();
  EXPECT_TRUE(EncodeRequest(metrics).empty());
}

TEST_F(ServeDaemonTest, ValidFrameBytesArePinned) {
  // The exact payload bytes of a range read, an append and a series list,
  // so a refactor of the encoders cannot change the wire format.
  Request read;
  read.type = RequestType::kReadRange;
  read.series = "ab";
  read.t0 = 1;
  read.t1 = -1;
  EXPECT_EQ(EncodeRequest(read),
            (std::vector<uint8_t>{3, 2, 'a', 'b', 1, 0, 0, 0, 0, 0, 0, 0,
                                  0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF}));

  Request append;
  append.type = RequestType::kAppend;
  append.series = "x";
  append.first_timestamp = 2;
  append.interval_seconds = 3;
  append.values = {1.0};
  EXPECT_EQ(EncodeRequest(append),
            (std::vector<uint8_t>{2, 1, 'x', 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0,
                                  0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0,
                                  0x3F}));

  Reply list;
  list.names = {"a", "bc"};
  const std::vector<uint8_t> list_bytes = {0, 2, 0, 0, 0, 1, 'a', 2, 'b', 'c'};
  EXPECT_EQ(EncodeReply(RequestType::kListSeries, list), list_bytes);
  auto decoded = DecodeReply(RequestType::kListSeries, list_bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->names, list.names);
}

TEST_F(ServeDaemonTest, DecodeRejectsImplausibleCountsAndTrailingBytes) {
  // A u32 name count of 2^32-1 in a 5-byte reply is corrupt; it must not
  // reach an allocation.
  const auto huge =
      DecodeReply(RequestType::kListSeries,
                  std::vector<uint8_t>{0, 0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_EQ(huge.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeReply(RequestType::kListSeries,
                        std::vector<uint8_t>{0, 1, 0, 0, 0, 1, 'a', 'z'})
                .status()
                .code(),
            StatusCode::kCorruption);

  Request read;
  read.type = RequestType::kReadRange;
  read.series = "x";
  std::vector<uint8_t> payload = EncodeRequest(read);
  ASSERT_TRUE(DecodeRequest(payload).ok());
  payload.push_back(0);
  EXPECT_EQ(DecodeRequest(payload).status().code(), StatusCode::kCorruption);

  // Every reply kind rejects bytes past its last field too: the kStats kOk
  // reply, kError and kRetry.
  Reply stats;
  stats.stats.points = 7;
  Reply error = ReplyFromStatus(Status::NotFound("no such series"), 0);
  Reply retry = ReplyFromStatus(Status::Unavailable("queue full"), 25);
  for (const auto& [type, reply] :
       {std::pair{RequestType::kStats, stats},
        std::pair{RequestType::kAppend, error},
        std::pair{RequestType::kAppend, retry}}) {
    std::vector<uint8_t> bytes = EncodeReply(type, reply);
    ASSERT_TRUE(DecodeReply(type, bytes).ok());
    bytes.push_back(0);
    EXPECT_EQ(DecodeReply(type, bytes).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(ServeDaemonTest, FramesSurviveTheWireAndRejectCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(WriteFrame(fds[0], payload, 1000).ok());
  auto read = ReadFrame(fds[1], 1000);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);

  // A flipped payload bit must fail the CRC, not hand back garbage.
  std::vector<uint8_t> frame_bytes;
  {
    int raw[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, raw), 0);
    ASSERT_TRUE(WriteFrame(raw[0], payload, 1000).ok());
    frame_bytes.resize(payload.size() + compress::kFrameOverhead);
    ASSERT_EQ(::recv(raw[1], frame_bytes.data(), frame_bytes.size(), 0),
              static_cast<ssize_t>(frame_bytes.size()));
    ::close(raw[0]);
    ::close(raw[1]);
  }
  frame_bytes[9] ^= 0x40;
  ASSERT_EQ(::send(fds[0], frame_bytes.data(), frame_bytes.size(), 0),
            static_cast<ssize_t>(frame_bytes.size()));
  EXPECT_EQ(ReadFrame(fds[1], 1000).status().code(), StatusCode::kCorruption);

  // Clean EOF at a frame boundary is NotFound, not an error.
  ::close(fds[0]);
  EXPECT_EQ(ReadFrame(fds[1], 1000).status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}

TEST_F(ServeDaemonTest, WriteFrameRefusesOversizedPayloadsBeforeSending) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<uint8_t> big(static_cast<size_t>(kMaxFramePayload) + 1);
  EXPECT_EQ(WriteFrame(fds[0], big, 1000).code(),
            StatusCode::kInvalidArgument);
  // Nothing reached the peer, so the connection is still at a frame
  // boundary and carries the next frame intact.
  uint8_t byte;
  EXPECT_EQ(::recv(fds[1], &byte, 1, MSG_DONTWAIT), -1);
  const std::vector<uint8_t> payload = {7, 8, 9};
  ASSERT_TRUE(WriteFrame(fds[0], payload, 1000).ok());
  auto read = ReadFrame(fds[1], 1000);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- The daemon itself ----------------------------------------------------

TEST_F(ServeDaemonTest, EndToEndAppendReadListStats) {
  const std::string dir = TempDir("daemon_e2e");
  auto daemon = Daemon::Start(TestOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Ping().ok());

  ASSERT_TRUE((*client)->Append("cpu", 0, 60, {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE((*client)->Append("mem", 100, 30, {-5.5}).ok());
  ASSERT_TRUE((*client)->Append("cpu", 180, 60, {4.0}).ok());
  // A grid break is a terminal error, surfaced with the daemon's message.
  const Status broken = (*client)->Append("cpu", 999, 60, {9.0});
  EXPECT_EQ(broken.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(broken.message().find("grid"), std::string::npos);

  auto cpu = (*client)->ReadRange("cpu", 0, 100000);
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu->values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  auto clamped = (*client)->ReadRange("cpu", 60, 120);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->values(), (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ((*client)->ReadRange("nope", 0, 1).status().code(),
            StatusCode::kNotFound);

  auto names = (*client)->ListSeries();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"cpu", "mem"}));

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards, 2u);
  EXPECT_EQ(stats->series, 2u);
  EXPECT_EQ(stats->points, 5u);
  EXPECT_EQ(stats->appended_ops, 3u);
  EXPECT_EQ(stats->failed_shards, 0u);
  EXPECT_GE(stats->accepted, 3u);

  // A name the protocol cannot carry is refused before anything is sent,
  // and the connection stays usable.
  const std::string too_long(256, 'a');
  const Status long_append = (*client)->Append(too_long, 0, 60, {1.0});
  EXPECT_EQ(long_append.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(long_append.message().find("series"), std::string::npos);
  EXPECT_EQ((*client)->ReadRange(too_long, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
  QuerySpec long_match;
  long_match.metrics = {"mae"};
  long_match.match = too_long;
  EXPECT_EQ((*client)->Query(long_match).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE((*client)->Ping().ok());

  // A second concurrent client works (connection-per-thread model).
  auto other = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE((*other)->Ping().ok());

  EXPECT_TRUE((*client)->Shutdown().ok());
  (*daemon)->Wait();
  EXPECT_TRUE((*daemon)->Stop().ok());
}

TEST_F(ServeDaemonTest, OversizedRangeReadIsAnErrorReply) {
  const std::string dir = TempDir("daemon_big_read");
  DaemonOptions options = TestOptions(dir);
  options.shard.flush_wal_bytes = 64u << 20;  // No checkpoint mid-test.
  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // 2.1M points: the full range reply (17 + 8n bytes) is over
  // kMaxFramePayload. Appends are capped at 1M points each.
  constexpr int64_t kBatch = 700000;
  const std::vector<double> values(kBatch, 1.25);
  for (int64_t b = 0; b < 3; ++b) {
    ASSERT_TRUE((*client)->Append("big", b * kBatch, 1, values).ok());
  }
  const auto whole = (*client)->ReadRange("big", 0, 3 * kBatch);
  EXPECT_EQ(whole.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(whole.status().message().find(std::to_string(kMaxFramePayload)),
            std::string::npos)
      << whole.status().ToString();
  // The connection survives, and a shorter range fits in one frame.
  ASSERT_TRUE((*client)->Ping().ok());
  const auto half = (*client)->ReadRange("big", 0, kBatch - 1);
  ASSERT_TRUE(half.ok()) << half.status().ToString();
  EXPECT_EQ(half->values(), values);
  ASSERT_TRUE((*daemon)->Stop().ok());
}

TEST_F(ServeDaemonTest, EndToEndGroupedQuery) {
  const std::string dir = TempDir("daemon_query");
  auto daemon = Daemon::Start(TestOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());

  // Two sites with known residuals (+0.5 and -1.0) plus their forecast
  // pairs, spread across both shards.
  std::vector<double> east(120), east_pred(120), west(120), west_pred(120);
  for (int i = 0; i < 120; ++i) {
    east[static_cast<size_t>(i)] = 10.0 + 0.25 * i;
    east_pred[static_cast<size_t>(i)] = 10.5 + 0.25 * i;
    west[static_cast<size_t>(i)] = 20.0 + 0.25 * i;
    west_pred[static_cast<size_t>(i)] = 19.0 + 0.25 * i;
  }
  ASSERT_TRUE((*client)->Append("site_east", 0, 60, east).ok());
  ASSERT_TRUE((*client)->Append("site_east.pred", 0, 60, east_pred).ok());
  ASSERT_TRUE((*client)->Append("site_west", 0, 60, west).ok());
  ASSERT_TRUE((*client)->Append("site_west.pred", 0, 60, west_pred).ok());

  QuerySpec spec;
  spec.metrics = {"mae", "bias"};
  auto per_series = (*client)->Query(spec);
  ASSERT_TRUE(per_series.ok()) << per_series.status().ToString();
  ASSERT_EQ(per_series->rows.size(), 2u);
  EXPECT_EQ(per_series->rows[0].group, "site_east");
  EXPECT_DOUBLE_EQ(per_series->rows[0].metrics[0], 0.5);
  EXPECT_EQ(per_series->rows[1].group, "site_west");
  EXPECT_DOUBLE_EQ(per_series->rows[1].metrics[1], -1.0);

  // Prefix grouping pools both sites into one "site" row.
  spec.group_by = "prefix";
  auto pooled = (*client)->Query(spec);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled->rows.size(), 1u);
  EXPECT_EQ(pooled->rows[0].group, "site");
  EXPECT_EQ(pooled->rows[0].series_count, 2u);
  EXPECT_EQ(pooled->rows[0].points, 240u);
  EXPECT_DOUBLE_EQ(pooled->rows[0].metrics[0], 0.75);
  EXPECT_DOUBLE_EQ(pooled->rows[0].metrics[1], -0.25);

  // A time range restricts the pooled points.
  spec.t0 = 60 * 60;
  spec.t1 = 60 * 119;
  auto ranged = (*client)->Query(spec);
  ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
  EXPECT_EQ(ranged->rows[0].points, 120u);

  // Server-side validation surfaces as the carried Status: bad group mode,
  // no metrics, unknown metric.
  QuerySpec bad_mode = spec;
  bad_mode.group_by = "bogus";
  EXPECT_EQ((*client)->Query(bad_mode).status().code(),
            StatusCode::kInvalidArgument);
  QuerySpec no_metrics;
  EXPECT_EQ((*client)->Query(no_metrics).status().code(),
            StatusCode::kInvalidArgument);
  QuerySpec unknown;
  unknown.metrics = {"made_up_metric"};
  EXPECT_FALSE((*client)->Query(unknown).ok());

  ASSERT_TRUE((*daemon)->Stop().ok());
}

TEST_F(ServeDaemonTest, GracefulRestartRecoversEverythingAcked) {
  const std::string dir = TempDir("daemon_restart");
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(i * 0.73 - 11.0);
  {
    auto daemon = Daemon::Start(TestOptions(dir));
    ASSERT_TRUE(daemon.ok());
    auto client = Client::Connect((*daemon)->socket_path());
    ASSERT_TRUE(client.ok());
    for (size_t at = 0; at < values.size(); at += 50) {
      std::vector<double> slice(values.begin() + static_cast<long>(at),
                                values.begin() + static_cast<long>(at + 50));
      ASSERT_TRUE(
          (*client)->Append("walk", static_cast<int64_t>(at) * 60, 60, slice)
              .ok());
    }
    ASSERT_TRUE((*daemon)->Stop().ok());
  }
  // Reopen with a DIFFERENT --shards: the persisted count must win, or the
  // series would hash to the wrong shard and "vanish".
  DaemonOptions reopened_options = TestOptions(dir);
  reopened_options.shards = 7;
  auto daemon = Daemon::Start(reopened_options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards, 2u);  // Not 7.
  EXPECT_EQ(stats->points, values.size());
  auto read = (*client)->ReadRange("walk", 0, 1LL << 40);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->values(), values);
  ASSERT_TRUE((*daemon)->Stop().ok());
}

// The daemon only ever writes `<digits>\n` to the shards file, so anything
// else is damage: Start must refuse with Corruption rather than guess a
// count and hash series to the wrong shard.
TEST_F(ServeDaemonTest, MalformedShardCountFileIsCorruption) {
  const std::vector<std::string> contents = {"",        "0\n", "1025\n",
                                             "two\n",   "2x\n", "2",
                                             " 2\n",    "2\n\n"};
  for (const std::string& text : contents) {
    SCOPED_TRACE("shards file '" + text + "'");
    const std::string dir = TempDir("daemon_bad_shards");
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    {
      std::FILE* file = std::fopen((dir + "/shards").c_str(), "wb");
      ASSERT_NE(file, nullptr);
      ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
      ASSERT_EQ(std::fclose(file), 0);
    }
    auto daemon = Daemon::Start(TestOptions(dir));
    ASSERT_FALSE(daemon.ok());
    EXPECT_EQ(daemon.status().code(), StatusCode::kCorruption)
        << daemon.status().ToString();
  }
}

TEST_F(ServeDaemonTest, FullQueueRefusesWithRetryNotAnError) {
  const std::string dir = TempDir("daemon_admission");
  DaemonOptions options = TestOptions(dir);
  options.max_queue_ops = 0;  // Admit nothing: every append must bounce.
  options.retry_after_ms = 5;
  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  ClientOptions client_options;
  client_options.max_retries = 2;  // Give up fast; the queue never opens.
  auto client = Client::Connect((*daemon)->socket_path(), client_options);
  ASSERT_TRUE(client.ok());

  const Status status = (*client)->Append("s", 0, 60, {1.0});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The connection survives backpressure, and reads are not gated.
  EXPECT_TRUE((*client)->Ping().ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->rejected, 3u);  // Initial try + 2 retries.
  EXPECT_EQ(stats->points, 0u);
  ASSERT_TRUE((*daemon)->Stop().ok());
}

TEST_F(ServeDaemonTest, SlowClientsAreEvicted) {
  const std::string dir = TempDir("daemon_evict");
  DaemonOptions options = TestOptions(dir);
  options.client_timeout_ms = 100;
  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  // A half-sent frame header stalls the daemon's read; after
  // client_timeout_ms it must drop us rather than hold the thread hostage.
  auto fd = ConnectUnix((*daemon)->socket_path());
  ASSERT_TRUE(fd.ok());
  const uint8_t half_header[4] = {0x4C, 0x54, 0x53, 0x4D};
  ASSERT_EQ(::send(*fd, half_header, sizeof(half_header), MSG_NOSIGNAL), 4);
  char byte = 0;
  // recv blocks until the daemon closes the connection; EOF is the eviction.
  EXPECT_EQ(::recv(*fd, &byte, 1, 0), 0);
  ::close(*fd);

  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->evicted_clients, 1u);
  ASSERT_TRUE((*daemon)->Stop().ok());
}

TEST_F(ServeDaemonTest, GarbageFramesDropTheConnectionWithoutReply) {
  const std::string dir = TempDir("daemon_garbage");
  auto daemon = Daemon::Start(TestOptions(dir));
  ASSERT_TRUE(daemon.ok());
  auto fd = ConnectUnix((*daemon)->socket_path());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> garbage(64, 0xA5);  // Wrong magic.
  ASSERT_EQ(::send(*fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  char byte = 0;
  // Closed without a reply: EOF, or ECONNRESET when the daemon hangs up
  // with part of our garbage still unread.
  EXPECT_LE(::recv(*fd, &byte, 1, 0), 0);
  ::close(*fd);
  // The daemon is still healthy for well-formed clients.
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE((*daemon)->Stop().ok());
}

// Mixed concurrent clients against one daemon; named *ConcurrencyTest so the
// TSan CI leg picks it up.
TEST(ServeDaemonConcurrencyTest, ParallelWritersAndReadersStayConsistent) {
  const std::string dir = ::testing::TempDir() + "daemon_parallel";
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  DaemonOptions options;
  options.dir = dir;
  options.shards = 2;
  options.jobs = 2;
  options.shard.codecs = {"GORILLA"};
  options.shard.sync = false;
  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  constexpr int kWriters = 3;
  constexpr int kBatches = 20;
  constexpr int kPerBatch = 4;
  auto value_at = [](int writer, size_t i) {
    return static_cast<double>(writer * 1000) + static_cast<double>(i) * 0.5;
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Client::Connect((*daemon)->socket_path());
      ASSERT_TRUE(client.ok());
      const std::string series = "writer-" + std::to_string(w);
      for (int b = 0; b < kBatches; ++b) {
        std::vector<double> values;
        for (int i = 0; i < kPerBatch; ++i) {
          values.push_back(value_at(w, b * kPerBatch + i));
        }
        ASSERT_TRUE((*client)
                        ->Append(series,
                                 static_cast<int64_t>(b) * kPerBatch * 60, 60,
                                 values)
                        .ok());
        // Read-your-writes: everything acked so far must be visible, exact,
        // and a clean op-granular prefix.
        auto read = (*client)->ReadRange(series, 0, 1LL << 40);
        ASSERT_TRUE(read.ok());
        ASSERT_EQ(read->values().size(),
                  static_cast<size_t>((b + 1) * kPerBatch));
        for (size_t i = 0; i < read->values().size(); ++i) {
          ASSERT_EQ(read->values()[i], value_at(w, i));
        }
      }
    });
  }
  // A roaming reader hammers foreign series and stats while writers run.
  threads.emplace_back([&] {
    auto client = Client::Connect((*daemon)->socket_path());
    ASSERT_TRUE(client.ok());
    for (int round = 0; round < 40; ++round) {
      for (int w = 0; w < kWriters; ++w) {
        auto read =
            (*client)->ReadRange("writer-" + std::to_string(w), 0, 1LL << 40);
        if (read.ok()) {
          ASSERT_EQ(read->values().size() % kPerBatch, 0u);
          for (size_t i = 0; i < read->values().size(); ++i) {
            ASSERT_EQ(read->values()[i], value_at(w, i));
          }
        } else {
          ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
        }
      }
      ASSERT_TRUE((*client)->Stats().ok());
    }
  });
  for (std::thread& t : threads) t.join();

  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->points,
            static_cast<uint64_t>(kWriters * kBatches * kPerBatch));
  EXPECT_EQ(stats->appended_ops,
            static_cast<uint64_t>(kWriters * kBatches));
  EXPECT_EQ(stats->failed_shards, 0u);
  ASSERT_TRUE((*daemon)->Stop().ok());
}

}  // namespace
}  // namespace lossyts::serve

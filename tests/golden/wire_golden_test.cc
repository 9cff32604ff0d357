// Golden byte pin for the serve protocol: the frame every message travels
// in, and what DecodeRequest/DecodeReply make of every truncation, a
// one-byte append and every single-bit flip of its payload. Every row was
// printed by wire_golden_gen; a change to the frame or message codecs must
// leave every row unchanged.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "golden/wire_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* label;
  uint64_t frame_bytes;
  uint64_t frame_fnv;
  uint64_t truncation_fnv;
  uint64_t append_fnv;
  uint64_t flip_fnv;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"request/ping", 13, 0x716013D9BF3FEDA3ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x83F2B0FB93830E81ULL},
    {"request/append", 96, 0xE07BFEF21B55ED89ULL,
     0xBCDFEE2169B348F5ULL, 0xAF9407B363260D54ULL, 0x5F60D4FA87A97A77ULL},
    {"request/read_range", 40, 0x6BAD66B84E351295ULL,
     0x3FB506AB1DDF2B15ULL, 0xAF9407B363260D54ULL, 0x3B485F3C458C13B4ULL},
    {"request/stats", 13, 0x815FCB4EB10B80B1ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x7A5805BBD3762D62ULL},
    {"request/shutdown", 13, 0x8101AFF6EC04CA96ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0xB719A1D0C3E7CC14ULL},
    {"request/list_series", 13, 0xACC7920E85665F38ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x344B29F17D37E0E0ULL},
    {"request/query", 79, 0xD657F8A20F50FF08ULL,
     0x0A5E619E2605649CULL, 0xAF9407B363260D54ULL, 0x64DE29EA4B88CA0AULL},
    {"request/stream_info", 23, 0x81608C7515B17E41ULL,
     0x36002C3FDEE565BCULL, 0xAF9407B363260D54ULL, 0x2820AF602701DD06ULL},
    {"reply/ok/ping", 13, 0x24434CFC59859980ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x2E141B03235CBA45ULL},
    {"reply/ok/append", 13, 0x24434CFC59859980ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x2E141B03235CBA45ULL},
    {"reply/ok/read_range", 85, 0x5220C067F282A2F8ULL,
     0x3397F056A379C674ULL, 0xAF9407B363260D54ULL, 0xE45495C85E910011ULL},
    {"reply/ok/stats", 149, 0x43F6F19483CFA904ULL,
     0x743B8291B2502774ULL, 0xAF9407B363260D54ULL, 0x65D5E939405AAB8DULL},
    {"reply/ok/shutdown", 13, 0x24434CFC59859980ULL,
     0xAF9407B363260D54ULL, 0xAF9407B363260D54ULL, 0x2E141B03235CBA45ULL},
    {"reply/ok/list_series", 42, 0xDEEEEFF6BEAA0055ULL,
     0xA07FCC0B8B4BD21DULL, 0xAF9407B363260D54ULL, 0x687FCB6D49AC3B68ULL},
    {"reply/ok/query", 190, 0x228A59D7F8F916C4ULL,
     0xB1FEBAE48EF207EDULL, 0xAF9407B363260D54ULL, 0x897D1284440A2E45ULL},
    {"reply/ok/stream_info", 75, 0xD82DFC1A6AA468F5ULL,
     0x2CA758CF797BCA8CULL, 0xAF9407B363260D54ULL, 0x3C7D82ECBDC24096ULL},
    {"reply/error", 72, 0xAFB8881D5B333DECULL,
     0x56F83407EC4CA795ULL, 0xAF9407B363260D54ULL, 0xA2D0BD0F982BEFAAULL},
    {"reply/retry", 37, 0x4D8C69B9E5258423ULL,
     0x20DB4421E9C18DB4ULL, 0xAF9407B363260D54ULL, 0x5E21104030BE6D51ULL},
};
// clang-format on

TEST(WireGoldenTest, EveryMessageMatches) {
  Result<std::vector<WireDigest>> rows = ComputeWireDigests();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), std::size(kGolden));
  for (size_t i = 0; i < rows->size(); ++i) {
    const GoldenRow& want = kGolden[i];
    const WireDigest& got = (*rows)[i];
    SCOPED_TRACE(want.label);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.frame_bytes, want.frame_bytes);
    EXPECT_EQ(got.frame_fnv, want.frame_fnv);
    EXPECT_EQ(got.truncation_fnv, want.truncation_fnv);
    EXPECT_EQ(got.append_fnv, want.append_fnv);
    EXPECT_EQ(got.flip_fnv, want.flip_fnv);
  }
}

TEST(WireGoldenTest, EveryFrameReadsBackItsPayload) {
  for (const WireCase& c : MakeWireCases()) {
    SCOPED_TRACE(c.label);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(serve::WriteFrame(fds[0], c.payload, 1000).ok());
    Result<std::vector<uint8_t>> read = serve::ReadFrame(fds[1], 1000);
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, c.payload);
  }
}

}  // namespace
}  // namespace lossyts::golden

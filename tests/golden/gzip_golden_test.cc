// Golden byte pin for zip::GzipCompress. Every row was printed by
// gzip_golden_gen; a change to the LZ77 parse, the Huffman codes or the
// block layout must leave every gzip byte, and so every compression ratio,
// unchanged. The rows cover the CR numerators (raw CSVs), the compression
// sweep's codec blobs and synthetic inputs at DEFLATE's size edges.

#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "golden/gzip_digest.h"

namespace lossyts::golden {
namespace {

struct GoldenRow {
  const char* label;
  uint64_t inputs;
  uint64_t input_bytes;
  uint64_t gz_bytes;
  uint64_t gz_fnv;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"csv:ETTm1", 1, 144608, 43888, 0x61EB8EDFA69F1F23ULL},
    {"csv:ETTm2", 1, 146383, 45000, 0x9C9A5D7FB34EB9B4ULL},
    {"csv:Solar", 1, 96147, 25294, 0x77AF5810D73E507BULL},
    {"csv:Weather", 1, 110598, 27715, 0x268FFE3A0F80FF54ULL},
    {"csv:ElecDem", 1, 461596, 147147, 0x6F4D54526A48BE69ULL},
    {"csv:Wind", 1, 224518, 65361, 0x29E1EFF486344094ULL},
    {"split:ETTm1", 1, 11495, 3555, 0x63AB9E1136E14F37ULL},
    {"split:ETTm2", 1, 11653, 3611, 0x6CE0D0444ACF43E5ULL},
    {"split:Solar", 1, 7678, 1995, 0x07E980168BC8EEDDULL},
    {"split:Weather", 1, 8892, 2210, 0x320AC4DE1F09445FULL},
    {"split:ElecDem", 1, 36997, 11975, 0x90EDBE76A7A571EEULL},
    {"split:Wind", 1, 18215, 5453, 0x4FDE67A43491C90AULL},
    {"blobs:PMC", 78, 1048440, 493795, 0x7F3D6FB15DA7C67FULL},
    {"blobs:SWING", 78, 1363014, 669929, 0xCA3421D9318E8467ULL},
    {"blobs:SZ", 78, 1407633, 347375, 0x5591E4661437E52DULL},
    {"blobs:PPA", 78, 1273611, 822419, 0x693104882109F5D3ULL},
    {"blobs:LFZIP", 78, 1437821, 375655, 0xF5DF6E3C62B637CAULL},
    {"blobs:CAMEO", 78, 2165314, 670147, 0x8C8FA31278A1E27DULL},
    {"blobs:GORILLA", 6, 375019, 192750, 0xF1AE6544587A0024ULL},
    {"blobs:CHIMP", 6, 327921, 196390, 0xC4B2F2BBD6B13F58ULL},
    {"random:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"random:1", 1, 1, 24, 0xDA7601F2FA5F8CC1ULL},
    {"random:2", 1, 2, 25, 0xEB5B64A89AC68C56ULL},
    {"random:3", 1, 3, 26, 0xA3177BB20FF477C6ULL},
    {"random:4", 1, 4, 27, 0x9DFC677A9A7EF698ULL},
    {"random:5", 1, 5, 28, 0x3B7BEC728291B93BULL},
    {"random:6", 1, 6, 29, 0x4F88496CD19B2C64ULL},
    {"random:7", 1, 7, 30, 0xE864EC8018948A90ULL},
    {"random:8", 1, 8, 43, 0x8B5F9D6652C04BD0ULL},
    {"random:9", 1, 9, 45, 0xF986D051078E2D6DULL},
    {"random:257", 1, 257, 326, 0x25024471F54368E4ULL},
    {"random:258", 1, 258, 327, 0xA37BCDC7227E1A4DULL},
    {"random:259", 1, 259, 327, 0xD1FC1DB47D8A9BA2ULL},
    {"random:32767", 1, 32767, 32835, 0xD03E74452D31788CULL},
    {"random:32768", 1, 32768, 32836, 0x6BC0F464460633B7ULL},
    {"random:32769", 1, 32769, 32837, 0xD6EB9C929DBB1304ULL},
    {"random:65535", 1, 65535, 65627, 0xACB1B58FCED94CEBULL},
    {"random:65536", 1, 65536, 65628, 0xDA72FF9EE5A4155BULL},
    {"random:65537", 1, 65537, 65629, 0x2F22CCB4F572B02EULL},
    {"random:140000", 1, 140000, 140144, 0x779A5353C4F0CC8FULL},
    {"alphabet3:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"alphabet3:1", 1, 1, 24, 0x13E5276D75BE0EE3ULL},
    {"alphabet3:2", 1, 2, 25, 0xEA0407974C4DF7E5ULL},
    {"alphabet3:3", 1, 3, 26, 0xCF6C7C62A1B83B93ULL},
    {"alphabet3:4", 1, 4, 27, 0x506FB4F8F30D7E23ULL},
    {"alphabet3:5", 1, 5, 28, 0xEDAF007C61613833ULL},
    {"alphabet3:6", 1, 6, 29, 0xD585CA4E6D64D983ULL},
    {"alphabet3:7", 1, 7, 30, 0xA44C2160C1CCB08CULL},
    {"alphabet3:8", 1, 8, 34, 0x67816D3E4A9E6B52ULL},
    {"alphabet3:9", 1, 9, 35, 0x428A34B9B3E3E68EULL},
    {"alphabet3:257", 1, 257, 110, 0x4E3A55858C6320E3ULL},
    {"alphabet3:258", 1, 258, 110, 0x886643AF3C88814FULL},
    {"alphabet3:259", 1, 259, 110, 0x25E345B54041C778ULL},
    {"alphabet3:32767", 1, 32767, 7990, 0xC8ECB14C43027595ULL},
    {"alphabet3:32768", 1, 32768, 7990, 0xE1525B2E2E6B4293ULL},
    {"alphabet3:32769", 1, 32769, 7992, 0xD39C2BD707CCCC32ULL},
    {"alphabet3:65535", 1, 65535, 15803, 0x83435D2FFBF8B34EULL},
    {"alphabet3:65536", 1, 65536, 15804, 0xE079522EE2E0D36AULL},
    {"alphabet3:65537", 1, 65537, 15804, 0xA816071FAE705814ULL},
    {"alphabet3:140000", 1, 140000, 33494, 0x50474C987FAA0063ULL},
    {"text:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"text:1", 1, 1, 24, 0x1FC79AA4CCD77BD2ULL},
    {"text:2", 1, 2, 25, 0xD23013A9A014768EULL},
    {"text:3", 1, 3, 26, 0x3ED317064C9ED7DAULL},
    {"text:4", 1, 4, 27, 0x5732086D7FA062DCULL},
    {"text:5", 1, 5, 28, 0xF325B5462C49A0C1ULL},
    {"text:6", 1, 6, 29, 0xBE3B5A0A246E038DULL},
    {"text:7", 1, 7, 30, 0x8555125CE122580DULL},
    {"text:8", 1, 8, 41, 0x35D0A64412EAC153ULL},
    {"text:9", 1, 9, 42, 0xA6F23A07B3273B96ULL},
    {"text:257", 1, 257, 127, 0xBEA59F990E5A041BULL},
    {"text:258", 1, 258, 127, 0x2A6CA2AD7BD8C620ULL},
    {"text:259", 1, 259, 128, 0x1A142B27AEC36B50ULL},
    {"text:32767", 1, 32767, 4839, 0x629BA051EDB86B56ULL},
    {"text:32768", 1, 32768, 4840, 0x97DEE6D48BDFC752ULL},
    {"text:32769", 1, 32769, 4839, 0xADBDC3D4C3846B17ULL},
    {"text:65535", 1, 65535, 9334, 0xCCC2ECFB38BB41D3ULL},
    {"text:65536", 1, 65536, 9334, 0x4D8478AD49AC8B31ULL},
    {"text:65537", 1, 65537, 9334, 0x5CDE9DF46577954BULL},
    {"text:140000", 1, 140000, 19575, 0x8FBAD11924D2DC4BULL},
    {"period32768:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"period32768:1", 1, 1, 24, 0xDA7601F2FA5F8CC1ULL},
    {"period32768:2", 1, 2, 25, 0xEB5B64A89AC68C56ULL},
    {"period32768:3", 1, 3, 26, 0xA3177BB20FF477C6ULL},
    {"period32768:4", 1, 4, 27, 0x9DFC677A9A7EF698ULL},
    {"period32768:5", 1, 5, 28, 0x3B7BEC728291B93BULL},
    {"period32768:6", 1, 6, 29, 0x4F88496CD19B2C64ULL},
    {"period32768:7", 1, 7, 30, 0xE864EC8018948A90ULL},
    {"period32768:8", 1, 8, 43, 0x8B5F9D6652C04BD0ULL},
    {"period32768:9", 1, 9, 45, 0xF986D051078E2D6DULL},
    {"period32768:257", 1, 257, 326, 0x25024471F54368E4ULL},
    {"period32768:258", 1, 258, 327, 0xA37BCDC7227E1A4DULL},
    {"period32768:259", 1, 259, 327, 0xD1FC1DB47D8A9BA2ULL},
    {"period32768:32767", 1, 32767, 32835, 0xD03E74452D31788CULL},
    {"period32768:32768", 1, 32768, 32836, 0x6BC0F464460633B7ULL},
    {"period32768:32769", 1, 32769, 32837, 0x57F08CAA500D45E0ULL},
    {"period32768:65535", 1, 65535, 33219, 0xB70A63D1FA080DC5ULL},
    {"period32768:65536", 1, 65536, 33220, 0xD05C107EE854133DULL},
    {"period32768:65537", 1, 65537, 33221, 0xD9D079FF67EB4290ULL},
    {"period32768:140000", 1, 140000, 33992, 0x3B02C62000334ED4ULL},
    {"constant:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"constant:1", 1, 1, 24, 0xB1191CA28D71CC59ULL},
    {"constant:2", 1, 2, 25, 0x218C14DB7690E827ULL},
    {"constant:3", 1, 3, 26, 0x2F03F0B29D874B7DULL},
    {"constant:4", 1, 4, 27, 0xCBD91CFD756F687DULL},
    {"constant:5", 1, 5, 28, 0xB8934C626017FB02ULL},
    {"constant:6", 1, 6, 29, 0x510E64C171E11F5BULL},
    {"constant:7", 1, 7, 30, 0x4A9BA9C4FE7818D1ULL},
    {"constant:8", 1, 8, 32, 0x7FB5668C8CA4FFFAULL},
    {"constant:9", 1, 9, 32, 0x11AD0444CE97B48EULL},
    {"constant:257", 1, 257, 33, 0xC645A70BFA3C8929ULL},
    {"constant:258", 1, 258, 33, 0x9D5C18F9A77403B2ULL},
    {"constant:259", 1, 259, 32, 0xE077B7BC2CBCEA6AULL},
    {"constant:32767", 1, 32767, 64, 0x90EF03B9D36AD0AFULL},
    {"constant:32768", 1, 32768, 64, 0x619E23A7E1BC6032ULL},
    {"constant:32769", 1, 32769, 64, 0x21BAF356F325A80EULL},
    {"constant:65535", 1, 65535, 96, 0xCD4DC5E4307D1B8DULL},
    {"constant:65536", 1, 65536, 97, 0xD57A423325B327C9ULL},
    {"constant:65537", 1, 65537, 97, 0xCC846C1059C47F1CULL},
    {"constant:140000", 1, 140000, 170, 0xACBDCE3C88A9193DULL},
    {"runs:0", 1, 0, 23, 0x11113061DE87D25BULL},
    {"runs:1", 1, 1, 24, 0xB1191CA28D71CC59ULL},
    {"runs:2", 1, 2, 25, 0x218C14DB7690E827ULL},
    {"runs:3", 1, 3, 26, 0x2F03F0B29D874B7DULL},
    {"runs:4", 1, 4, 27, 0xCBD91CFD756F687DULL},
    {"runs:5", 1, 5, 28, 0xB8934C626017FB02ULL},
    {"runs:6", 1, 6, 29, 0x510E64C171E11F5BULL},
    {"runs:7", 1, 7, 30, 0x4A9BA9C4FE7818D1ULL},
    {"runs:8", 1, 8, 32, 0x7FB5668C8CA4FFFAULL},
    {"runs:9", 1, 9, 32, 0x11AD0444CE97B48EULL},
    {"runs:257", 1, 257, 41, 0xA2024559E640C5BAULL},
    {"runs:258", 1, 258, 41, 0x5CAEF3C68A9555CEULL},
    {"runs:259", 1, 259, 41, 0x6EF57E10C24F68B6ULL},
    {"runs:32767", 1, 32767, 511, 0x28D195561F4BF629ULL},
    {"runs:32768", 1, 32768, 511, 0xD2190549EC6B5511ULL},
    {"runs:32769", 1, 32769, 511, 0x8D02B9FD7A78E46DULL},
    {"runs:65535", 1, 65535, 979, 0xB9FBFD875BFB1E62ULL},
    {"runs:65536", 1, 65536, 979, 0xB4E647AF0F9CCDEDULL},
    {"runs:65537", 1, 65537, 979, 0x88E8DC3648A12856ULL},
    {"runs:140000", 1, 140000, 1926, 0x6DCDA5DA941F7120ULL},
};
// clang-format on

// One row per label, in GzipGoldenLabels() order, so trimming the datasets,
// codecs, patterns or sizes cannot shrink the pin silently.
TEST(GzipGoldenTest, TableCoversEveryLabel) {
  const std::vector<std::string> labels = GzipGoldenLabels();
  ASSERT_EQ(std::size(kGolden), labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(kGolden[i].label, labels[i]);
  }
}

TEST(GzipGoldenTest, EveryRowMatches) {
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(row.label);
    Result<GzipDigest> d = ComputeGzipDigest(row.label);
    ASSERT_TRUE(d.ok()) << d.status().message();
    EXPECT_EQ(d->inputs, row.inputs);
    EXPECT_EQ(d->input_bytes, row.input_bytes);
    EXPECT_EQ(d->gz_bytes, row.gz_bytes);
    EXPECT_EQ(d->gz_fnv, row.gz_fnv);
  }
}

}  // namespace
}  // namespace lossyts::golden

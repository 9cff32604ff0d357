#include "compress/pipeline.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "zip/gzip.h"

namespace lossyts::compress {
namespace {

TimeSeries SmoothSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 50.0;
  for (size_t i = 0; i < n; ++i) {
    x += 0.05 * rng.Normal();
    v[i] = x + 3.0 * std::sin(static_cast<double>(i) * 0.02);
  }
  return TimeSeries(0, 900, std::move(v));
}

TEST(PipelineTest, SerializeRawCsvIsParsableText) {
  TimeSeries ts = SmoothSeries(10, 1);
  std::vector<uint8_t> csv = SerializeRawCsv(ts);
  const std::string text(csv.begin(), csv.end());
  EXPECT_EQ(text.rfind("timestamp,value\n", 0), 0u);
  // One header line plus one line per point.
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 11u);
}

TEST(PipelineTest, RawGzipShrinksSmoothData) {
  TimeSeries ts = SmoothSeries(5000, 2);
  EXPECT_LT(RawGzipSize(ts), SerializeRawCsv(ts).size());
}

// RawGzipSize and RunPipeline's raw sizes are memoized per exact series; they
// must always equal the direct computation, however the calls interleave.
void ExpectRawSizesExact(const TimeSeries& ts, const Compressor& codec) {
  const std::vector<uint8_t> csv = SerializeRawCsv(ts);
  const size_t direct_gz = zip::GzipCompress(csv).size();
  EXPECT_EQ(RawGzipSize(ts), direct_gz);
  Result<PipelineResult> r = RunPipeline(codec, ts, 0.05);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->raw_bytes, csv.size());
  EXPECT_EQ(r->raw_gz_bytes, direct_gz);
}

TEST(PipelineTest, RawSizesDistinguishSeriesDifferingInOneValue) {
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  TimeSeries a = SmoothSeries(1500, 21);
  TimeSeries b = a;
  // The smooth values print with ten significant digits and 7 prints as one
  // character, so the CSV's size changes and a false memo hit would show.
  b.mutable_values()[700] = 7.0;
  ASSERT_NE(SerializeRawCsv(a).size(), SerializeRawCsv(b).size());
  for (int round = 0; round < 2; ++round) {
    ExpectRawSizesExact(a, **pmc);
    ExpectRawSizesExact(b, **pmc);
  }
}

TEST(PipelineTest, RawSizesDistinguishStartIntervalAndLength) {
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  const TimeSeries base = SmoothSeries(1200, 23);
  std::vector<double> prefix(base.values().begin(),
                             base.values().begin() + 1100);
  const std::vector<TimeSeries> variants = {
      base,
      TimeSeries(1700000000, base.interval_seconds(), base.values()),
      TimeSeries(base.start_timestamp(), 60, base.values()),
      TimeSeries(base.start_timestamp(), base.interval_seconds(), prefix),
  };
  for (size_t i = 1; i < variants.size(); ++i) {
    ASSERT_NE(SerializeRawCsv(variants[i]).size(),
              SerializeRawCsv(variants[0]).size())
        << "variant " << i;
  }
  for (int round = 0; round < 2; ++round) {
    for (const TimeSeries& ts : variants) ExpectRawSizesExact(ts, **pmc);
    // The empty prefix: header-only CSV.
    EXPECT_EQ(RawGzipSize(TimeSeries()),
              zip::GzipCompress(SerializeRawCsv(TimeSeries())).size());
  }
}

TEST(PipelineTest, RawSizesFollowMutationAfterFirstCall) {
  Result<std::unique_ptr<Compressor>> swing = MakeCompressor("SWING");
  ASSERT_TRUE(swing.ok());
  TimeSeries ts = SmoothSeries(1000, 25);
  ExpectRawSizesExact(ts, **swing);
  const size_t before = SerializeRawCsv(ts).size();
  // Whole numbers print shorter than the smooth values did.
  for (double& v : ts.mutable_values()) v = std::round(v);
  ASSERT_NE(SerializeRawCsv(ts).size(), before);
  ExpectRawSizesExact(ts, **swing);
  ts.mutable_values().push_back(42.0);
  ExpectRawSizesExact(ts, **swing);
}

TEST(PipelineTest, RawSizesStayExactAcrossEviction) {
  // Well past the memo's capacity: cycling forward twice misses on every
  // call, and the reverse pass then meets resident series first, evicted
  // ones after.
  Result<std::unique_ptr<Compressor>> sz = MakeCompressor("SZ");
  ASSERT_TRUE(sz.ok());
  std::vector<TimeSeries> many;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    many.push_back(SmoothSeries(300 + seed, 100 + seed));
  }
  for (int round = 0; round < 2; ++round) {
    for (const TimeSeries& ts : many) ExpectRawSizesExact(ts, **sz);
  }
  for (size_t i = many.size(); i-- > 0;) ExpectRawSizesExact(many[i], **sz);
}

TEST(PipelineTest, RunPipelineProducesConsistentResult) {
  TimeSeries ts = SmoothSeries(3000, 3);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<PipelineResult> result = RunPipeline(**pmc, ts, 0.05);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->compressor_name, "PMC");
  EXPECT_DOUBLE_EQ(result->error_bound, 0.05);
  EXPECT_GT(result->compression_ratio, 1.0);
  EXPECT_GT(result->segment_count, 0u);
  EXPECT_LT(result->segment_count, ts.size());
  EXPECT_GT(result->te_rmse, 0.0);
  EXPECT_LE(result->te_max_rel, 0.05 * (1.0 + 1e-9));
  EXPECT_EQ(result->decompressed.size(), ts.size());
  EXPECT_EQ(result->raw_gz_bytes, RawGzipSize(ts));
  EXPECT_DOUBLE_EQ(result->compression_ratio,
                   static_cast<double>(result->raw_gz_bytes) /
                       static_cast<double>(result->gz_bytes));
}

TEST(PipelineTest, CrIncreasesWithErrorBoundForPmc) {
  TimeSeries ts = SmoothSeries(4000, 5);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<PipelineResult> low = RunPipeline(**pmc, ts, 0.01);
  Result<PipelineResult> high = RunPipeline(**pmc, ts, 0.5);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GT(high->compression_ratio, low->compression_ratio);
  EXPECT_GE(high->te_rmse, low->te_rmse);
  EXPECT_LT(high->segment_count, low->segment_count);
}

TEST(PipelineTest, AllThreeLossyCompressorsBeatGorillaOnSmoothData) {
  TimeSeries ts = SmoothSeries(4000, 7);
  Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
  ASSERT_TRUE(gorilla.ok());
  Result<PipelineResult> baseline = RunPipeline(**gorilla, ts, 0.0);
  ASSERT_TRUE(baseline.ok());
  for (const std::string& name : LossyCompressorNames()) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    ASSERT_TRUE(c.ok());
    Result<PipelineResult> r = RunPipeline(**c, ts, 0.1);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_GT(r->compression_ratio, baseline->compression_ratio) << name;
  }
}

TEST(PipelineTest, GorillaIsLosslessThroughPipeline) {
  TimeSeries ts = SmoothSeries(2000, 9);
  Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
  ASSERT_TRUE(gorilla.ok());
  Result<PipelineResult> r = RunPipeline(**gorilla, ts, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->te_rmse, 0.0);
  EXPECT_EQ(r->te_max_rel, 0.0);
}

TEST(PipelineTest, SegmentCountsMatchFigure3Ordering) {
  // Swing's two-coefficient model needs fewer segments than PMC's constant.
  TimeSeries ts = SmoothSeries(4000, 11);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  Result<std::unique_ptr<Compressor>> swing = MakeCompressor("SWING");
  ASSERT_TRUE(pmc.ok());
  ASSERT_TRUE(swing.ok());
  Result<PipelineResult> pmc_result = RunPipeline(**pmc, ts, 0.1);
  Result<PipelineResult> swing_result = RunPipeline(**swing, ts, 0.1);
  ASSERT_TRUE(pmc_result.ok());
  ASSERT_TRUE(swing_result.ok());
  EXPECT_LE(swing_result->segment_count, pmc_result->segment_count);
}

TEST(PipelineTest, MakeCompressorRejectsUnknownName) {
  // The name is a caller-supplied argument (a --codecs flag), so the failure
  // is InvalidArgument — not NotFound — and the message must echo the input
  // so a typo is diagnosable from the error alone.
  Result<std::unique_ptr<Compressor>> c = MakeCompressor("LZMA");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(c.status().message().find("LZMA"), std::string::npos)
      << c.status().ToString();
}

TEST(PipelineTest, MakeCompressorIsCaseSensitive) {
  for (const std::string name : {"pmc", "Swing", "sz", "lfzip", "cameo"}) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    EXPECT_FALSE(c.ok()) << name;
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(c.status().message().find(name), std::string::npos) << name;
  }
}

TEST(PipelineTest, CompressionRatioIsExactlyRawGzOverGz) {
  // Eq. 3 regression: the ratio must be the plain double division of the two
  // gzipped byte counts, with no rounding, clamping, or epsilon.
  TimeSeries ts = SmoothSeries(2500, 13);
  for (const std::string name :
       {"PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO"}) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    ASSERT_TRUE(c.ok()) << name;
    Result<PipelineResult> r = RunPipeline(**c, ts, 0.05);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    ASSERT_GT(r->gz_bytes, 0u) << name;
    EXPECT_EQ(r->compression_ratio,
              static_cast<double>(r->raw_gz_bytes) /
                  static_cast<double>(r->gz_bytes))
        << name;
  }
}

// All eight registered algorithm-id bytes, as (id, MakeCompressor name).
struct IdCase {
  AlgorithmId id;
  const char* name;
};

class DecompressAnyIdTest : public ::testing::TestWithParam<IdCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllEightIds, DecompressAnyIdTest,
    ::testing::Values(IdCase{AlgorithmId::kPmc, "PMC"},
                      IdCase{AlgorithmId::kSwing, "SWING"},
                      IdCase{AlgorithmId::kSz, "SZ"},
                      IdCase{AlgorithmId::kGorilla, "GORILLA"},
                      IdCase{AlgorithmId::kChimp, "CHIMP"},
                      IdCase{AlgorithmId::kPpa, "PPA"},
                      IdCase{AlgorithmId::kLfzip, "LFZIP"},
                      IdCase{AlgorithmId::kCameo, "CAMEO"}),
    [](const ::testing::TestParamInfo<IdCase>& info) {
      return info.param.name;
    });

TEST_P(DecompressAnyIdTest, DispatchesRegisteredIdToItsCodec) {
  TimeSeries ts = SmoothSeries(300, 17);
  Result<std::unique_ptr<Compressor>> codec = MakeCompressor(GetParam().name);
  ASSERT_TRUE(codec.ok());
  Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ASSERT_EQ((*blob)[0], static_cast<uint8_t>(GetParam().id));
  Result<TimeSeries> round = DecompressAny(*blob);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->size(), ts.size());
}

TEST_P(DecompressAnyIdTest, RegisteredIdOverGarbagePayloadFailsCleanly) {
  // A valid id byte over a garbage payload must be a Status, never a crash
  // or a misparse that silently returns data.
  std::vector<uint8_t> blob(64, 0xA5);
  blob[0] = static_cast<uint8_t>(GetParam().id);
  Result<TimeSeries> r = DecompressAny(blob);
  EXPECT_FALSE(r.ok());
}

TEST(PipelineTest, DecompressAnyRejectsUnregisteredIdByte) {
  // Every id byte outside the eight registered ones must fail with
  // Corruption before any codec-specific parsing happens. A real header
  // follows the id byte so a misdispatch would otherwise have bytes to chew.
  TimeSeries ts = SmoothSeries(100, 19);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<std::vector<uint8_t>> blob = (*pmc)->Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  for (int id : {0, 9, 10, 127, 255}) {
    std::vector<uint8_t> spliced = *blob;
    spliced[0] = static_cast<uint8_t>(id);
    Result<TimeSeries> r = DecompressAny(spliced);
    ASSERT_FALSE(r.ok()) << "id byte " << id;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "id byte " << id;
  }
  EXPECT_FALSE(DecompressAny({}).ok());
}

TEST(PipelineTest, PaperErrorBoundsMatchSection32) {
  const std::vector<double>& ebs = PaperErrorBounds();
  ASSERT_EQ(ebs.size(), 13u);
  EXPECT_DOUBLE_EQ(ebs.front(), 0.01);
  EXPECT_DOUBLE_EQ(ebs.back(), 0.8);
  for (size_t i = 1; i < ebs.size(); ++i) EXPECT_GT(ebs[i], ebs[i - 1]);
}

TEST(PipelineTest, CountConstantRuns) {
  EXPECT_EQ(CountConstantRuns(TimeSeries()), 0u);
  EXPECT_EQ(CountConstantRuns(TimeSeries(0, 1, {1.0})), 1u);
  EXPECT_EQ(CountConstantRuns(TimeSeries(0, 1, {1.0, 1.0, 2.0, 2.0, 1.0})),
            3u);
}

TEST(PipelineConcurrencyTest, ParallelRunsSeeExactRawSizes) {
  // The raw-size memo is shared process state; pool workers race on its
  // misses and hits. Every result must still equal the direct computation.
  const std::vector<TimeSeries> series = {
      SmoothSeries(800, 31), SmoothSeries(900, 32), SmoothSeries(1000, 33)};
  std::vector<size_t> direct_csv;
  std::vector<size_t> direct_gz;
  for (const TimeSeries& ts : series) {
    const std::vector<uint8_t> csv = SerializeRawCsv(ts);
    direct_csv.push_back(csv.size());
    direct_gz.push_back(zip::GzipCompress(csv).size());
  }
  std::vector<std::unique_ptr<Compressor>> codecs;
  for (const std::string name : {"PMC", "SWING", "SZ"}) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    ASSERT_TRUE(c.ok()) << name;
    codecs.push_back(std::move(*c));
  }

  constexpr size_t kRepeats = 4;
  struct Slot {
    size_t series = 0;
    bool ok = false;
    size_t raw_bytes = 0;
    size_t raw_gz_bytes = 0;
    size_t raw_gzip_size = 0;
  };
  std::vector<Slot> slots(kRepeats * series.size() * codecs.size());
  {
    ThreadPool pool(4);
    size_t next = 0;
    for (size_t rep = 0; rep < kRepeats; ++rep) {
      for (size_t s = 0; s < series.size(); ++s) {
        for (size_t c = 0; c < codecs.size(); ++c) {
          Slot* slot = &slots[next++];
          slot->series = s;
          pool.Submit([slot, &series, &codecs, s, c] {
            Result<PipelineResult> r = RunPipeline(*codecs[c], series[s], 0.1);
            slot->ok = r.ok();
            if (r.ok()) {
              slot->raw_bytes = r->raw_bytes;
              slot->raw_gz_bytes = r->raw_gz_bytes;
            }
            slot->raw_gzip_size = RawGzipSize(series[s]);
          });
        }
      }
    }
    pool.Wait();
  }
  for (const Slot& slot : slots) {
    ASSERT_TRUE(slot.ok);
    EXPECT_EQ(slot.raw_bytes, direct_csv[slot.series]);
    EXPECT_EQ(slot.raw_gz_bytes, direct_gz[slot.series]);
    EXPECT_EQ(slot.raw_gzip_size, direct_gz[slot.series]);
  }
}

}  // namespace
}  // namespace lossyts::compress

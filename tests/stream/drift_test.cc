#include "stream/drift.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/change_detection.h"
#include "bench_common.h"
#include "compress/pipeline.h"
#include "core/rng.h"
#include "stream/streaming_compressor.h"

namespace lossyts::stream {
namespace {

/// Piecewise series with mean shifts at the given cut indices.
std::vector<double> ShiftingSeries(size_t n, const std::vector<size_t>& cuts,
                                   double step, uint64_t seed,
                                   double noise = 0.5) {
  Rng rng(seed);
  std::vector<double> v(n);
  double level = 20.0;
  size_t next_cut = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next_cut < cuts.size() && i == cuts[next_cut]) {
      level += step;
      ++next_cut;
    }
    v[i] = level + noise * rng.Normal();
  }
  return v;
}

// The drift corpus runs point CUSUM with a scale-aware sigma floor, as the
// change-detection bench does.
analysis::CusumOptions CorpusCusum() {
  analysis::CusumOptions cusum;
  cusum.min_sigma = 0.5;
  return cusum;
}

std::vector<size_t> Online(const std::vector<double>& values,
                           const analysis::CusumOptions& options) {
  OnlineCusum cusum(options);
  std::vector<size_t> changes;
  for (double v : values) cusum.Update(v, &changes);
  Status s = cusum.Finish(&changes);
  EXPECT_TRUE(s.ok()) << s.message();
  return changes;
}

TEST(OnlineCusumTest, MatchesOfflineOnShiftingSeries) {
  const std::vector<double> values =
      ShiftingSeries(1200, {300, 600, 900}, 8.0, 42);
  analysis::CusumOptions options;
  Result<std::vector<size_t>> offline =
      analysis::DetectChanges(values, options);
  ASSERT_TRUE(offline.ok());
  EXPECT_FALSE(offline->empty());
  EXPECT_EQ(Online(values, options), *offline);
}

TEST(OnlineCusumTest, MatchesOfflineAcrossSeedsAndOptions) {
  // The pinned contract: the online detector IS the offline one, for every
  // option combination — thresholds, spacing, warmup sizes (including
  // warmup < 8, where the offline detector skips re-anchoring), min_sigma.
  std::vector<analysis::CusumOptions> grid;
  for (double threshold : {3.0, 8.0}) {
    for (size_t warmup : {5u, 20u, 50u}) {
      for (size_t spacing : {1u, 25u}) {
        for (double min_sigma : {0.0, 1.0}) {
          analysis::CusumOptions o;
          o.threshold = threshold;
          o.warmup = warmup;
          o.min_spacing = spacing;
          o.min_sigma = min_sigma;
          grid.push_back(o);
        }
      }
    }
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<double> values =
        ShiftingSeries(700, {150, 350, 550}, 6.0, seed);
    for (const analysis::CusumOptions& options : grid) {
      Result<std::vector<size_t>> offline =
          analysis::DetectChanges(values, options);
      ASSERT_TRUE(offline.ok());
      EXPECT_EQ(Online(values, options), *offline)
          << "seed=" << seed << " threshold=" << options.threshold
          << " warmup=" << options.warmup
          << " spacing=" << options.min_spacing
          << " min_sigma=" << options.min_sigma;
    }
  }
}

TEST(OnlineCusumTest, MatchesOfflineWithAlarmNearEnd) {
  // A shift landing inside the final warmup-sized window exercises the
  // truncated re-anchor path in Finish (offline skips re-anchoring when
  // fewer than 8 points remain).
  analysis::CusumOptions options;
  options.warmup = 30;
  for (size_t cut : {660u, 665u, 670u, 675u, 680u, 690u, 695u, 699u}) {
    const std::vector<double> values = ShiftingSeries(700, {cut}, 10.0, 9);
    Result<std::vector<size_t>> offline =
        analysis::DetectChanges(values, options);
    ASSERT_TRUE(offline.ok());
    EXPECT_EQ(Online(values, options), *offline) << "cut=" << cut;
  }
}

TEST(OnlineCusumTest, MatchesOfflineOnConstantAndExtremeInput) {
  analysis::CusumOptions options;
  options.min_sigma = 0.5;
  for (const std::vector<double>& values :
       {std::vector<double>(200, 5.0),
        ShiftingSeries(200, {100}, 1e6, 3, 0.0)}) {
    Result<std::vector<size_t>> offline =
        analysis::DetectChanges(values, options);
    ASSERT_TRUE(offline.ok());
    EXPECT_EQ(Online(values, options), *offline);
  }
}

TEST(OnlineCusumTest, ShortStreamFailsLikeOffline) {
  analysis::CusumOptions options;
  options.warmup = 50;
  OnlineCusum cusum(options);
  std::vector<size_t> changes;
  for (size_t i = 0; i < options.warmup + 1; ++i) cusum.Update(1.0, &changes);
  EXPECT_EQ(cusum.Finish(&changes).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(changes.empty());
  // One more point than the precondition demands succeeds.
  OnlineCusum ok(options);
  for (size_t i = 0; i < options.warmup + 2; ++i) ok.Update(1.0, &changes);
  EXPECT_TRUE(ok.Finish(&changes).ok());
}

TEST(OnlineCusumTest, ConfirmationLatencyBoundedByWarmup) {
  // Every change index is reported no later than `warmup` points after the
  // change position itself.
  analysis::CusumOptions options;
  options.warmup = 40;
  const std::vector<double> values =
      ShiftingSeries(800, {200, 450}, 9.0, 77);
  OnlineCusum cusum(options);
  std::vector<size_t> changes;
  for (size_t i = 0; i < values.size(); ++i) {
    std::vector<size_t> fresh;
    cusum.Update(values[i], &fresh);
    for (size_t c : fresh) {
      EXPECT_LE(i - c, options.warmup) << "change " << c << " confirmed at "
                                       << i;
      changes.push_back(c);
    }
  }
  ASSERT_TRUE(cusum.Finish(&changes).ok());
  Result<std::vector<size_t>> offline =
      analysis::DetectChanges(values, options);
  ASSERT_TRUE(offline.ok());
  EXPECT_EQ(changes, *offline);
}

TEST(PageHinkleyTest, DetectsMeanShiftAndRespectsWarmup) {
  PageHinkleyOptions options;
  options.lambda = 20.0;
  options.warmup = 10;
  options.min_spacing = 5;
  PageHinkley ph(options);
  size_t first_alarm = 0;
  for (size_t i = 0; i < 200; ++i) {
    const double v = i < 100 ? 10.0 : 25.0;
    if (ph.Update(v) && first_alarm == 0) first_alarm = i;
  }
  EXPECT_GE(first_alarm, 100u);  // No alarm before the shift.
  EXPECT_LT(first_alarm, 120u);  // Catches it promptly.
}

TEST(PageHinkleyTest, NoAlarmOnStationaryInput) {
  PageHinkley ph(PageHinkleyOptions{});
  Rng rng(5);
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_FALSE(ph.Update(10.0 + 0.1 * rng.Normal())) << "i=" << i;
  }
}

TEST(SegmentDriftDetectorTest, PointCusumEqualsOfflineOnDecompressed) {
  // The headline contract: CUSUM over the segment stream's reconstructions
  // == DetectChanges over the batch-decompressed series, because the
  // streaming reconstruction IS the decode bit-for-bit.
  const std::vector<double> raw =
      ShiftingSeries(1500, {400, 800, 1200}, 7.0, 13);
  const TimeSeries ts(0, 60, std::vector<double>(raw));
  for (const std::string codec : {"PMC", "SWING"}) {
    Result<std::unique_ptr<compress::Compressor>> batch =
        compress::MakeCompressor(codec);
    ASSERT_TRUE(batch.ok());
    Result<std::vector<uint8_t>> blob = (*batch)->Compress(ts, 0.05);
    ASSERT_TRUE(blob.ok());
    Result<TimeSeries> decoded = (*batch)->Decompress(*blob);
    ASSERT_TRUE(decoded.ok());
    Result<std::vector<size_t>> offline =
        analysis::DetectChanges(decoded->values(), {});
    ASSERT_TRUE(offline.ok());
    EXPECT_FALSE(offline->empty());

    Result<std::unique_ptr<StreamingCompressor>> sc =
        MakeStreamingCompressor(codec);
    ASSERT_TRUE(sc.ok());
    ASSERT_TRUE((*sc)->Open(0, 60, 0.05).ok());
    SegmentDriftOptions drift;  // kPointCusum default.
    SegmentDriftDetector detector(drift);
    std::vector<size_t> alarms;
    std::vector<compress::SegmentModel> segments;
    for (double v : raw) {
      segments.clear();
      ASSERT_TRUE((*sc)->Append(v, &segments).ok());
      for (const compress::SegmentModel& s : segments) {
        detector.OnSegment(s, &alarms);
      }
    }
    segments.clear();
    ASSERT_TRUE((*sc)->Flush(&segments).ok());
    for (const compress::SegmentModel& s : segments) {
      detector.OnSegment(s, &alarms);
    }
    ASSERT_TRUE(detector.Finish(&alarms).ok());
    EXPECT_EQ(alarms, *offline) << codec;
  }
  for (const bench::DriftCase& c : bench::MakeDriftCorpus()) {
    for (const std::string& codec : StreamingCompressorNames()) {
      Result<bench::StreamDetection> online =
          bench::StreamDetect(c.series, codec, 0.05, CorpusCusum());
      ASSERT_TRUE(online.ok()) << online.status().ToString();
      Result<std::vector<size_t>> offline =
          bench::OfflineAlarms(c.series, codec, 0.05, CorpusCusum());
      ASSERT_TRUE(offline.ok()) << offline.status().ToString();
      EXPECT_EQ(online->alarms, *offline) << codec << " " << c.name;
    }
  }
}

TEST(SegmentDriftDetectorTest, SegmentModesAlarmOnLevelShift) {
  SegmentDriftOptions options;
  options.mode = SegmentDriftOptions::Mode::kSegmentLevelPh;
  options.page_hinkley.lambda = 30.0;
  options.page_hinkley.warmup = 5;
  SegmentDriftDetector detector(options);
  std::vector<size_t> alarms;
  // 30 segments at level 10, then 30 at level 40.
  uint64_t start = 0;
  for (int s = 0; s < 60; ++s) {
    compress::SegmentModel segment;
    segment.start = static_cast<uint32_t>(start);
    segment.length = 20;
    segment.anchor = s < 30 ? 10.0 : 40.0;
    segment.slope = 0.0;
    start += segment.length;
    detector.OnSegment(segment, &alarms);
  }
  ASSERT_TRUE(detector.Finish(&alarms).ok());
  ASSERT_FALSE(alarms.empty());
  // Alarm indices are point indices at segment granularity, at or after the
  // shift boundary (30 segments * 20 points).
  EXPECT_GE(alarms.front(), 600u);
  EXPECT_LT(alarms.front(), 800u);
  EXPECT_EQ(detector.points(), 1200u);
}

// Recall only: for each codec, at least 85% of the corpus' shifts must have
// an online alarm within 120 points after them. A CUSUM re-anchor can
// legitimately mask an individual shift, so recall need not be 1. The mean
// detection delay is not bounded; 120 is only the window a hit must fall in.
TEST(DriftCorpusTest, RecallPerCodecWithin120Points) {
  const std::vector<bench::DriftCase> corpus = bench::MakeDriftCorpus();
  for (const std::string& codec : StreamingCompressorNames()) {
    size_t shifts = 0;
    size_t found = 0;
    for (const bench::DriftCase& c : corpus) {
      Result<bench::StreamDetection> online =
          bench::StreamDetect(c.series, codec, 0.05, CorpusCusum());
      ASSERT_TRUE(online.ok()) << online.status().ToString();
      size_t detected = 0;
      bench::MeanDetectionDelay(online->alarms, c.truth, 120, &detected);
      shifts += c.truth.size();
      found += detected;
    }
    EXPECT_GE(static_cast<double>(found), 0.85 * static_cast<double>(shifts))
        << codec << " found " << found << " of " << shifts << " shifts";
  }
}

// Streams every (series, codec) cell of the drift corpus on `threads`
// workers that share one cursor; the results come back in cell order.
std::vector<bench::StreamDetection> DetectCorpus(
    const std::vector<bench::DriftCase>& corpus, int threads) {
  const std::vector<std::string> codecs = StreamingCompressorNames();
  std::vector<bench::StreamDetection> out(corpus.size() * codecs.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < out.size(); i = next++) {
      Result<bench::StreamDetection> got =
          bench::StreamDetect(corpus[i / codecs.size()].series,
                              codecs[i % codecs.size()], 0.05, CorpusCusum());
      if (got.ok()) {
        out[i] = std::move(*got);
      } else {
        ADD_FAILURE() << "cell " << i << ": " << got.status().ToString();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return out;
}

// The worker count never changes what a stream computes: the blobs, alarms
// and segment counts on one thread equal those on two.
TEST(DriftCorpusTest, ResultsOnOneThreadEqualTwoThreads) {
  const std::vector<bench::DriftCase> corpus = bench::MakeDriftCorpus();
  const std::vector<bench::StreamDetection> one = DetectCorpus(corpus, 1);
  const std::vector<bench::StreamDetection> two = DetectCorpus(corpus, 2);
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].blob, two[i].blob) << "cell " << i;
    EXPECT_EQ(one[i].alarms, two[i].alarms) << "cell " << i;
    EXPECT_EQ(one[i].segments, two[i].segments) << "cell " << i;
  }
}

}  // namespace
}  // namespace lossyts::stream

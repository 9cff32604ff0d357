// Segment-pushdown aggregate queries: equivalence against the full-decode
// reference path, error-bound honesty against the raw data, and
// byte-identity across thread counts (src/store/query.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "core/rng.h"
#include "core/split.h"
#include "data/datasets.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::unique_ptr<StoreReader> Ingest(const TimeSeries& series,
                                    const StoreOptions& options,
                                    const std::string& name) {
  const std::string path = TempPath(name);
  auto writer = StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->Append(series).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(*reader);
}

constexpr AggregateKind kAllKinds[] = {
    AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kSum,
    AggregateKind::kCount, AggregateKind::kMean};

double RawAggregate(const std::vector<double>& v, AggregateKind kind) {
  double sum = 0.0, mn = v[0], mx = v[0];
  for (double x : v) {
    sum += x;
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  switch (kind) {
    case AggregateKind::kMin: return mn;
    case AggregateKind::kMax: return mx;
    case AggregateKind::kSum: return sum;
    case AggregateKind::kCount: return static_cast<double>(v.size());
    case AggregateKind::kMean: return sum / static_cast<double>(v.size());
  }
  return 0.0;
}

// The core acceptance check: on every paper dataset's test split, each
// pushdown aggregate must (a) agree with the full-decode reference to fp
// accumulation accuracy and (b) sit within its self-reported error bound of
// the aggregate over the RAW (pre-compression) values.
TEST(StoreQueryTest, PushdownMatchesDecodeAndBoundsOnPaperDatasets) {
  for (const std::string& dataset_name : data::DatasetNames()) {
    data::DatasetOptions data_options;
    data_options.length_fraction = 0.02;
    Result<data::Dataset> dataset =
        data::MakeDataset(dataset_name, data_options);
    ASSERT_TRUE(dataset.ok()) << dataset_name;
    Result<TrainValTest> split = SplitSeries(dataset->series);
    ASSERT_TRUE(split.ok());
    const TimeSeries& test = split->test;

    for (const char* codec : {"PMC", "SWING"}) {
      StoreOptions options;
      options.error_bound = 0.05;
      options.chunk_span = 256;
      options.codecs = {codec};
      auto reader = Ingest(test, options,
                           dataset_name + "_" + codec + "_query.lts");
      for (AggregateKind kind : kAllKinds) {
        Result<AggregateResult> pushed = AggregateRange(
            *reader, kind, test.start_timestamp(), reader->last_timestamp());
        ASSERT_TRUE(pushed.ok())
            << dataset_name << " " << codec << " "
            << AggregateKindName(kind) << ": " << pushed.status().ToString();
        AggregateOptions no_pushdown;
        no_pushdown.allow_pushdown = false;
        Result<AggregateResult> decoded =
            AggregateRange(*reader, kind, test.start_timestamp(),
                           reader->last_timestamp(), no_pushdown);
        ASSERT_TRUE(decoded.ok());
        EXPECT_GT(pushed->pushdown_chunks, 0u);
        EXPECT_EQ(pushed->decoded_chunks, 0u);
        EXPECT_EQ(decoded->pushdown_chunks, 0u);
        EXPECT_EQ(pushed->count, decoded->count);
        // MIN/MAX are exact segment-endpoint values — bit-identical to the
        // decode path; SUM/MEAN differ only by accumulation order.
        if (kind == AggregateKind::kMin || kind == AggregateKind::kMax ||
            kind == AggregateKind::kCount) {
          EXPECT_EQ(pushed->value, decoded->value)
              << dataset_name << " " << codec << " "
              << AggregateKindName(kind);
        } else {
          EXPECT_NEAR(pushed->value, decoded->value,
                      1e-9 * std::max(1.0, std::abs(decoded->value)))
              << dataset_name << " " << codec << " "
              << AggregateKindName(kind);
        }
        const double raw = RawAggregate(test.values(), kind);
        EXPECT_LE(std::abs(pushed->value - raw),
                  pushed->error_bound +
                      1e-9 * std::max(1.0, std::abs(raw)))
            << dataset_name << " " << codec << " " << AggregateKindName(kind)
            << ": answer " << pushed->value << " raw " << raw << " bound "
            << pushed->error_bound;
      }
    }
  }
}

TEST(StoreQueryTest, SubrangeOffSegmentBoundaries) {
  Rng rng(3);
  std::vector<double> v(3000);
  double x = 50.0;
  for (auto& val : v) {
    x += 0.2 * rng.Normal();
    val = x;
  }
  const TimeSeries series(0, 10, std::move(v));
  StoreOptions options;
  options.chunk_span = 700;
  options.codecs = {"SWING"};
  auto reader = Ingest(series, options, "subrange.lts");
  // Ranges straddling chunk boundaries at odd offsets.
  // Endpoints deliberately off the 10 s grid (35, 7045) to exercise the
  // clamp; {30, 30} is a single on-grid point.
  const int64_t ranges[][2] = {{30, 30}, {0, 6990}, {6950, 7045},
                               {35, 23450}, {29990, 29990}};
  for (const auto& r : ranges) {
    for (AggregateKind kind : kAllKinds) {
      Result<AggregateResult> pushed =
          AggregateRange(*reader, kind, r[0], r[1]);
      ASSERT_TRUE(pushed.ok());
      AggregateOptions no_pushdown;
      no_pushdown.allow_pushdown = false;
      Result<AggregateResult> decoded =
          AggregateRange(*reader, kind, r[0], r[1], no_pushdown);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(pushed->count, decoded->count);
      EXPECT_NEAR(pushed->value, decoded->value,
                  1e-9 * std::max(1.0, std::abs(decoded->value)))
          << "[" << r[0] << ", " << r[1] << "] "
          << AggregateKindName(kind);
    }
  }
}

TEST(StoreQueryTest, ResultsAreByteIdenticalAcrossJobs) {
  Rng rng(9);
  std::vector<double> v(5000);
  for (auto& val : v) val = rng.Normal();
  const TimeSeries series(0, 60, std::move(v));
  StoreOptions options;
  options.chunk_span = 128;
  auto reader = Ingest(series, options, "qjobs.lts");
  for (AggregateKind kind : kAllKinds) {
    AggregateOptions reference;
    reference.jobs = 1;
    Result<AggregateResult> base = AggregateRange(
        *reader, kind, 0, reader->last_timestamp(), reference);
    ASSERT_TRUE(base.ok());
    for (int jobs : {2, 4, 8}) {
      reader->ClearChunkCache();
      AggregateOptions parallel;
      parallel.jobs = jobs;
      Result<AggregateResult> got = AggregateRange(
          *reader, kind, 0, reader->last_timestamp(), parallel);
      ASSERT_TRUE(got.ok());
      // Bit-identical, not merely close: partials merge in canonical order.
      EXPECT_EQ(0, std::memcmp(&base->value, &got->value, sizeof(double)))
          << AggregateKindName(kind) << " jobs=" << jobs;
      EXPECT_EQ(0, std::memcmp(&base->error_bound, &got->error_bound,
                               sizeof(double)));
      EXPECT_EQ(base->count, got->count);
    }
  }
}

TEST(StoreQueryTest, LosslessChunksReportZeroErrorBound) {
  Rng rng(5);
  std::vector<double> v(1000);
  for (auto& val : v) val = rng.Normal();
  const TimeSeries series(0, 60, std::move(v));
  StoreOptions options;
  options.codecs = {"GORILLA"};
  auto reader = Ingest(series, options, "lossless_eb.lts");
  Result<AggregateResult> sum = AggregateRange(
      *reader, AggregateKind::kSum, 0, reader->last_timestamp());
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->error_bound, 0.0);
  EXPECT_NEAR(sum->value, RawAggregate(series.values(), AggregateKind::kSum),
              1e-9);
}

TEST(StoreQueryTest, EmptySelectionSemantics) {
  auto reader = Ingest(TimeSeries(1000, 60, {1.0, 2.0, 3.0}), StoreOptions(),
                       "qempty.lts");
  // A range before the data: COUNT and SUM are 0, MIN/MAX/MEAN undefined.
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum}) {
    Result<AggregateResult> got = AggregateRange(*reader, kind, 0, 500);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, 0.0);
    EXPECT_EQ(got->count, 0u);
  }
  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax,
                             AggregateKind::kMean}) {
    EXPECT_EQ(AggregateRange(*reader, kind, 0, 500).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(StoreQueryTest, AggregateStoresMatchesPerStoreQueries) {
  std::vector<std::unique_ptr<StoreReader>> readers;
  std::vector<const StoreReader*> pointers;
  for (int i = 0; i < 3; ++i) {
    Rng rng(100 + static_cast<uint64_t>(i));
    std::vector<double> v(2000);
    double x = 10.0 * (i + 1);
    for (auto& val : v) {
      x += 0.1 * rng.Normal();
      val = x;
    }
    StoreOptions options;
    options.chunk_span = 300;
    readers.push_back(Ingest(TimeSeries(0, 60, std::move(v)), options,
                             "multi_" + std::to_string(i) + ".lts"));
    pointers.push_back(readers.back().get());
  }
  const int64_t t0 = 500 * 60;
  const int64_t t1 = 1500 * 60;
  for (AggregateKind kind : kAllKinds) {
    AggregateOptions options;
    options.jobs = 4;
    Result<std::vector<std::vector<AggregateResult>>> fanned =
        AggregateStores(pointers, {kind}, t0, t1, options);
    ASSERT_TRUE(fanned.ok());
    ASSERT_EQ(fanned->size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      Result<AggregateResult> single =
          AggregateRange(*pointers[i], kind, t0, t1);
      ASSERT_TRUE(single.ok());
      ASSERT_EQ((*fanned)[i].size(), 1u);
      EXPECT_EQ(0, std::memcmp(&(*fanned)[i][0].value, &single->value,
                               sizeof(double)))
          << AggregateKindName(kind) << " store " << i;
      EXPECT_EQ((*fanned)[i][0].count, single->count);
    }
  }
}

// Four 256-point chunk shapes, twice over, that the default trial codecs
// split between PMC (near-constant), Swing (ramp), SZ (noisy sine) and
// Gorilla (a few subnormal values in random order: the lossy bound is
// useless there, and Gorilla's XOR coding is not).
TimeSeries MixedCodecSeries() {
  Rng rng(21);
  constexpr double kSubnormals[] = {3e-310, 7e-310, 1.1e-309};
  std::vector<double> v;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 256; ++i) v.push_back(40.0 + 0.01 * rng.Normal());
    for (int i = 0; i < 256; ++i) v.push_back(10.0 + 0.5 * i);
    for (int i = 0; i < 256; ++i) {
      v.push_back(20.0 + 5.0 * std::sin(0.3 * i) + rng.Normal());
    }
    for (int i = 0; i < 256; ++i) v.push_back(kSubnormals[rng.UniformInt(3)]);
  }
  return TimeSeries(0, 60, std::move(v));
}

// The one-pass multi-kind aggregate equals one AggregateRange per kind, bit
// for bit, on full and partial ranges at every jobs value, and counts every
// selected chunk exactly once.
TEST(StoreQueryTest, MultiKindPassEqualsPerKindQueries) {
  StoreOptions options;
  options.chunk_span = 256;
  auto reader = Ingest(MixedCodecSeries(), options, "multi_kind.lts");
  std::set<compress::AlgorithmId> algorithms;
  for (const ChunkInfo& chunk : reader->chunks()) {
    algorithms.insert(chunk.algorithm);
  }
  ASSERT_EQ(algorithms,
            (std::set<compress::AlgorithmId>{
                compress::AlgorithmId::kPmc, compress::AlgorithmId::kSwing,
                compress::AlgorithmId::kSz, compress::AlgorithmId::kGorilla}));

  const std::vector<AggregateKind> kinds(std::begin(kAllKinds),
                                         std::end(kAllKinds));
  const int64_t last = reader->last_timestamp();
  const std::pair<int64_t, int64_t> ranges[] = {
      {0, last},                // Every chunk, whole.
      {100 * 60, 1900 * 60},    // Partial edge chunks of every codec.
      {300 * 60, 400 * 60},     // Inside one chunk.
      {-1000, last + 1000}};    // Clamped to the stored extent.
  for (int jobs : {1, 2, 4}) {
    for (const auto& [t0, t1] : ranges) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " range " +
                   std::to_string(t0) + ".." + std::to_string(t1));
      AggregateOptions agg_options;
      agg_options.jobs = jobs;
      reader->ClearChunkCache();
      Result<std::vector<std::vector<AggregateResult>>> multi =
          AggregateStores({reader.get()}, kinds, t0, t1, agg_options);
      ASSERT_TRUE(multi.ok()) << multi.status().ToString();
      ASSERT_EQ(multi->size(), 1u);
      ASSERT_EQ((*multi)[0].size(), kinds.size());
      Result<StoreReader::Selection> sel = reader->Select(t0, t1);
      ASSERT_TRUE(sel.ok());
      for (size_t k = 0; k < kinds.size(); ++k) {
        reader->ClearChunkCache();
        Result<AggregateResult> single =
            AggregateRange(*reader, kinds[k], t0, t1, agg_options);
        ASSERT_TRUE(single.ok());
        const AggregateResult& got = (*multi)[0][k];
        EXPECT_EQ(0, std::memcmp(&got.value, &single->value, sizeof(double)))
            << AggregateKindName(kinds[k]);
        EXPECT_EQ(got.count, single->count);
        EXPECT_EQ(0, std::memcmp(&got.error_bound, &single->error_bound,
                                 sizeof(double)))
            << AggregateKindName(kinds[k]);
        EXPECT_EQ(got.pushdown_chunks, single->pushdown_chunks);
        EXPECT_EQ(got.decoded_chunks, single->decoded_chunks);
        EXPECT_EQ(got.pushdown_chunks + got.decoded_chunks,
                  sel->last_chunk - sel->first_chunk + 1);
      }
    }
  }
}

TEST(StoreQueryTest, ParseAggregateKindRoundTrips) {
  for (AggregateKind kind : kAllKinds) {
    Result<AggregateKind> parsed =
        ParseAggregateKind(AggregateKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseAggregateKind("AVERAGE").ok());
  EXPECT_FALSE(ParseAggregateKind("mean").ok());
}

}  // namespace
}  // namespace lossyts::store

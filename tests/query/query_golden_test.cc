// Output and error pins for QueryStoreDir over a fixed store directory.
//
// The golden half pins FNV-1a digests of FormatQueryResult for every
// combination of query kind (metrics, aggregates, both), time range, grouping
// mode and jobs value, over stores that mix SZ, PMC, SWING and GORILLA
// chunks and pair them with forecast stores written at other chunk spans,
// so the pairs' overlaps cut chunks mid-way. Queries with metrics must also
// equal EvaluateGroupedSeries run over ReadRange'd series.
//
// The precedence half pins which error a query reports when one series
// fails to decode and another fails in a later step (misalignment, a
// missing forecast store) or fails outside the part its pair overlaps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/metric_registry.h"
#include "core/rng.h"
#include "core/time_series.h"
#include "query/query.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"
#include "zip/crc32.h"

namespace lossyts::query {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  const std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

void WriteStore(const std::string& path, const TimeSeries& series,
                const std::vector<std::string>& codecs, uint32_t chunk_span,
                double error_bound = 0.05) {
  store::StoreOptions options;
  options.codecs = codecs;
  options.chunk_span = chunk_span;
  options.error_bound = error_bound;
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(series).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// Flat noise, a ramp, a noisy sine and subnormals, one 256-point run each:
// with the default trial codecs and a 256-point span, the runs land in PMC,
// SWING, SZ and GORILLA chunks.
std::vector<double> MixedValues(uint64_t seed) {
  Rng rng(seed);
  constexpr double kSubnormals[] = {3e-310, 7e-310, 1.1e-309};
  std::vector<double> v;
  for (int i = 0; i < 256; ++i) v.push_back(40.0 + 0.01 * rng.Normal());
  for (int i = 0; i < 256; ++i) v.push_back(10.0 + 0.5 * i);
  for (int i = 0; i < 256; ++i) {
    v.push_back(20.0 + 5.0 * std::sin(0.3 * i) + rng.Normal());
  }
  for (int i = 0; i < 256; ++i) v.push_back(kSubnormals[rng.UniformInt(3)]);
  return v;
}

std::vector<double> NoisySine(size_t n, uint64_t seed, double base) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = base + 6.0 * std::sin(0.05 * static_cast<double>(i)) +
           0.3 * rng.Normal();
  }
  return v;
}

// The values of `actual` from index `from`, `n` points, each perturbed.
std::vector<double> Forecast(const std::vector<double>& actual, size_t from,
                             size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = actual[from + i] + 0.5 + 0.25 * rng.Normal();
  }
  return v;
}

// Four series in two prefix groups. Every forecast store has another chunk
// span than its actual store, and its extent differs: east_1's and
// west_2's start later and end earlier, west_1's starts earlier.
std::string BuildGoldenDir(const std::string& name) {
  const std::string dir = TempDir(name);
  const std::vector<std::string> kDefault;  // PMC, SWING, SZ, GORILLA.

  const std::vector<double> e1 = MixedValues(11);
  WriteStore(dir + "/east_1.lts", TimeSeries(0, 60, e1), kDefault, 256);
  WriteStore(dir + "/east_1.pred.lts",
             TimeSeries(37 * 60, 60, Forecast(e1, 37, 900, 12)), {"SZ"}, 100);

  const std::vector<double> e2 = NoisySine(700, 21, 30.0);
  WriteStore(dir + "/east_2.lts", TimeSeries(0, 60, e2), {"SZ"}, 128);
  WriteStore(dir + "/east_2.pred.lts",
             TimeSeries(0, 60, Forecast(e2, 0, 700, 22)), {"PMC"}, 256, 0.01);

  const std::vector<double> w1 = NoisySine(630, 31, 15.0);
  WriteStore(dir + "/west_1.lts",
             TimeSeries(50 * 60, 60,
                        std::vector<double>(w1.begin() + 50, w1.end())),
             {"SWING"}, 200);
  WriteStore(dir + "/west_1.pred.lts",
             TimeSeries(0, 60, Forecast(w1, 0, 581, 32)), {"GORILLA"}, 64);

  const std::vector<double> w2 = NoisySine(800, 41, 50.0);
  WriteStore(dir + "/west_2.lts", TimeSeries(0, 60, w2), {"GORILLA"}, 300);
  WriteStore(dir + "/west_2.pred.lts",
             TimeSeries(10 * 60, 60, Forecast(w2, 10, 691, 42)), {"SZ"}, 128);
  return dir;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

struct Range {
  const char* name;
  int64_t t0;
  int64_t t1;
};
// The full extent, then two windows whose ends fall inside chunks of every
// store (the first starts off the sampling grid).
constexpr Range kRanges[] = {
    {"full", kMin, kMax},
    {"mid", 100 * 60 + 30, 650 * 60},
    {"narrow", 300 * 60, 530 * 60},
};

struct Kind {
  const char* name;
  bool metrics;
  bool aggregates;
};
constexpr Kind kKinds[] = {
    {"metrics", true, false},
    {"aggregates", false, true},
    {"both", true, true},
};

constexpr GroupMode kModes[] = {GroupMode::kSeries, GroupMode::kPrefix,
                                GroupMode::kAll};

QueryOptions MakeOptions(const Kind& kind, const Range& range,
                         GroupMode mode) {
  QueryOptions options;
  if (kind.metrics) options.metrics = {"mae", "rmse", "mase", "pinball@0.9"};
  if (kind.aggregates) {
    options.aggregates = {"MIN", "MAX", "SUM", "COUNT", "MEAN"};
  }
  options.t0 = range.t0;
  options.t1 = range.t1;
  options.group_by = mode;
  return options;
}

// Digests of FormatQueryResult, indexed [kind][range][group mode].
constexpr uint64_t kGolden[3][3][3] = {
    {{0x2fc020b676a39e9bULL, 0x0b68815b557b3d66ULL, 0x19567c106f124b03ULL},
     {0x7e287f5bc2f1c8fbULL, 0xa75801b14ed307f3ULL, 0x1349bf5e808dc603ULL},
     {0x7d4c8235f5947afaULL, 0xa580b85f8da3e97aULL, 0x170be2ec367386d8ULL}},
    {{0x9dd8f1609d551f43ULL, 0x1d48bdc8d043abbeULL, 0x1ff98abbbb2b3ed5ULL},
     {0xf466fc14bfa12e40ULL, 0xf51473780a0452ccULL, 0x60860078b81480e2ULL},
     {0x7d90c979717c6d11ULL, 0xfa05a8da39629eb3ULL, 0xd9a949db7ddc46bcULL}},
    {{0x1da071256304afb3ULL, 0x878297e741f6dfc6ULL, 0xeb00a4c49a23c917ULL},
     {0x6ff452dc488ce188ULL, 0x0736d425c8fcd68eULL, 0x81a29cac84934271ULL},
     {0x4db66e67b44c8e38ULL, 0xa465ef600d16134dULL, 0x24228dd3005fb751ULL}},
};

TEST(QueryGoldenTest, DirectoryMixesTheFourStoreCodecs) {
  const std::string dir = BuildGoldenDir("query_golden_codecs");
  bool seen[256] = {};
  for (const char* name :
       {"east_1", "east_1.pred", "east_2", "east_2.pred", "west_1",
        "west_1.pred", "west_2", "west_2.pred"}) {
    Result<std::unique_ptr<store::StoreReader>> reader =
        store::StoreReader::Open(dir + "/" + name + ".lts");
    ASSERT_TRUE(reader.ok()) << name << ": " << reader.status().ToString();
    for (const store::ChunkInfo& chunk : (*reader)->chunks()) {
      seen[static_cast<uint8_t>(chunk.algorithm)] = true;
    }
  }
  for (compress::AlgorithmId id :
       {compress::AlgorithmId::kPmc, compress::AlgorithmId::kSwing,
        compress::AlgorithmId::kSz, compress::AlgorithmId::kGorilla}) {
    EXPECT_TRUE(seen[static_cast<uint8_t>(id)])
        << "algorithm id " << static_cast<int>(id);
  }
}

TEST(QueryGoldenTest, OutputDigestsArePinnedAtEveryJobsValue) {
  const std::string dir = BuildGoldenDir("query_golden_digests");
  std::string table;
  for (size_t k = 0; k < 3; ++k) {
    for (size_t r = 0; r < 3; ++r) {
      for (size_t m = 0; m < 3; ++m) {
        QueryOptions options = MakeOptions(kKinds[k], kRanges[r], kModes[m]);
        const std::string label = std::string(kKinds[k].name) + "/" +
                                  kRanges[r].name + "/" +
                                  GroupModeName(kModes[m]);
        uint64_t digest = 0;
        for (int jobs : {1, 2, 4}) {
          options.jobs = jobs;
          Result<QueryResult> result = QueryStoreDir(dir, options);
          ASSERT_TRUE(result.ok())
              << label << ": " << result.status().ToString();
          const uint64_t d = Fnv1a(FormatQueryResult(*result));
          if (jobs == 1) {
            digest = d;
            char entry[32];
            std::snprintf(entry, sizeof(entry), "0x%016llxULL, ",
                          static_cast<unsigned long long>(d));
            table += entry;
          }
          EXPECT_EQ(d, kGolden[k][r][m]) << label << " jobs " << jobs;
          EXPECT_EQ(d, digest) << label << " jobs " << jobs;
        }
      }
      table += "\n";
    }
  }
  if (HasFailure()) std::printf("digest table:\n%s", table.c_str());
}

// The golden directory's series over `range`, read with ReadRange.
struct RangeReads {
  std::vector<TimeSeries> actual;
  std::vector<TimeSeries> predicted;
  std::vector<SeriesInput> inputs;
};

void ReadGoldenRange(const std::string& dir, const Range& range,
                     RangeReads& reads) {
  const std::vector<std::string> names = {"east_1", "east_2", "west_1",
                                          "west_2"};
  for (const std::string& name : names) {
    for (const char* suffix : {"", ".pred"}) {
      Result<std::unique_ptr<store::StoreReader>> reader =
          store::StoreReader::Open(dir + "/" + name + suffix + ".lts");
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      Result<TimeSeries> series = (*reader)->ReadRange(range.t0, range.t1);
      ASSERT_TRUE(series.ok()) << series.status().ToString();
      (*suffix == '\0' ? reads.actual : reads.predicted)
          .push_back(std::move(*series));
    }
  }
  for (size_t i = 0; i < names.size(); ++i) {
    reads.inputs.push_back({names[i], &reads.actual[i], &reads.predicted[i]});
  }
}

TEST(QueryGoldenTest, MetricQueriesEqualGroupedEvaluationOfReadRanges) {
  const std::string dir = BuildGoldenDir("query_golden_reference");
  for (const Range& range : kRanges) {
    RangeReads reads;
    ReadGoldenRange(dir, range, reads);
    const std::vector<SeriesInput>& inputs = reads.inputs;
    for (const Kind& kind : kKinds) {
      if (!kind.metrics) continue;  // Aggregate-only answers by pushdown.
      for (GroupMode mode : kModes) {
        QueryOptions options = MakeOptions(kind, range, mode);
        Result<QueryResult> expected = EvaluateGroupedSeries(inputs, options);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        for (int jobs : {1, 4}) {
          options.jobs = jobs;
          Result<QueryResult> result = QueryStoreDir(dir, options);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(FormatQueryResult(*result), FormatQueryResult(*expected))
              << kind.name << "/" << range.name << "/" << GroupModeName(mode)
              << " jobs " << jobs;
        }
      }
    }
  }
}

// Whole-series kernels (r, rse, a metric registered at runtime) see the
// group's pairs buffered, fold-backed ones (mase at a season length past
// 1, a two-quantile crps) see them streamed; every kind must equal the
// in-memory evaluation at every jobs value, across the forecast stores'
// 100- and 64-point chunks and ranges that cut chunks.
TEST(QueryGoldenTest, EveryMetricKindEqualsGroupedEvaluationOfReadRanges) {
  MetricKernel weighted;
  // Position-weighted squared error plus the in-sample length: wrong if the
  // pairs arrive out of order or the pooled actual is not the in-sample.
  weighted.fn = [](const MetricContext& ctx,
                   const std::vector<double>&) -> Result<double> {
    const std::vector<double>& a = *ctx.actual;
    const std::vector<double>& p = *ctx.predicted;
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      sum += static_cast<double>(i + 1) * (a[i] - p[i]) * (a[i] - p[i]);
    }
    return sum / static_cast<double>(a.size()) +
           static_cast<double>(ctx.insample->size());
  };
  weighted.needs_insample = true;
  const Status registered =
      MetricRegistry::Global().Register("query_test_weighted", weighted);
  ASSERT_TRUE(registered.ok() ||
              registered.code() == StatusCode::kFailedPrecondition);

  const std::string dir = BuildGoldenDir("query_golden_every_kind");
  for (const Range& range : kRanges) {
    RangeReads reads;
    ReadGoldenRange(dir, range, reads);
    for (GroupMode mode : kModes) {
      QueryOptions options;
      options.metrics = {"r", "rse", "mase", "crps@0.1+0.9",
                         "query_test_weighted", "smape"};
      options.aggregates = {"SUM", "COUNT"};
      options.season_length = 3;
      options.t0 = range.t0;
      options.t1 = range.t1;
      options.group_by = mode;
      Result<QueryResult> expected =
          EvaluateGroupedSeries(reads.inputs, options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (int jobs : {1, 2, 4}) {
        options.jobs = jobs;
        Result<QueryResult> result = QueryStoreDir(dir, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(FormatQueryResult(*result), FormatQueryResult(*expected))
            << range.name << "/" << GroupModeName(mode) << " jobs " << jobs;
      }
    }
  }
}

// --- Fetch-error precedence -------------------------------------------------

// Makes chunk `index` of the SZ store at `path` fail at decode time, not at
// open: by default its first class byte (payload offset 15, after the
// 11-byte blob header and the u32 non-zero count) becomes 7 ("invalid SZ
// value class"); offset 14 with 0xFF inflates the non-zero count instead
// ("SZ nonzero count exceeds point count"). The frame CRC is recomputed so
// the store still opens.
void DamageSzChunk(const std::string& path, size_t index, size_t offset = 15,
                   uint8_t value = 7) {
  store::ChunkInfo chunk;
  {
    Result<std::unique_ptr<store::StoreReader>> reader =
        store::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_LT(index, (*reader)->chunks().size());
    chunk = (*reader)->chunks()[index];
    ASSERT_EQ(chunk.algorithm, compress::AlgorithmId::kSz);
  }
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  uint8_t* payload =
      reinterpret_cast<uint8_t*>(bytes.data()) + chunk.offset + 8;
  payload[offset] = value;
  const uint32_t crc = zip::ComputeCrc32({payload, chunk.payload_size});
  for (int i = 0; i < 4; ++i) {
    payload[chunk.payload_size + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TimeSeries Sine(int64_t start, size_t n, uint64_t seed) {
  return TimeSeries(start, 60, NoisySine(n, seed, 25.0));
}

// Runs a metric query at jobs 1 and 4 and requires the decode fault.
void ExpectDecodeFault(
    const std::string& dir,
    const std::string& fault = "Corruption: invalid SZ value class") {
  QueryOptions options;
  options.metrics = {"mae"};
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    Result<QueryResult> result = QueryStoreDir(dir, options);
    ASSERT_FALSE(result.ok()) << "jobs " << jobs;
    EXPECT_EQ(result.status().ToString(), fault) << "jobs " << jobs;
  }
}

TEST(QueryPrecedenceTest, DamagedStoreOpensButFailsToDecode) {
  const std::string dir = TempDir("query_prec_damage");
  WriteStore(dir + "/s.lts", Sine(0, 400, 1), {"SZ"}, 128);
  DamageSzChunk(dir + "/s.lts", 1);
  Result<std::unique_ptr<store::StoreReader>> reader =
      store::StoreReader::Open(dir + "/s.lts");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Result<TimeSeries> all = (*reader)->ReadAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().ToString(), "Corruption: invalid SZ value class");
}

// (A) A decode fault in a later series beats an earlier series'
// misalignment: every fetch error outranks every alignment error.
TEST(QueryPrecedenceTest, DecodeFaultBeatsEarlierMisalignment) {
  const std::string dir = TempDir("query_prec_misaligned");
  WriteStore(dir + "/a_1.lts", Sine(0, 300, 2), {"GORILLA"}, 128);
  WriteStore(dir + "/a_1.pred.lts", Sine(30, 300, 3), {"GORILLA"}, 128);
  WriteStore(dir + "/b_1.lts", Sine(0, 300, 4), {"SZ"}, 128);
  WriteStore(dir + "/b_1.pred.lts", Sine(0, 300, 5), {"SZ"}, 128);
  DamageSzChunk(dir + "/b_1.lts", 0);
  ExpectDecodeFault(dir);
}

// (B) Decoding the actual store comes before opening the forecast store.
TEST(QueryPrecedenceTest, DecodeFaultBeatsMissingForecastStore) {
  const std::string dir = TempDir("query_prec_orphan");
  WriteStore(dir + "/a_1.lts", Sine(0, 300, 6), {"GORILLA"}, 128);
  WriteStore(dir + "/a_1.pred.lts", Sine(0, 300, 7), {"GORILLA"}, 128);
  WriteStore(dir + "/c_1.lts", Sine(0, 300, 8), {"SZ"}, 128);
  DamageSzChunk(dir + "/c_1.lts", 0);
  ExpectDecodeFault(dir);
}

// (C) The whole selection is decoded, not just the part the forecast
// overlaps: a fault in a chunk before the overlap still fails the query.
TEST(QueryPrecedenceTest, DecodeFaultOutsideTheOverlapStillFails) {
  const std::string dir = TempDir("query_prec_outside");
  WriteStore(dir + "/d_1.lts", Sine(0, 400, 9), {"SZ"}, 100);
  WriteStore(dir + "/d_1.pred.lts", Sine(150 * 60, 250, 10), {"SZ"}, 100);
  DamageSzChunk(dir + "/d_1.lts", 0);
  ExpectDecodeFault(dir);
}

// (D) A forecast decode fault is a fetch error, so it beats the
// misalignment of its own pair: a misaligned pair is still decoded.
TEST(QueryPrecedenceTest, ForecastDecodeFaultBeatsItsOwnMisalignment) {
  const std::string dir = TempDir("query_prec_own_misaligned");
  WriteStore(dir + "/m_1.lts", Sine(0, 300, 11), {"GORILLA"}, 128);
  WriteStore(dir + "/m_1.pred.lts", Sine(30, 300, 12), {"SZ"}, 128);
  DamageSzChunk(dir + "/m_1.pred.lts", 1);
  ExpectDecodeFault(dir);
}

// (E) Decoding the forecast store comes before a later series' missing
// forecast store.
TEST(QueryPrecedenceTest, ForecastDecodeFaultBeatsALaterMissingForecast) {
  const std::string dir = TempDir("query_prec_later_orphan");
  WriteStore(dir + "/a_1.lts", Sine(0, 300, 13), {"GORILLA"}, 128);
  WriteStore(dir + "/a_1.pred.lts", Sine(0, 300, 14), {"SZ"}, 128);
  WriteStore(dir + "/b_1.lts", Sine(0, 300, 15), {"GORILLA"}, 128);
  DamageSzChunk(dir + "/a_1.pred.lts", 2);
  ExpectDecodeFault(dir);
}

// (F) Within a series the actual store's decode comes first, even when a
// forecast chunk that fails covers earlier timestamps than the actual
// chunk that fails.
TEST(QueryPrecedenceTest, ActualDecodeFaultBeatsAnEarlierForecastFault) {
  const std::string dir = TempDir("query_prec_late_actual");
  WriteStore(dir + "/f_1.lts", Sine(0, 400, 16), {"SZ"}, 100);
  WriteStore(dir + "/f_1.pred.lts", Sine(0, 400, 17), {"SZ"}, 100);
  DamageSzChunk(dir + "/f_1.lts", 3, 14, 0xFF);
  DamageSzChunk(dir + "/f_1.pred.lts", 0);
  ExpectDecodeFault(dir, "Corruption: SZ nonzero count exceeds point count");
}

}  // namespace
}  // namespace lossyts::query

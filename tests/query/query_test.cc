// Tests for the vectorized multi-series query layer (src/query): grouping
// modes and pooled-pair semantics, aggregate pushdown and merge rules, the
// byte-identical determinism contract across --jobs, range clamping, and
// the failpoint-driven fetch-failure path.

#include "query/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "core/rng.h"
#include "core/time_series.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::query {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  const std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

TimeSeries Ramp(int64_t start, int points, double base, double step) {
  std::vector<double> values(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    values[static_cast<size_t>(i)] = base + step * i;
  }
  return TimeSeries(start, 60, std::move(values));
}

void WriteStoreWith(const std::string& path, const TimeSeries& series,
                    const std::string& codec, double error_bound) {
  store::StoreOptions options;
  options.codecs = {codec};
  options.error_bound = error_bound;
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(series).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

void WriteStore(const std::string& path, const TimeSeries& series) {
  // Lossless: metric values stay exact.
  WriteStoreWith(path, series, "GORILLA", 0.1);
}

/// Two prefix groups ("east_a", "east_b", "west_c") with known residuals:
/// predicted = actual + delta, so pooled MAE per group is |delta| exactly.
std::string BuildCatalog(const std::string& name) {
  const std::string dir = TempDir(name);
  WriteStore(dir + "/east_a.lts", Ramp(0, 200, 10.0, 0.25));
  WriteStore(dir + "/east_a.pred.lts", Ramp(0, 200, 10.5, 0.25));  // +0.5
  WriteStore(dir + "/east_b.lts", Ramp(0, 200, 20.0, 0.25));
  WriteStore(dir + "/east_b.pred.lts", Ramp(0, 200, 19.0, 0.25));  // -1.0
  WriteStore(dir + "/west_c.lts", Ramp(0, 200, 30.0, 0.25));
  WriteStore(dir + "/west_c.pred.lts", Ramp(0, 200, 30.25, 0.25));  // +0.25
  return dir;
}

// --- In-memory grouped evaluation -----------------------------------------

TEST_F(QueryTest, GroupModesPartitionAndPoolPairs) {
  const TimeSeries a = Ramp(0, 100, 1.0, 0.0);
  const TimeSeries a_pred = Ramp(0, 100, 2.0, 0.0);  // residual +1
  const TimeSeries b = Ramp(0, 100, 5.0, 0.0);
  const TimeSeries b_pred = Ramp(0, 100, 8.0, 0.0);  // residual +3
  const std::vector<SeriesInput> inputs = {
      {"east_a", &a, &a_pred},
      {"west_b", &b, &b_pred},
  };

  QueryOptions options;
  options.metrics = {"mae", "bias"};
  Result<QueryResult> by_series = EvaluateGroupedSeries(inputs, options);
  ASSERT_TRUE(by_series.ok()) << by_series.status().ToString();
  ASSERT_EQ(by_series->rows.size(), 2u);
  EXPECT_EQ(by_series->rows[0].group, "east_a");
  EXPECT_DOUBLE_EQ(by_series->rows[0].metrics[0], 1.0);
  EXPECT_EQ(by_series->rows[1].group, "west_b");
  EXPECT_DOUBLE_EQ(by_series->rows[1].metrics[0], 3.0);

  options.group_by = GroupMode::kAll;
  Result<QueryResult> pooled = EvaluateGroupedSeries(inputs, options);
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->rows.size(), 1u);
  EXPECT_EQ(pooled->rows[0].group, "all");
  EXPECT_EQ(pooled->rows[0].series_count, 2u);
  EXPECT_EQ(pooled->rows[0].points, 200u);
  // Pooled MAE over the concatenation, not an average of per-series MAEs
  // (here they coincide because the halves are equal length — bias pins the
  // pooling since (1 + 3) / 2 = 2).
  EXPECT_DOUBLE_EQ(pooled->rows[0].metrics[0], 2.0);
  EXPECT_DOUBLE_EQ(pooled->rows[0].metrics[1], 2.0);

  options.group_by = GroupMode::kPrefix;
  Result<QueryResult> by_prefix = EvaluateGroupedSeries(inputs, options);
  ASSERT_TRUE(by_prefix.ok());
  ASSERT_EQ(by_prefix->rows.size(), 2u);
  EXPECT_EQ(by_prefix->rows[0].group, "east");
  EXPECT_EQ(by_prefix->rows[1].group, "west");
}

TEST_F(QueryTest, MisalignedPairsFailByName) {
  const TimeSeries actual = Ramp(0, 50, 1.0, 0.1);
  const TimeSeries off_grid = TimeSeries(30, 60, std::vector<double>(50, 1.0));
  const TimeSeries wrong_interval =
      TimeSeries(0, 30, std::vector<double>(50, 1.0));
  QueryOptions options;
  options.metrics = {"mae"};

  const std::vector<SeriesInput> off = {{"sensor_x", &actual, &off_grid}};
  Result<QueryResult> off_result = EvaluateGroupedSeries(off, options);
  ASSERT_FALSE(off_result.ok());
  EXPECT_NE(off_result.status().ToString().find("sensor_x"),
            std::string::npos);

  const std::vector<SeriesInput> bad = {
      {"sensor_y", &actual, &wrong_interval}};
  Result<QueryResult> bad_result = EvaluateGroupedSeries(bad, options);
  ASSERT_FALSE(bad_result.ok());
  EXPECT_NE(bad_result.status().ToString().find("sensor_y"),
            std::string::npos);
}

TEST_F(QueryTest, ValidationRejectsBadSpecsUpFront) {
  const TimeSeries a = Ramp(0, 10, 1.0, 0.0);
  const std::vector<SeriesInput> inputs = {{"a", &a, &a}};
  QueryOptions options;
  // Neither metrics nor aggregates.
  EXPECT_FALSE(EvaluateGroupedSeries(inputs, options).ok());
  // Interval metrics have no store representation.
  options.metrics = {"coverage"};
  Result<QueryResult> interval = EvaluateGroupedSeries(inputs, options);
  ASSERT_FALSE(interval.ok());
  EXPECT_NE(interval.status().ToString().find("prediction intervals"),
            std::string::npos);
  // Inverted range.
  options.metrics = {"mae"};
  options.t0 = 100;
  options.t1 = 50;
  EXPECT_FALSE(EvaluateGroupedSeries(inputs, options).ok());
  // Prefix grouping needs a delimiter.
  options.t0 = 0;
  options.t1 = 1000;
  options.group_by = GroupMode::kPrefix;
  options.delimiter = "";
  EXPECT_FALSE(EvaluateGroupedSeries(inputs, options).ok());
}

TEST_F(QueryTest, MaseUsesPooledActualAsInsample) {
  // A non-constant actual makes the pooled in-sample scale well-defined.
  const TimeSeries actual = Ramp(0, 100, 1.0, 0.5);
  const TimeSeries predicted = Ramp(0, 100, 2.0, 0.5);
  const std::vector<SeriesInput> inputs = {{"a", &actual, &predicted}};
  QueryOptions options;
  options.metrics = {"mase"};
  Result<QueryResult> result = EvaluateGroupedSeries(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // MAE is 1.0; the lag-1 in-sample scale of the ramp is its step 0.5.
  EXPECT_DOUBLE_EQ(result->rows[0].metrics[0], 2.0);

  // A constant actual must surface MASE's contract error, naming the group.
  const TimeSeries flat = Ramp(0, 100, 3.0, 0.0);
  const std::vector<SeriesInput> flat_inputs = {{"flat", &flat, &flat}};
  Result<QueryResult> flat_result =
      EvaluateGroupedSeries(flat_inputs, options);
  ASSERT_FALSE(flat_result.ok());
  EXPECT_NE(flat_result.status().ToString().find("constant in-sample"),
            std::string::npos);
}

// --- Store-directory queries ----------------------------------------------

TEST_F(QueryTest, StoreDirGroupedMetricsMatchKnownResiduals) {
  const std::string dir = BuildCatalog("query_known");
  QueryOptions options;
  options.metrics = {"mae", "bias"};
  options.group_by = GroupMode::kPrefix;
  Result<QueryResult> result = QueryStoreDir(dir, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].group, "east");
  EXPECT_EQ(result->rows[0].series_count, 2u);
  EXPECT_EQ(result->rows[0].points, 400u);
  // Pooled over +0.5 and -1.0 residuals: MAE 0.75, bias -0.25.
  EXPECT_DOUBLE_EQ(result->rows[0].metrics[0], 0.75);
  EXPECT_DOUBLE_EQ(result->rows[0].metrics[1], -0.25);
  EXPECT_EQ(result->rows[1].group, "west");
  EXPECT_DOUBLE_EQ(result->rows[1].metrics[0], 0.25);
  // Metric queries decode; they must not report pushdown.
  EXPECT_GT(result->decoded_chunks, 0u);
  EXPECT_EQ(result->pushdown_chunks, 0u);
}

TEST_F(QueryTest, StoreDirOutputIsByteIdenticalAcrossJobs) {
  const std::string dir = BuildCatalog("query_jobs");
  QueryOptions options;
  options.metrics = {"mae", "rmse", "smape", "pinball@0.9"};
  options.aggregates = {"MEAN", "COUNT"};
  options.group_by = GroupMode::kPrefix;
  std::string reference;
  for (int jobs : {1, 2, 7}) {
    options.jobs = jobs;
    Result<QueryResult> result = QueryStoreDir(dir, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string text = FormatQueryResult(*result);
    if (reference.empty()) {
      reference = text;
    } else {
      EXPECT_EQ(text, reference) << "jobs=" << jobs;
    }
  }
  EXPECT_NE(reference.find("group,series,points,MEAN,COUNT,mae"),
            std::string::npos);
}

TEST_F(QueryTest, AggregateOnlyQueriesUsePushdownAndMergeCorrectly) {
  // PMC (a segment-model codec) so the aggregates are answered on segment
  // models; the error bound sets the tolerance of every value check.
  const double kEb = 0.01;
  const std::string dir = TempDir("query_agg");
  WriteStoreWith(dir + "/east_a.lts", Ramp(0, 200, 10.0, 0.25), "PMC", kEb);
  WriteStoreWith(dir + "/east_b.lts", Ramp(0, 200, 20.0, 0.25), "PMC", kEb);
  WriteStoreWith(dir + "/west_c.lts", Ramp(0, 200, 30.0, 0.25), "PMC", kEb);
  QueryOptions options;
  options.aggregates = {"MIN", "MAX", "MEAN", "SUM", "COUNT"};
  options.group_by = GroupMode::kAll;
  Result<QueryResult> result = QueryStoreDir(dir, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  const GroupRow& row = result->rows[0];
  EXPECT_EQ(row.series_count, 3u);
  EXPECT_EQ(row.points, 600u);
  // Ramps: east_a 10..59.75, east_b 20..69.75, west_c 30..79.75. The codec
  // bound is relative pointwise (ε·|value|), so every tolerance scales with
  // the magnitude it checks.
  EXPECT_NEAR(row.aggregates[0], 10.0, kEb * 10.0);    // min of mins
  EXPECT_NEAR(row.aggregates[1], 79.75, kEb * 79.75);  // max of maxes
  const double sum = (10.0 + 59.75) / 2 * 200 + (20.0 + 69.75) / 2 * 200 +
                     (30.0 + 79.75) / 2 * 200;
  EXPECT_NEAR(row.aggregates[3], sum, kEb * sum);
  EXPECT_NEAR(row.aggregates[2], sum / 600.0, kEb * sum / 600.0);
  EXPECT_DOUBLE_EQ(row.aggregates[4], 600.0);
  // Aggregates-only never decodes a chunk.
  EXPECT_EQ(result->decoded_chunks, 0u);
  EXPECT_GT(result->pushdown_chunks, 0u);
}

// Chunks that the default trial codecs split between PMC, Swing, SZ and
// Gorilla (see StoreQueryTest.MultiKindPassEqualsPerKindQueries).
void WriteMixedCodecStore(const std::string& path, uint64_t seed) {
  Rng rng(seed);
  constexpr double kSubnormals[] = {3e-310, 7e-310, 1.1e-309};
  std::vector<double> v;
  for (int i = 0; i < 256; ++i) v.push_back(40.0 + 0.01 * rng.Normal());
  for (int i = 0; i < 256; ++i) v.push_back(10.0 + 0.5 * i);
  for (int i = 0; i < 256; ++i) {
    v.push_back(20.0 + 5.0 * std::sin(0.3 * i) + rng.Normal());
  }
  for (int i = 0; i < 256; ++i) v.push_back(kSubnormals[rng.UniformInt(3)]);
  store::StoreOptions options;
  options.chunk_span = 256;
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(TimeSeries(0, 60, std::move(v))).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// Aggregate-only QueryStoreDir answers MIN, MAX and SUM from one pass per
// store: every row equals the per-kind store aggregates, the output is the
// same at every jobs value, and each selected chunk is counted once.
TEST_F(QueryTest, AggregateOnlyRowsEqualPerKindStoreAggregates) {
  const std::string dir = TempDir("query_one_pass");
  const std::vector<std::string> names = {"mix_a", "mix_b", "mix_c"};
  for (size_t i = 0; i < names.size(); ++i) {
    WriteMixedCodecStore(dir + "/" + names[i] + ".lts", 40 + i);
  }
  const std::pair<int64_t, int64_t> ranges[] = {
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()},
      {100 * 60, 900 * 60}};
  for (const auto& [t0, t1] : ranges) {
    std::string expected = "group,series,points,MIN,MAX,SUM,COUNT,MEAN\n";
    uint64_t selected_chunks = 0;
    for (const std::string& name : names) {
      Result<std::unique_ptr<store::StoreReader>> reader =
          store::StoreReader::Open(dir + "/" + name + ".lts");
      ASSERT_TRUE(reader.ok());
      Result<store::StoreReader::Selection> sel = (*reader)->Select(t0, t1);
      ASSERT_TRUE(sel.ok());
      selected_chunks += sel->last_chunk - sel->first_chunk + 1;
      expected += name + ",1," + std::to_string(sel->count);
      for (store::AggregateKind kind :
           {store::AggregateKind::kMin, store::AggregateKind::kMax,
            store::AggregateKind::kSum, store::AggregateKind::kCount,
            store::AggregateKind::kMean}) {
        Result<store::AggregateResult> r =
            store::AggregateRange(**reader, kind, t0, t1);
        ASSERT_TRUE(r.ok());
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), ",%.17g", r->value);
        expected += buffer;
      }
      expected += "\n";
    }
    for (int jobs : {1, 2, 4}) {
      QueryOptions options;
      options.aggregates = {"MIN", "MAX", "SUM", "COUNT", "MEAN"};
      options.t0 = t0;
      options.t1 = t1;
      options.jobs = jobs;
      Result<QueryResult> result = QueryStoreDir(dir, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(FormatQueryResult(*result), expected) << "jobs " << jobs;
      EXPECT_EQ(result->pushdown_chunks + result->decoded_chunks,
                selected_chunks)
          << "jobs " << jobs;
      EXPECT_GT(result->decoded_chunks, 0u);  // SZ and Gorilla chunks.
      EXPECT_GT(result->pushdown_chunks, 0u);  // PMC and Swing chunks.
    }
  }
}

TEST_F(QueryTest, TimeRangeClampsBeforePooling) {
  const std::string dir = BuildCatalog("query_range");
  QueryOptions options;
  options.metrics = {"mae"};
  options.group_by = GroupMode::kAll;
  options.t0 = 60 * 100;  // Second half only: 100 points per series.
  options.t1 = 60 * 199;
  Result<QueryResult> result = QueryStoreDir(dir, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].points, 300u);
  // A range past the data selects nothing: per-group error, not silence.
  options.t0 = 60 * 1000;
  options.t1 = 60 * 2000;
  Result<QueryResult> empty = QueryStoreDir(dir, options);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().ToString().find("in the requested time range"),
            std::string::npos);
}

TEST_F(QueryTest, MatchFilterAndMissingPairsFailClearly) {
  const std::string dir = BuildCatalog("query_match");
  QueryOptions options;
  options.metrics = {"mae"};
  options.match = "west";
  Result<QueryResult> west = QueryStoreDir(dir, options);
  ASSERT_TRUE(west.ok()) << west.status().ToString();
  ASSERT_EQ(west->rows.size(), 1u);
  EXPECT_EQ(west->rows[0].group, "west_c");

  // A series without its forecast pair is a NotFound naming the series.
  WriteStore(dir + "/orphan.lts", Ramp(0, 50, 1.0, 0.1));
  options.match = "orphan";
  Result<QueryResult> orphan = QueryStoreDir(dir, options);
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), StatusCode::kNotFound);
  EXPECT_NE(orphan.status().ToString().find("orphan"), std::string::npos);

  // No stores at all (filter excludes everything) is NotFound too.
  options.match = "nonexistent";
  EXPECT_EQ(QueryStoreDir(dir, options).status().code(),
            StatusCode::kNotFound);
}

// A directory named like a store is listed as a series; opening it must
// fail the query with IoError instead of aborting the process.
TEST_F(QueryTest, DirectoryNamedLikeAStoreIsAnIoError) {
  const std::string dir = TempDir("query_dir_entry");
  WriteStore(dir + "/a.lts", Ramp(0, 50, 1.0, 0.1));
  ASSERT_EQ(std::system(("mkdir '" + dir + "/x.lts'").c_str()), 0);
  QueryOptions options;
  options.aggregates = {"MIN"};
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    Result<QueryResult> result = QueryStoreDir(dir, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    EXPECT_NE(result.status().message().find("x.lts"), std::string::npos);
  }
}

TEST_F(QueryTest, FetchFailpointSurfacesFirstErrorInCanonicalOrder) {
  const std::string dir = BuildCatalog("query_failpoint");
  QueryOptions options;
  options.metrics = {"mae"};
  options.jobs = 4;
  // Fire on the very first fetch: canonical order sorts east_a first, so
  // the surfaced error is deterministic no matter the pool interleaving.
  FailPoints::Arm("query_fetch", 1);
  Result<QueryResult> result = QueryStoreDir(dir, options);
  ASSERT_FALSE(result.ok());
  FailPoints::DisarmAll();

  // A disarmed re-run (the kill/resume drill) succeeds and still produces
  // the canonical bytes.
  Result<QueryResult> resumed = QueryStoreDir(dir, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  options.jobs = 1;
  Result<QueryResult> sequential = QueryStoreDir(dir, options);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(FormatQueryResult(*resumed), FormatQueryResult(*sequential));
}

TEST_F(QueryTest, ParseGroupModeRoundTripsAndRejectsUnknown) {
  for (const char* name : {"series", "prefix", "all"}) {
    Result<GroupMode> mode = ParseGroupMode(name);
    ASSERT_TRUE(mode.ok()) << name;
    EXPECT_STREQ(GroupModeName(*mode), name);
  }
  EXPECT_FALSE(ParseGroupMode("bogus").ok());
}

}  // namespace
}  // namespace lossyts::query

// Checkpoint/resume coverage: a sweep interrupted mid-run (torn checkpoint
// row) must salvage every intact row, recompute only the missing cells, and
// end up with records identical to an uninterrupted sweep.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/checkpoint.h"
#include "eval/grid.h"
#include "zip/crc32.h"

namespace lossyts::eval {
namespace {

GridOptions TinyGrid() {
  GridOptions options;
  options.datasets = {"ETTm1"};
  options.models = {"GBoost", "DLinear"};
  options.compressors = {"PMC"};
  options.error_bounds = {0.05, 0.4};
  options.data.length_fraction = 0.02;
  options.forecast.input_length = 48;
  options.forecast.horizon = 12;
  options.forecast.max_epochs = 3;
  options.forecast.max_train_windows = 48;
  options.scenario.max_eval_windows = 16;
  return options;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

void ExpectSameRecord(const GridRecord& a, const GridRecord& b) {
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.compressor, b.compressor);
  EXPECT_DOUBLE_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics[i], b.metrics[i]) << "metric " << i;
  }
  EXPECT_DOUBLE_EQ(a.tfe, b.tfe);
  EXPECT_DOUBLE_EQ(a.te_nrmse, b.te_nrmse);
  EXPECT_DOUBLE_EQ(a.te_rmse, b.te_rmse);
  EXPECT_DOUBLE_EQ(a.compression_ratio, b.compression_ratio);
  EXPECT_DOUBLE_EQ(a.segment_count, b.segment_count);
  EXPECT_EQ(a.error_code, b.error_code);
  EXPECT_EQ(a.error, b.error);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

TEST(GridOptionsHashTest, StableForEqualOptionsSensitiveToChanges) {
  const uint32_t base = GridOptionsHash(TinyGrid());
  EXPECT_EQ(base, GridOptionsHash(TinyGrid()));

  GridOptions eb = TinyGrid();
  eb.error_bounds = {0.05, 0.5};
  EXPECT_NE(base, GridOptionsHash(eb));

  GridOptions model = TinyGrid();
  model.models = {"GBoost"};
  EXPECT_NE(base, GridOptionsHash(model));

  GridOptions epochs = TinyGrid();
  epochs.forecast.max_epochs = 4;
  EXPECT_NE(base, GridOptionsHash(epochs));

  // Retry budget and verbosity do not change which cells a sweep computes,
  // so caches stay valid across them.
  GridOptions retries = TinyGrid();
  retries.max_cell_retries = 5;
  EXPECT_EQ(base, GridOptionsHash(retries));
}

TEST(GridRowTest, FormatParseRoundTripsFaultFields) {
  GridRecord record;
  record.dataset = "ETTm1";
  record.model = "DLinear";
  record.compressor = "PMC";
  record.error_bound = 0.1 + 1e-17;
  record.seed = 3;
  record.metrics = {0.912345678901234567, 0.25, 1.5, 0.07};
  record.tfe = -0.02;
  record.te_nrmse = 0.01;
  record.compression_ratio = 11.25;
  record.error_code = static_cast<int32_t>(StatusCode::kInternal);
  record.attempts = 2;
  record.error = "non-finite loss, epoch 2\nsecond line";

  Result<GridRecord> parsed = ParseGridRow(FormatGridRow(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->error_bound, record.error_bound);
  EXPECT_DOUBLE_EQ(parsed->r(), record.r());
  EXPECT_EQ(parsed->error_code, record.error_code);
  EXPECT_EQ(parsed->attempts, 2);
  // Separators in the message are sanitized so the row stays one line.
  EXPECT_EQ(parsed->error, "non-finite loss; epoch 2;second line");
  EXPECT_EQ(CellKey(*parsed), CellKey(record));
}

TEST(GridRowTest, ParseRejectsV1RowLayouts) {
  // The two v1 layouts (fixed r/rse/rmse/nrmse columns, with and without the
  // fault-tolerance tail) carry no arity marker and are no longer read.
  EXPECT_EQ(ParseGridRow("ETTm1,GBoost,PMC,0.1,1,0.9,0.2,1.1,0.05,0.01,0.02,"
                         "0,10.5,3")
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseGridRow("ETTm1,GBoost,PMC,0.1,1,0.9,0.2,1.1,0.05,0.01,0.02,"
                         "0,10.5,3,0,1,")
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(GridRowTest, ArityMarkerMustMatchFieldCount) {
  GridRecord record;
  record.dataset = "ETTm1";
  record.model = "GBoost";
  record.compressor = "PMC";
  const std::string row = FormatGridRow(record);
  ASSERT_TRUE(ParseGridRow(row).ok());
  for (const char* marker : {"m0", "m3", "m5", "mx", "m"}) {
    std::string bad = row;
    bad.replace(bad.find("m4"), 2, marker);
    EXPECT_EQ(ParseGridRow(bad).status().code(), StatusCode::kCorruption)
        << marker;
  }
  // 14 + (2^64 - 8) wraps to 6 in size_t arithmetic: this six-field row
  // must be Corruption, not a std::length_error from sizing the metrics.
  EXPECT_EQ(ParseGridRow("ETTm1,GBoost,PMC,0.1,1,m18446744073709551608")
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(CheckpointTest, WriterProducesLoadableCompleteCheckpoint) {
  const std::string path = TempPath("ckpt_roundtrip.csv");
  std::remove(path.c_str());

  GridRecord a;
  a.dataset = "ETTm1";
  a.model = "GBoost";
  a.compressor = "NONE";
  a.seed = 1;
  a.metrics[kMetricNrmse] = 0.5;
  GridRecord b = a;
  b.compressor = "PMC";
  b.error_bound = 0.2;
  b.error_code = static_cast<int32_t>(StatusCode::kInternal);
  b.attempts = 2;
  b.error = "injected";

  {
    GridCheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, 0xDEADBEEF, {}).ok());
    ASSERT_TRUE(writer.Append(a).ok());
    ASSERT_TRUE(writer.Append(b).ok());
    ASSERT_TRUE(writer.MarkComplete().ok());
  }

  Result<GridCheckpoint> loaded = LoadGridCheckpoint(path, 0xDEADBEEF);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->complete);
  EXPECT_TRUE(loaded->compatible);
  ASSERT_EQ(loaded->records.size(), 2u);
  ExpectSameRecord(loaded->records[0], a);
  ExpectSameRecord(loaded->records[1], b);

  // A different options hash marks the checkpoint incompatible.
  Result<GridCheckpoint> other = LoadGridCheckpoint(path, 0xDEADBEE0);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->compatible);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TornRowIsDroppedAndMarksIncomplete) {
  const std::string path = TempPath("ckpt_torn.csv");
  std::remove(path.c_str());

  GridRecord a;
  a.dataset = "ETTm1";
  a.model = "GBoost";
  a.compressor = "NONE";
  a.seed = 1;
  GridRecord b = a;
  b.compressor = "PMC";
  b.error_bound = 0.2;
  {
    GridCheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, 1, {}).ok());
    ASSERT_TRUE(writer.Append(a).ok());
    ASSERT_TRUE(writer.Append(b).ok());
  }

  // Simulate a crash mid-write: chop the tail of the last row.
  std::string contents = ReadFileOrDie(path);
  WriteFileOrDie(path, contents.substr(0, contents.size() - 9));

  Result<GridCheckpoint> loaded = LoadGridCheckpoint(path, 1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->complete);
  ASSERT_EQ(loaded->records.size(), 1u);
  ExpectSameRecord(loaded->records[0], a);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptedCrcDropsRowAndStopsSalvage) {
  const std::string path = TempPath("ckpt_crc.csv");
  std::remove(path.c_str());

  GridRecord a;
  a.dataset = "ETTm1";
  a.model = "GBoost";
  a.compressor = "NONE";
  a.seed = 1;
  {
    GridCheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, 1, {}).ok());
    ASSERT_TRUE(writer.Append(a).ok());
    ASSERT_TRUE(writer.MarkComplete().ok());
  }

  // Flip one payload byte; the row CRC no longer matches, so the row (and
  // the footer after it) is discarded and the checkpoint reads as partial.
  std::string contents = ReadFileOrDie(path);
  const size_t pos = contents.find("GBoost");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'X';
  WriteFileOrDie(path, contents);

  Result<GridCheckpoint> loaded = LoadGridCheckpoint(path, 1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->complete);
  EXPECT_TRUE(loaded->records.empty());
  std::remove(path.c_str());
}

// A GBoost-only grid: cheap enough to recompute in the non-v2 cache tests.
GridOptions GBoostGrid() {
  GridOptions options = TinyGrid();
  options.models = {"GBoost"};
  return options;
}

// A file without a v2 manifest loads as incompatible with a reason, and
// LoadOrRunGrid recomputes the sweep and rewrites the file as a complete v2
// checkpoint.
void ExpectIncompatibleAndRecomputed(const std::string& path) {
  const GridOptions options = GBoostGrid();
  const uint32_t hash = GridOptionsHash(options);
  Result<GridCheckpoint> loaded = LoadGridCheckpoint(path, hash);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->compatible);
  EXPECT_NE(loaded->reason.find("no v2 checkpoint manifest"), std::string::npos)
      << loaded->reason;
  EXPECT_TRUE(loaded->records.empty());

  Result<std::vector<GridRecord>> expected = RunGrid(options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  Result<std::vector<GridRecord>> recomputed = LoadOrRunGrid(options, path);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  ASSERT_EQ(recomputed->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ExpectSameRecord((*recomputed)[i], (*expected)[i]);
  }

  Result<GridCheckpoint> rewritten = LoadGridCheckpoint(path, hash);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(rewritten->compatible);
  EXPECT_TRUE(rewritten->complete);
  EXPECT_EQ(rewritten->records.size(), expected->size());
}

TEST(CheckpointTest, PlainCsvCacheIsIncompatibleAndRecomputed) {
  const std::string path = TempPath("ckpt_plain_csv.csv");
  GridRecord a;
  a.dataset = "ETTm1";
  a.model = "GBoost";
  a.compressor = "PMC";
  a.error_bound = 0.05;
  a.seed = 1;
  a.metrics[kMetricNrmse] = 0.4;
  // The plain cache layout: a header, then bare rows with no CRC frame.
  WriteFileOrDie(path,
                 "dataset,model,compressor,error_bound,seed,r,rse,rmse,nrmse,"
                 "tfe,te_nrmse,te_rmse,compression_ratio,segment_count,"
                 "error_code,attempts,error\n" +
                     FormatGridRow(a) + "\n");
  ExpectIncompatibleAndRecomputed(path);
  std::remove(path.c_str());
}

TEST(CheckpointTest, V1CheckpointIsIncompatibleAndRecomputed) {
  const std::string path = TempPath("ckpt_v1.csv");
  // Hand-written v1 file: v1 manifest carrying this sweep's options hash,
  // header, one CRC-framed 17-field row, complete footer.
  const std::string row =
      "ETTm1,GBoost,PMC,0.050000000000000003,1,0.9,0.25,1.5,0.07,-0.02,0.01,"
      "0,11.25,3,0,1,";
  char manifest[64];
  std::snprintf(manifest, sizeof(manifest),
                "#lossyts-grid-checkpoint v1 options=%08x\n",
                GridOptionsHash(GBoostGrid()));
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x",
                zip::ComputeCrc32(reinterpret_cast<const uint8_t*>(row.data()),
                                  row.size()));
  WriteFileOrDie(path,
                 std::string(manifest) +
                     "dataset,model,compressor,error_bound,seed,r,rse,rmse,"
                     "nrmse,tfe,te_nrmse,te_rmse,compression_ratio,"
                     "segment_count,error_code,attempts,error\n" +
                     crc + ',' + row + "\n#complete\n");
  ExpectIncompatibleAndRecomputed(path);
  std::remove(path.c_str());
}

TEST(CheckpointTest, V2RoundTripsExtraMetricsAndRejectsMismatchedList) {
  const std::string path = TempPath("ckpt_v2_metrics.csv");
  std::remove(path.c_str());

  Result<std::vector<std::string>> names = ResolveMetricNames({"mae", "mape"});
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_EQ(names->size(), 6u);

  GridRecord a;
  a.dataset = "ETTm1";
  a.model = "GBoost";
  a.compressor = "PMC";
  a.error_bound = 0.1;
  a.seed = 1;
  a.metrics = {0.9, 0.25, 1.5, 0.07, 1.25, 0.033};
  {
    GridCheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, 0x77, {}, *names).ok());
    ASSERT_TRUE(writer.Append(a).ok());
    ASSERT_TRUE(writer.MarkComplete().ok());
  }

  Result<GridCheckpoint> loaded = LoadGridCheckpoint(path, 0x77, *names);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->compatible);
  EXPECT_TRUE(loaded->complete);
  ASSERT_EQ(loaded->records.size(), 1u);
  ExpectSameRecord(loaded->records[0], a);

  // A sweep asking for a different metric list is told exactly what the
  // checkpoint holds versus what it needs.
  Result<GridCheckpoint> mismatch = LoadGridCheckpoint(path, 0x77);
  ASSERT_TRUE(mismatch.ok()) << mismatch.status().ToString();
  EXPECT_FALSE(mismatch->compatible);
  EXPECT_NE(mismatch->reason.find("checkpoint computes metrics"),
            std::string::npos)
      << mismatch->reason;
  std::remove(path.c_str());
}

TEST(GridOptionsHashTest, ExtraMetricsChangeHashPinnedSpellingDoesNot) {
  const uint32_t base = GridOptionsHash(TinyGrid());

  // Spelling out the pinned four is the same sweep as the default.
  GridOptions pinned = TinyGrid();
  pinned.metrics = {"r", "rse", "rmse", "nrmse"};
  EXPECT_EQ(base, GridOptionsHash(pinned));

  GridOptions extended = TinyGrid();
  extended.metrics = {"mae"};
  EXPECT_NE(base, GridOptionsHash(extended));
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Result<GridCheckpoint> loaded =
      LoadGridCheckpoint(TempPath("ckpt_missing_nope.csv"), 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// The headline acceptance test: kill a sweep mid-row, reload, resume, and
// require the final records to be byte-for-byte identical to a sweep that
// was never interrupted.
TEST(CheckpointTest, KillAndResumeMatchesUninterruptedRun) {
  const GridOptions options = TinyGrid();
  const std::string path = TempPath("ckpt_resume.csv");
  std::remove(path.c_str());

  Result<std::vector<GridRecord>> uninterrupted = RunGrid(options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->size(), 6u);

  Result<std::vector<GridRecord>> first = LoadOrRunGrid(options, path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 6u);

  // Tear the checkpoint: drop the completion footer and the tail of the
  // last row, as if the process died mid-write.
  std::string contents = ReadFileOrDie(path);
  const size_t footer = contents.find("#complete");
  ASSERT_NE(footer, std::string::npos);
  ASSERT_GT(footer, 12u);
  WriteFileOrDie(path, contents.substr(0, footer - 12));

  const uint32_t hash = GridOptionsHash(options);
  Result<GridCheckpoint> torn = LoadGridCheckpoint(path, hash);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_FALSE(torn->complete);
  EXPECT_TRUE(torn->compatible);
  ASSERT_GE(torn->records.size(), 1u);
  ASSERT_LT(torn->records.size(), 6u);

  // Resume: salvaged rows are kept verbatim, the rest recomputed.
  Result<std::vector<GridRecord>> resumed = LoadOrRunGrid(options, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->size(), uninterrupted->size());
  for (size_t i = 0; i < resumed->size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ExpectSameRecord((*resumed)[i], (*uninterrupted)[i]);
  }

  // The repaired checkpoint is complete again: loading it back is a pure
  // cache hit with identical records.
  Result<GridCheckpoint> repaired = LoadGridCheckpoint(path, hash);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->complete);
  ASSERT_EQ(repaired->records.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    ExpectSameRecord(repaired->records[i], (*uninterrupted)[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lossyts::eval

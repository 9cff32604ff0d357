#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/pipeline.h"
#include "compress/serde.h"
#include "conform/corpus.h"
#include "conform/harness.h"
#include "conform/mutate.h"
#include "conform/oracles.h"

namespace lossyts::conform {
namespace {

// CI runs a small grid by default; set LOSSYTS_CONFORM_ITERS for a soak
// (>= 6 cycles the whole "lengths" family across the u16 segment cap).
int CasesPerFamily() {
  const char* env = std::getenv("LOSSYTS_CONFORM_ITERS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 2;
}

// ---------------------------------------------------------------------------
// The tentpole assertion: the full grid is clean for every codec.

TEST(ConformanceTest, FullGridIsClean) {
  ConformOptions options;
  options.cases_per_family = CasesPerFamily();
  Result<ConformSummary> summary = RunConform(options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->cases, 0u);
  EXPECT_GT(summary->mutants, 0u);
  for (const ConformFailure& f : summary->failures) {
    ADD_FAILURE() << FormatFailure(f);
  }
}

TEST(ConformanceTest, RunIsDeterministic) {
  ConformOptions options;
  options.cases_per_family = 1;
  options.codecs = {"PMC", "SZ"};
  options.error_bounds = {0.05};
  Result<ConformSummary> a = RunConform(options);
  Result<ConformSummary> b = RunConform(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cases, b->cases);
  EXPECT_EQ(a->mutants, b->mutants);
  EXPECT_EQ(a->failures.size(), b->failures.size());
}

TEST(ConformanceTest, RejectsUnknownCodec) {
  ConformOptions options;
  options.codecs = {"NOSUCH"};
  EXPECT_FALSE(RunConform(options).ok());
}

TEST(ConformanceTest, RejectsInvalidErrorBound) {
  ConformOptions options;
  options.error_bounds = {1.5};
  Result<ConformSummary> summary = RunConform(options);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConformanceTest, RejectsNonPositiveCaseCount) {
  ConformOptions options;
  options.cases_per_family = 0;
  EXPECT_FALSE(RunConform(options).ok());
}

TEST(ConformanceTest, FormatFailureCarriesReproductionCoordinates) {
  ConformFailure f;
  f.codec = "SZ";
  f.error_bound = 0.05;
  f.family = "tiny";
  f.case_index = 3;
  f.seed = 42;
  f.oracle = "pointwise-bound";
  f.detail = "worst violator at index 7";
  const std::string line = FormatFailure(f);
  EXPECT_NE(line.find("SZ"), std::string::npos);
  EXPECT_NE(line.find("0.05"), std::string::npos);
  EXPECT_NE(line.find("tiny#3"), std::string::npos);
  EXPECT_NE(line.find("seed=42"), std::string::npos);
  EXPECT_NE(line.find("pointwise-bound"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corpus generator.

TEST(CorpusTest, IsDeterministic) {
  const std::vector<CorpusCase> a = GenerateCorpus(7, 2);
  const std::vector<CorpusCase> b = GenerateCorpus(7, 2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].seed, b[i].seed);
    ASSERT_EQ(a[i].series.size(), b[i].series.size());
    EXPECT_EQ(a[i].series.start_timestamp(), b[i].series.start_timestamp());
    for (size_t k = 0; k < a[i].series.size(); ++k) {
      // Bit-compare so -0.0 vs 0.0 or NaN drift would be caught.
      uint64_t ba, bb;
      const double va = a[i].series[k];
      const double vb = b[i].series[k];
      std::memcpy(&ba, &va, sizeof(ba));
      std::memcpy(&bb, &vb, sizeof(bb));
      EXPECT_EQ(ba, bb) << a[i].family << " index " << k;
    }
  }
}

TEST(CorpusTest, CoversEveryFamily) {
  const std::vector<CorpusCase> corpus = GenerateCorpus(1, 1);
  std::set<std::string> families;
  for (const CorpusCase& c : corpus) families.insert(c.family);
  EXPECT_EQ(families.size(), CorpusFamilies().size());
}

TEST(CorpusTest, SeedsDeriveFromIdentityNotOrder) {
  Result<CorpusCase> direct = MakeCorpusCase("tiny", 1, 9);
  ASSERT_TRUE(direct.ok());
  const std::vector<CorpusCase> corpus = GenerateCorpus(9, 2);
  bool found = false;
  for (const CorpusCase& c : corpus) {
    if (c.family == "tiny" && c.index == 1) {
      found = true;
      EXPECT_EQ(c.seed, direct->seed);
      ASSERT_EQ(c.series.size(), direct->series.size());
      for (size_t k = 0; k < c.series.size(); ++k) {
        EXPECT_EQ(c.series[k], direct->series[k]);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(CorpusTest, UnknownFamilyIsNotFound) {
  Result<CorpusCase> c = MakeCorpusCase("nope", 0, 1);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kNotFound);
}

TEST(CorpusTest, LengthsFamilyCrossesSegmentCap) {
  // Indices cycle {1, 65535, 2, 65536, 5, 65537}: both sides of the u16
  // segment-length cap plus the degenerate minimum.
  const size_t expected[] = {1, 65535, 2, 65536, 5, 65537};
  for (int i = 0; i < 6; ++i) {
    Result<CorpusCase> c = MakeCorpusCase("lengths", i, 1);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->series.size(), expected[i]) << "index " << i;
  }
}

TEST(CorpusTest, MetadataFitsTheWireHeader) {
  for (const CorpusCase& c : GenerateCorpus(3, 2)) {
    EXPECT_GE(c.series.start_timestamp(), INT32_MIN) << c.family;
    EXPECT_LE(c.series.start_timestamp(), INT32_MAX) << c.family;
    EXPECT_GE(c.series.interval_seconds(), 1) << c.family;
    EXPECT_LE(c.series.interval_seconds(), 65535) << c.family;
    for (size_t k = 0; k < c.series.size(); ++k) {
      EXPECT_TRUE(std::isfinite(c.series[k])) << c.family << " index " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracles, exercised directly with hand-built series.

TEST(OracleTest, ShapeMismatchIsReported) {
  TimeSeries a(0, 1, {1.0, 2.0, 3.0});
  TimeSeries b(0, 1, {1.0, 2.0});
  auto f = CheckShape(a, b);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->oracle, "shape");
  EXPECT_FALSE(CheckShape(a, a).has_value());
}

TEST(OracleTest, HeaderMismatchIsReported) {
  TimeSeries a(100, 60, {1.0});
  TimeSeries wrong_ts(101, 60, {1.0});
  TimeSeries wrong_interval(100, 61, {1.0});
  EXPECT_TRUE(CheckHeaderRoundTrip(a, wrong_ts).has_value());
  EXPECT_TRUE(CheckHeaderRoundTrip(a, wrong_interval).has_value());
  EXPECT_FALSE(CheckHeaderRoundTrip(a, a).has_value());
}

TEST(OracleTest, PointwiseBoundFindsWorstViolator) {
  TimeSeries orig(0, 1, {10.0, 20.0, 30.0});
  // Index 1 violates by 5 (allowance half-width 2), index 2 by 12: worst is 2.
  TimeSeries rec(0, 1, {10.0, 27.0, 45.0});
  auto f = CheckPointwiseBound(orig, rec, 0.1);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->oracle, "pointwise-bound");
  EXPECT_EQ(f->index, 2u);
  EXPECT_NE(f->detail.find("index 2"), std::string::npos);
}

TEST(OracleTest, PointwiseBoundAcceptsExactEdges) {
  TimeSeries orig(0, 1, {10.0, -10.0});
  const compress::Allowance a = compress::RelativeAllowance(10.0, 0.1);
  const compress::Allowance b = compress::RelativeAllowance(-10.0, 0.1);
  TimeSeries rec(0, 1, {a.hi, b.lo});
  EXPECT_FALSE(CheckPointwiseBound(orig, rec, 0.1).has_value());
}

TEST(OracleTest, PointwiseBoundRejectsNaNReconstruction) {
  TimeSeries orig(0, 1, {10.0});
  TimeSeries rec(0, 1, {std::nan("")});
  auto f = CheckPointwiseBound(orig, rec, 0.5);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->oracle, "pointwise-bound");
}

TEST(OracleTest, ExactZeroDriftIsReported) {
  TimeSeries orig(0, 1, {0.0, 5.0});
  TimeSeries rec(0, 1, {1e-300, 5.0});
  auto f = CheckExactZeros(orig, rec);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->oracle, "exact-zero");
  EXPECT_EQ(f->index, 0u);
}

TEST(OracleTest, LosslessDistinguishesSignedZero) {
  TimeSeries orig(0, 1, {0.0});
  TimeSeries rec(0, 1, {-0.0});
  EXPECT_TRUE(CheckLossless(orig, rec).has_value());
  EXPECT_FALSE(CheckLossless(orig, orig).has_value());
}

// A deliberately broken lossy codec: round-trips the series but inflates
// every value by 50% on decode, far past any ε < 0.5 — RunOracles must
// report the pointwise-bound violation (and the zero drift).
class BrokenCompressor : public compress::Compressor {
 public:
  std::string_view name() const override { return "BROKEN"; }

  Result<std::vector<uint8_t>> Compress(const TimeSeries& series,
                                        double /*error_bound*/) const override {
    compress::ByteWriter writer;
    writer.PutI64(series.start_timestamp());
    writer.PutI32(series.interval_seconds());
    writer.PutU32(static_cast<uint32_t>(series.size()));
    for (size_t i = 0; i < series.size(); ++i) writer.PutDouble(series[i]);
    return writer.Finish();
  }

  Result<TimeSeries> Decompress(
      std::span<const uint8_t> blob) const override {
    compress::ByteReader reader(blob);
    Result<int64_t> ts = reader.GetI64();
    if (!ts.ok()) return ts.status();
    Result<int32_t> interval = reader.GetI32();
    if (!interval.ok()) return interval.status();
    Result<uint32_t> n = reader.GetU32();
    if (!n.ok()) return n.status();
    std::vector<double> values;
    values.reserve(*n);
    for (uint32_t i = 0; i < *n; ++i) {
      Result<double> v = reader.GetDouble();
      if (!v.ok()) return v.status();
      values.push_back(*v * 1.5 + 0.25);
    }
    return TimeSeries(*ts, *interval, std::move(values));
  }
};

TEST(OracleTest, RunOraclesCatchesABoundViolatingCodec) {
  BrokenCompressor broken;
  TimeSeries ts(0, 60, {0.0, 1.0, 2.0, 3.0});
  const std::vector<OracleFailure> failures = RunOracles(broken, ts, 0.05);
  bool bound = false;
  bool zero = false;
  for (const OracleFailure& f : failures) {
    if (f.oracle == "pointwise-bound") bound = true;
    if (f.oracle == "exact-zero") zero = true;
  }
  EXPECT_TRUE(bound);
  EXPECT_TRUE(zero);
}

TEST(OracleTest, RunOraclesIsCleanForAllRealCodecs) {
  TimeSeries ts(0, 60, {0.0, 1.0, 1.05, 1.1, 0.0, -2.0, -2.1, 5.0});
  for (const char* name :
       {"PMC", "SWING", "SZ", "PPA", "GORILLA", "CHIMP", "LFZIP",
        "CAMEO"}) {
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    ASSERT_TRUE(codec.ok());
    const std::vector<OracleFailure> failures =
        RunOracles(**codec, ts, 0.05);
    for (const OracleFailure& f : failures) {
      ADD_FAILURE() << name << ": " << f.oracle << ": " << f.detail;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutator.

std::vector<uint8_t> SampleBlob() {
  Result<std::unique_ptr<compress::Compressor>> pmc =
      compress::MakeCompressor("PMC");
  EXPECT_TRUE(pmc.ok());
  TimeSeries ts(0, 60, std::vector<double>(100, 1.0));
  Result<std::vector<uint8_t>> blob = (*pmc)->Compress(ts, 0.1);
  EXPECT_TRUE(blob.ok());
  return *blob;
}

TEST(MutateTest, IsDeterministic) {
  const std::vector<uint8_t> blob = SampleBlob();
  const std::vector<Mutant> a = GenerateMutants(blob, 5, 8);
  const std::vector<Mutant> b = GenerateMutants(blob, 5, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].blob, b[i].blob);
  }
}

TEST(MutateTest, CoversStructuralMutationClasses) {
  const std::vector<Mutant> mutants = GenerateMutants(SampleBlob(), 1, 4);
  bool truncation = false;
  bool header_flip = false;
  bool count_splice = false;
  bool payload_splice = false;
  bool random = false;
  for (const Mutant& m : mutants) {
    if (m.kind.rfind("truncate@", 0) == 0) truncation = true;
    if (m.kind.rfind("bit-flip@", 0) == 0) header_flip = true;
    if (m.kind.rfind("num-points=", 0) == 0) count_splice = true;
    if (m.kind.rfind("payload-count=", 0) == 0) payload_splice = true;
    if (m.kind.rfind("rand-", 0) == 0) random = true;
  }
  EXPECT_TRUE(truncation);
  EXPECT_TRUE(header_flip);
  EXPECT_TRUE(count_splice);
  EXPECT_TRUE(payload_splice);
  EXPECT_TRUE(random);
}

TEST(MutateTest, EveryMutantDecodeSatisfiesTheContract) {
  // Beyond the harness run: every mutant of every codec's blob must either
  // fail cleanly or decode self-consistently. This is the per-codec version
  // with a denser random battery.
  TimeSeries ts(10, 60, {0.0, 1.0, 2.5, 2.6, 0.0, -4.0, 8.0, 8.1});
  for (const char* name :
       {"PMC", "SWING", "SZ", "PPA", "GORILLA", "CHIMP", "LFZIP",
        "CAMEO"}) {
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    ASSERT_TRUE(codec.ok());
    Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.1);
    ASSERT_TRUE(blob.ok()) << name;
    for (const Mutant& m : GenerateMutants(*blob, 99, 64)) {
      if (auto f = CheckMutantDecode(**codec, m); f.has_value()) {
        ADD_FAILURE() << name << ": " << f->detail;
      }
    }
  }
}

// A decoder that ignores the blob and always "succeeds" with three points:
// CheckMutantDecode must flag the count mismatch against the header claim.
class AcceptingCompressor : public compress::Compressor {
 public:
  std::string_view name() const override { return "ACCEPT"; }
  Result<std::vector<uint8_t>> Compress(const TimeSeries&,
                                        double) const override {
    return std::vector<uint8_t>{};
  }
  Result<TimeSeries> Decompress(std::span<const uint8_t>) const override {
    return TimeSeries(0, 1, {1.0, 2.0, 3.0});
  }
};

TEST(MutateTest, MisacceptingDecoderIsFlagged) {
  AcceptingCompressor accept;
  Mutant m;
  m.kind = "num-points=0x64";
  m.blob = SampleBlob();  // Header claims 100 points.
  auto f = CheckMutantDecode(accept, m);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->oracle, "mutant-accept");
}

}  // namespace
}  // namespace lossyts::conform

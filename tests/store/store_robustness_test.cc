// Store-format fuzzing through the conform mutation battery: every
// structured mutant of a valid store image must either fail with a Status
// or answer self-consistently — never crash, never silently mis-answer
// (src/conform/mutate.cc, GenerateStoreMutants/CheckStoreMutant).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "conform/mutate.h"
#include "core/rng.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::conform {
namespace {

// ctest runs each case in its own process, in parallel: a per-test,
// per-process file name keeps them from overwriting each other's image.
std::string ImagePath() {
  return ::testing::TempDir() + "lossyts_mutant_base_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(getpid()) + ".lts";
}

std::vector<uint8_t> BuildStoreImage(const std::vector<std::string>& codecs,
                                     size_t n) {
  Rng rng(21);
  std::vector<double> v(n);
  double x = 40.0;
  for (auto& val : v) {
    x += 0.1 * rng.Normal();
    val = x;
  }
  const std::string path = ImagePath();
  store::StoreOptions options;
  options.chunk_span = 300;
  options.codecs = codecs;
  auto writer = store::StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->Append(TimeSeries(0, 60, std::move(v))).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open());
  std::vector<uint8_t> image((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return image;
}

TEST(StoreRobustnessTest, ImagePathIsPerTestAndProcess) {
  const std::string path = ImagePath();
  EXPECT_NE(path.find("ImagePathIsPerTestAndProcess"), std::string::npos)
      << path;
  const std::string pid = std::to_string(getpid());
  EXPECT_NE(path.find("_" + pid + ".lts"), std::string::npos) << path;
  EXPECT_FALSE(BuildStoreImage({"PMC"}, 400).empty());
  // The image file is removed once read, so no case leaves one behind.
  EXPECT_FALSE(std::ifstream(path).is_open()) << path;
}

TEST(StoreRobustnessTest, ValidImagePassesTheCheckItself) {
  const std::vector<uint8_t> image = BuildStoreImage({"PMC"}, 1000);
  Mutant identity{"identity", image};
  std::optional<OracleFailure> failure = CheckStoreMutant(identity);
  EXPECT_FALSE(failure.has_value())
      << failure->oracle << ": " << failure->detail;
}

TEST(StoreRobustnessTest, EveryStructuredMutantIsHandled) {
  // Multi-codec image: PMC chunks exercise the pushdown consistency drill,
  // GORILLA chunks the prefix-decode path.
  const std::vector<uint8_t> image =
      BuildStoreImage({"PMC", "GORILLA"}, 1500);
  const std::vector<Mutant> mutants = GenerateStoreMutants(image, 77, 32);
  ASSERT_GT(mutants.size(), 40u);
  size_t checked = 0;
  for (const Mutant& mutant : mutants) {
    std::optional<OracleFailure> failure = CheckStoreMutant(mutant);
    EXPECT_FALSE(failure.has_value())
        << "mutant '" << mutant.kind << "': " << failure->oracle << " — "
        << failure->detail;
    ++checked;
  }
  EXPECT_EQ(checked, mutants.size());
}

TEST(StoreRobustnessTest, MutantBatteryIsDeterministic) {
  const std::vector<uint8_t> image = BuildStoreImage({"SWING"}, 800);
  const std::vector<Mutant> a = GenerateStoreMutants(image, 5, 8);
  const std::vector<Mutant> b = GenerateStoreMutants(image, 5, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].blob, b[i].blob);
  }
  // A different seed must change at least the random tail of the battery.
  const std::vector<Mutant> c = GenerateStoreMutants(image, 6, 8);
  bool any_difference = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a[i].blob != c[i].blob) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(StoreRobustnessTest, TruncationMutantsSalvageConsistently) {
  const std::vector<uint8_t> image = BuildStoreImage({"SZ"}, 900);
  for (const Mutant& mutant : GenerateStoreMutants(image, 1, 0)) {
    if (mutant.kind.rfind("truncate", 0) != 0) continue;
    // Truncations may legitimately open as a salvaged prefix; the check
    // must still hold them to the self-consistency contract.
    std::optional<OracleFailure> failure = CheckStoreMutant(mutant);
    EXPECT_FALSE(failure.has_value())
        << mutant.kind << ": " << failure->detail;
  }
}

}  // namespace
}  // namespace lossyts::conform

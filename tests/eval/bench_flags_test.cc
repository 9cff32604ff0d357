// The grid benches' shared flags: --jobs must be a whole non-negative
// integer, or the bench exits 2 before it runs anything.

#include <gtest/gtest.h>

#include "bench_common.h"

namespace lossyts::bench {
namespace {

int ParseJobs(const char* value) {
  const char* argv[] = {"bench", "--jobs", value};
  return ParseBenchFlags(3, const_cast<char**>(argv)).jobs;
}

TEST(BenchFlagsTest, JobsMustBeANonNegativeInteger) {
  EXPECT_EQ(ParseJobs("3"), 3);
  EXPECT_EQ(ParseJobs("0"), 0);
  const char* argv[] = {"bench", "--fresh"};
  EXPECT_EQ(ParseBenchFlags(2, const_cast<char**>(argv)).jobs, 1);
  for (const char* bad : {"2x", "abc", "-1", ""}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(ParseJobs(bad), ::testing::ExitedWithCode(2), "--jobs");
  }
}

}  // namespace
}  // namespace lossyts::bench

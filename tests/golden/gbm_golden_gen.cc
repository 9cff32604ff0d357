// Prints the golden table of gbm_golden_test.cc: one row per boosted-tree
// case. Regenerate only on a deliberate change to what a fit produces:
//
//   ./build/tests/gbm_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <cinttypes>
#include <cstdio>

#include "golden/gbm_digest.h"

int main() {
  using namespace lossyts;
  for (const std::string& name : golden::GbmCaseNames()) {
    Result<uint64_t> digest = golden::ComputeGbmDigest(name);
    if (!digest.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   digest.status().message().c_str());
      return 1;
    }
    std::printf("    {\"%s\", 0x%016" PRIX64 "ULL},\n", name.c_str(), *digest);
  }
  return 0;
}

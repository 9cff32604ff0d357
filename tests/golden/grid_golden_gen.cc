// Prints the golden table of grid_golden_test.cc: one row per (variant,
// dataset, model) group of the golden grid, plus each variant's whole
// stream. Regenerate only on a deliberate change to what a grid produces:
//
//   ./build/tests/grid_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <cinttypes>
#include <cstdio>

#include "golden/grid_digest.h"

int main() {
  using namespace lossyts;
  for (const golden::GridVariant& variant : golden::GridVariants()) {
    Result<std::vector<golden::GridDigestRow>> rows =
        golden::ComputeGridDigests(variant);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s: %s\n", variant.name,
                   rows.status().message().c_str());
      return 1;
    }
    for (const golden::GridDigestRow& row : *rows) {
      std::printf("    {\"%s\", 0x%016" PRIX64 "ULL},\n", row.name.c_str(),
                  row.digest);
    }
  }
  return 0;
}

// Prints the golden table of wire_golden_test.cc: one row per serve
// protocol message (every request type, the kOk reply to every request
// type, a kError and a kRetry reply). Regenerate only on a deliberate wire
// format change:
//
//   ./build/tests/wire_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <cinttypes>
#include <cstdio>

#include "golden/wire_digest.h"

int main() {
  using namespace lossyts;
  Result<std::vector<golden::WireDigest>> rows = golden::ComputeWireDigests();
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  for (const golden::WireDigest& row : *rows) {
    std::printf("    {\"%s\", %" PRIu64 ", 0x%016" PRIX64 "ULL,\n"
                "     0x%016" PRIX64 "ULL, 0x%016" PRIX64 "ULL, 0x%016" PRIX64
                "ULL},\n",
                row.label.c_str(), row.frame_bytes, row.frame_fnv,
                row.truncation_fnv, row.append_fnv, row.flip_fnv);
  }
  return 0;
}

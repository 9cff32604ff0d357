// Prints the golden table of gzip_golden_test.cc: one row per
// GzipGoldenLabels() entry. Regenerate only on a deliberate change to the
// gzip bytes (and so to every compression ratio):
//
//   ./build/tests/gzip_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <cinttypes>
#include <cstdio>

#include "golden/gzip_digest.h"

int main() {
  using namespace lossyts;
  for (const std::string& label : golden::GzipGoldenLabels()) {
    Result<golden::GzipDigest> d = golden::ComputeGzipDigest(label);
    if (!d.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   d.status().message().c_str());
      return 1;
    }
    std::printf("    {\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", 0x%016" PRIX64 "ULL},\n",
                d->label.c_str(), d->inputs, d->input_bytes, d->gz_bytes,
                d->gz_fnv);
  }
  return 0;
}

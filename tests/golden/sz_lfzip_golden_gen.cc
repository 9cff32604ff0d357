// Prints the golden table of sz_lfzip_golden_test.cc: one row per (conform
// corpus family, paper bound, codec). Regenerate only on a deliberate
// wire-format change:
//
//   ./build/tests/sz_lfzip_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <cinttypes>
#include <cstdio>

#include "compress/pipeline.h"
#include "conform/corpus.h"
#include "golden/sz_lfzip_digest.h"

int main() {
  using namespace lossyts;
  for (const std::string& family : conform::CorpusFamilies()) {
    for (double bound : compress::PaperErrorBounds()) {
      for (const std::string& codec : golden::SzLfzipCodecs()) {
        Result<golden::CodecDigest> d =
            golden::ComputeSzLfzipDigest(family, bound, codec);
        if (!d.ok()) {
          std::fprintf(stderr, "%s %g %s: %s\n", family.c_str(), bound,
                       codec.c_str(), d.status().message().c_str());
          return 1;
        }
        std::printf("    {\"%s\", %g, \"%s\", %" PRIu64 ", 0x%016" PRIX64
                    "ULL, 0x%016" PRIX64 "ULL},\n",
                    family.c_str(), bound, codec.c_str(), d->blob_bytes,
                    d->blob_fnv, d->decoded_fnv);
      }
    }
  }
  return 0;
}

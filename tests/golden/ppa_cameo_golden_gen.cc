// Prints the golden tables of ppa_cameo_golden_test.cc: one row per (conform
// corpus family, paper bound, codec), then one dataset row per codec.
// Regenerate only on a deliberate wire-format change:
//
//   ./build/tests/ppa_cameo_golden_gen > rows.inc
//
// and paste the rows into kGolden and kDatasetGolden.

#include <cinttypes>
#include <cstdio>

#include "compress/pipeline.h"
#include "conform/corpus.h"
#include "golden/ppa_cameo_digest.h"

namespace {

bool PrintRow(const lossyts::Result<lossyts::golden::CodecDigest>& d,
              const std::string& label) {
  if (!d.ok()) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(),
                 d.status().message().c_str());
    return false;
  }
  std::printf("    {\"%s\", %g, \"%s\", %" PRIu64 ", 0x%016" PRIX64
              "ULL, 0x%016" PRIX64 "ULL},\n",
              d->family.c_str(), d->bound, d->codec.c_str(), d->blob_bytes,
              d->blob_fnv, d->decoded_fnv);
  return true;
}

}  // namespace

int main() {
  using namespace lossyts;
  for (const std::string& family : conform::CorpusFamilies()) {
    for (double bound : compress::PaperErrorBounds()) {
      for (const std::string& codec : golden::PpaCameoCodecs()) {
        if (!PrintRow(golden::ComputePpaCameoDigest(family, bound, codec),
                      family + " " + std::to_string(bound) + " " + codec)) {
          return 1;
        }
      }
    }
  }
  std::printf("    // kDatasetGolden\n");
  for (const std::string& codec : golden::PpaCameoCodecs()) {
    if (!PrintRow(golden::ComputePpaCameoDatasetDigest(codec),
                  "datasets " + codec)) {
      return 1;
    }
  }
  return 0;
}

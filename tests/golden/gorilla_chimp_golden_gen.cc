// Prints the golden tables of gorilla_chimp_golden_test.cc: one row per
// (conform corpus family, codec), then one dataset row per codec.
// Regenerate only on a deliberate wire-format change:
//
//   ./build/tests/gorilla_chimp_golden_gen > rows.inc
//
// and paste the rows into kGolden and kDatasetGolden.

#include <cinttypes>
#include <cstdio>

#include "conform/corpus.h"
#include "golden/gorilla_chimp_digest.h"

namespace {

bool PrintRow(const lossyts::Result<lossyts::golden::CodecDigest>& d,
              const std::string& label) {
  if (!d.ok()) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(),
                 d.status().message().c_str());
    return false;
  }
  std::printf("    {\"%s\", \"%s\", %" PRIu64 ", 0x%016" PRIX64
              "ULL, 0x%016" PRIX64 "ULL},\n",
              d->family.c_str(), d->codec.c_str(), d->blob_bytes, d->blob_fnv,
              d->decoded_fnv);
  return true;
}

}  // namespace

int main() {
  using namespace lossyts;
  for (const std::string& family : conform::CorpusFamilies()) {
    for (const std::string& codec : golden::GorillaChimpCodecs()) {
      if (!PrintRow(golden::ComputeGorillaChimpDigest(family, codec),
                    family + " " + codec)) {
        return 1;
      }
    }
  }
  std::printf("    // kDatasetGolden\n");
  for (const std::string& codec : golden::GorillaChimpCodecs()) {
    if (!PrintRow(golden::ComputeGorillaChimpDatasetDigest(codec),
                  "datasets " + codec)) {
      return 1;
    }
  }
  return 0;
}

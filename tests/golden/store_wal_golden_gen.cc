// Prints the golden table of store_wal_golden_test.cc: one row per pinned
// file (six dataset stores, one at chunk_span 100, the shard session's WAL
// before and after its Flush, each checkpoint store, the daemon's shards
// file). Regenerate only on a deliberate on-disk format change:
//
//   ./build/tests/store_wal_golden_gen > rows.inc
//
// and paste the rows into kGolden.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "golden/store_wal_digest.h"

int main() {
  using namespace lossyts;
  const std::string scratch =
      "/tmp/lossyts_store_wal_golden_" + std::to_string(::getpid());
  if (!golden::RemoveTree(scratch).ok() ||
      std::system(("mkdir -p '" + scratch + "'").c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", scratch.c_str());
    return 1;
  }
  Result<std::vector<golden::FileDigest>> rows =
      golden::ComputeStoreWalDigests(scratch);
  const bool removed = golden::RemoveTree(scratch).ok();
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  for (const golden::FileDigest& row : *rows) {
    std::printf("    {\"%s\", %" PRIu64 ", 0x%016" PRIX64 "ULL},\n",
                row.label.c_str(), row.bytes, row.fnv);
  }
  return removed ? 0 : 1;
}

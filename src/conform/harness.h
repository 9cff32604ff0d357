#ifndef LOSSYTS_CONFORM_HARNESS_H_
#define LOSSYTS_CONFORM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace lossyts::conform {

/// Configuration for one conformance run.
struct ConformOptions {
  /// Codec names (compress::MakeCompressor spelling). Empty selects all eight.
  std::vector<std::string> codecs;
  /// Relative error bounds for the lossy codecs. Empty selects a spread of
  /// the paper's sweep: {0.01, 0.05, 0.2, 0.8}. Lossless codecs run once.
  std::vector<double> error_bounds;
  /// Corpus cases per family (see conform/corpus.h). >= 6 cycles the whole
  /// "lengths" family across the 65535/65536/65537 boundary.
  int cases_per_family = 4;
  /// Base seed: the only input needed (with family + index, both printed on
  /// failure) to regenerate any failing case.
  uint64_t base_seed = 1;
  /// Seeded random bit flips/byte splices per mutated blob, on top of the
  /// deterministic structure-aware battery. 0 disables only the random part.
  int random_bit_flips = 32;
  /// Worker threads; 0 resolves to ThreadPool::DefaultJobs().
  int jobs = 0;
  /// Run the decoder-fuzzing (mutation) pass in addition to the oracles.
  bool mutate = true;
};

/// One oracle or mutation-contract violation, with every coordinate needed
/// to reproduce it deterministically.
struct ConformFailure {
  std::string codec;
  double error_bound = 0.0;
  std::string family;
  int case_index = 0;
  uint64_t seed = 0;
  std::string oracle;
  std::string detail;
};

/// Aggregate outcome of a run. `failures` is empty iff every cell conformed.
struct ConformSummary {
  size_t cases = 0;    ///< (codec, ε, corpus case) oracle cells executed.
  size_t mutants = 0;  ///< Mutated blobs fed to decoders.
  std::vector<ConformFailure> failures;
};

/// Stable one-line rendering: codec, ε, family/index, seed, oracle, detail.
std::string FormatFailure(const ConformFailure& failure);

/// Runs the full conformance grid — corpus × codecs × error bounds through
/// the oracle battery, plus one mutation pass per (codec, case) — on a
/// thread pool. Deterministic in the options: cell identities, not execution
/// order, derive all randomness, and failures are sorted before returning.
/// Errors (unknown codec name, invalid option) come back as a Status; oracle
/// violations come back inside the summary.
Result<ConformSummary> RunConform(const ConformOptions& options);

}  // namespace lossyts::conform

#endif  // LOSSYTS_CONFORM_HARNESS_H_

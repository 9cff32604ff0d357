#include "conform/harness.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "compress/pipeline.h"
#include "conform/corpus.h"
#include "conform/mutate.h"
#include "conform/oracles.h"
#include "conform/stream_oracle.h"
#include "core/seed.h"
#include "core/thread_pool.h"

namespace lossyts::conform {

namespace {

const std::vector<std::string>& AllCodecNames() {
  static const std::vector<std::string> kNames = {
      "PMC", "SWING", "SZ", "GORILLA", "CHIMP", "PPA", "LFZIP", "CAMEO"};
  return kNames;
}

std::string FormatBound(double eb) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", eb);
  return buffer;
}

bool FailureLess(const ConformFailure& a, const ConformFailure& b) {
  return std::tie(a.codec, a.error_bound, a.family, a.case_index, a.oracle,
                  a.detail) < std::tie(b.codec, b.error_bound, b.family,
                                       b.case_index, b.oracle, b.detail);
}

}  // namespace

std::string FormatFailure(const ConformFailure& failure) {
  // Everything needed to reproduce: seed is the derived per-case Rng seed
  // (informational); codec + eb + family + index + the run's base seed
  // regenerate the exact cell via MakeCorpusCase.
  return "[" + failure.codec + " eb=" + FormatBound(failure.error_bound) +
         " " + failure.family + "#" + std::to_string(failure.case_index) +
         " seed=" + std::to_string(failure.seed) + "] " + failure.oracle +
         ": " + failure.detail;
}

Result<ConformSummary> RunConform(const ConformOptions& options) {
  if (options.cases_per_family <= 0) {
    return Status::InvalidArgument("cases_per_family must be positive");
  }
  const std::vector<std::string>& codec_names =
      options.codecs.empty() ? AllCodecNames() : options.codecs;
  std::vector<double> bounds = options.error_bounds;
  if (bounds.empty()) bounds = {0.01, 0.05, 0.2, 0.8};
  for (const double eb : bounds) {
    if (Status s = compress::CheckErrorBound(eb); !s.ok()) return s;
  }

  // Resolve every codec up front so an unknown name fails the run instead of
  // silently shrinking the grid.
  std::vector<std::unique_ptr<compress::Compressor>> codecs;
  codecs.reserve(codec_names.size());
  for (const std::string& name : codec_names) {
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    if (!codec.ok()) return codec.status();
    codecs.push_back(std::move(*codec));
  }

  const std::vector<CorpusCase> corpus =
      GenerateCorpus(options.base_seed, options.cases_per_family);

  ConformSummary summary;
  std::mutex mu;
  ThreadPool pool(options.jobs);

  for (const std::unique_ptr<compress::Compressor>& codec_ptr : codecs) {
    const compress::Compressor& codec = *codec_ptr;
    const bool lossless = IsLosslessCodec(codec.name());
    // Lossless codecs ignore ε, so a single pass covers them.
    const size_t bound_count = lossless ? 1 : bounds.size();
    for (size_t b = 0; b < bound_count; ++b) {
      const double eb = bounds[b];
      for (const CorpusCase& c : corpus) {
        pool.Submit([&codec, &c, eb, b, &options, &summary, &mu] {
          std::vector<OracleFailure> failures = RunOracles(codec, c.series, eb);

          // Streaming byte-equivalence battery, for codecs that have an
          // incremental implementation: replay/flush schedules whose Flush()
          // must be byte-identical to the batch blob of the same prefix.
          size_t stream_checks = 0;
          for (OracleFailure& f :
               RunStreamOracles(std::string(codec.name()), c.series, eb,
                                TagSeed(c.seed, "stream"), &stream_checks)) {
            failures.push_back(std::move(f));
          }

          std::vector<OracleFailure> mutant_failures;
          size_t mutants = 0;
          // The mutation pass fuzzes the decoder, which never sees ε, so run
          // it once per (codec, case) — at the first bound only.
          if (options.mutate && b == 0) {
            Result<std::vector<uint8_t>> blob = codec.Compress(c.series, eb);
            if (blob.ok()) {
              const uint64_t mseed = TagSeed(c.seed, "mutate");
              const std::vector<Mutant> batch =
                  GenerateMutants(*blob, mseed, options.random_bit_flips);
              mutants = batch.size();
              for (const Mutant& m : batch) {
                if (auto f = CheckMutantDecode(codec, m); f.has_value()) {
                  mutant_failures.push_back(std::move(*f));
                }
              }
            }
          }

          std::lock_guard<std::mutex> lock(mu);
          ++summary.cases;
          summary.mutants += mutants;
          for (std::vector<OracleFailure>* source :
               {&failures, &mutant_failures}) {
            for (OracleFailure& f : *source) {
              summary.failures.push_back(ConformFailure{
                  std::string(codec.name()), eb, c.family, c.index, c.seed,
                  std::move(f.oracle), std::move(f.detail)});
            }
          }
        });
      }
    }
  }
  pool.Wait();

  // Execution order is pool-dependent; the report is not.
  std::sort(summary.failures.begin(), summary.failures.end(), FailureLess);
  return summary;
}

}  // namespace lossyts::conform

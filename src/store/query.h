#ifndef LOSSYTS_STORE_QUERY_H_
#define LOSSYTS_STORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "store/reader.h"

namespace lossyts::store {

/// Range aggregates answerable by segment pushdown.
enum class AggregateKind { kMin, kMax, kSum, kCount, kMean };

/// Parses "MIN"/"MAX"/"SUM"/"COUNT"/"MEAN" (case-sensitive, CLI spelling).
Result<AggregateKind> ParseAggregateKind(const std::string& name);
const char* AggregateKindName(AggregateKind kind);

struct AggregateOptions {
  int jobs = 1;
  /// When false, every chunk is decoded even if its model supports pushdown
  /// — the reference path the equivalence tests and bench compare against.
  bool allow_pushdown = true;
};

/// An aggregate over reconstructed values, plus a guaranteed bound on how
/// far it can sit from the same aggregate over the raw (pre-compression)
/// data. The bound derives from the store's relative error bound ε: every
/// raw value obeys |v̂ − v| ≤ ε·|v| ≤ ε/(1−ε)·|v̂|, so
///   SUM   deviates by at most Σ ε/(1−ε)·|v̂_i|,
///   MEAN  by that sum divided by the count,
///   MIN/MAX by at most max_i ε/(1−ε)·|v̂_i|,
///   COUNT by 0,
/// with lossless (Gorilla/Chimp) chunks contributing zero. The reported
/// bound is an upper bound, not an estimate.
struct AggregateResult {
  double value = 0.0;
  uint64_t count = 0;
  double error_bound = 0.0;  ///< Absolute bound vs the raw data.
  size_t pushdown_chunks = 0;
  size_t decoded_chunks = 0;
};

/// Aggregates the reconstructed values with timestamps in [t0, t1]
/// (inclusive, clamped to the stored extent). PMC/Swing chunks are answered
/// directly on their segment models in O(segments); other codecs fall back
/// to a cached chunk decode. Per-chunk work fans out on `jobs` threads and
/// partials merge in canonical chunk order, so the result is byte-identical
/// for every jobs value. An empty selection yields 0 for COUNT and SUM and
/// OutOfRange for MIN/MAX/MEAN.
Result<AggregateResult> AggregateRange(const StoreReader& reader,
                                       AggregateKind kind, int64_t t0,
                                       int64_t t1,
                                       const AggregateOptions& options = {});

/// Multi-series, multi-kind fan-out: evaluates every kind over every store
/// on one shared pool (per-(store, chunk) tasks) and returns, in input
/// order, one result per kind for each store. Each chunk's partial is
/// computed once and merged, in canonical chunk order, into every kind, so
/// results[s][k] equals AggregateRange(*readers[s], kinds[k], ...) in value,
/// count and error bound, bit for bit. The chunk counters describe that one
/// pass, so a store's results all carry the same counts.
Result<std::vector<std::vector<AggregateResult>>> AggregateStores(
    const std::vector<const StoreReader*>& readers,
    const std::vector<AggregateKind>& kinds, int64_t t0, int64_t t1,
    const AggregateOptions& options = {});

}  // namespace lossyts::store

#endif  // LOSSYTS_STORE_QUERY_H_

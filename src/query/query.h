#ifndef LOSSYTS_QUERY_QUERY_H_
#define LOSSYTS_QUERY_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"
#include "store/query.h"

namespace lossyts::query {

/// How series fold into groups:
///  - kSeries: one group per series (GROUP BY series).
///  - kPrefix: series grouped by their name up to the first delimiter
///    ("turbine_3" and "turbine_7" share group "turbine"; a name without the
///    delimiter is its own group).
///  - kAll: a single group named "all".
enum class GroupMode { kSeries, kPrefix, kAll };

/// Parses "series" / "prefix" / "all" (the CLI spelling).
Result<GroupMode> ParseGroupMode(const std::string& name);
const char* GroupModeName(GroupMode mode);

struct QueryOptions {
  /// Registered metric names (core/metric_registry.h) evaluated per group
  /// against (actual, predicted) pairs. May be empty when `aggregates` is
  /// not. Interval metrics (coverage) are rejected — stores hold point
  /// forecasts only.
  std::vector<std::string> metrics;
  /// Plain range aggregates ("MIN"/"MAX"/"SUM"/"COUNT"/"MEAN") over the
  /// actual stores, answered by segment pushdown where the codec allows.
  std::vector<std::string> aggregates;
  GroupMode group_by = GroupMode::kSeries;
  /// Prefix-grouping delimiter; must be non-empty for kPrefix.
  std::string delimiter = "_";
  /// Inclusive time-range predicate, pushed down into the store layer
  /// (chunk selection + partial decode; segment models for aggregates).
  int64_t t0 = std::numeric_limits<int64_t>::min();
  int64_t t1 = std::numeric_limits<int64_t>::max();
  /// Worker threads for the per-series fan-out; <= 1 runs inline. The
  /// result is byte-identical for every value (canonical-order merge).
  int jobs = 1;
  /// Substring filter on the series name; empty matches everything.
  std::string match;
  /// A series `<name>` pairs with the forecast store `<name><pred_suffix>`;
  /// stores with this suffix are never treated as actual series themselves.
  std::string pred_suffix = ".pred";
  /// Seasonal naive lag for scaled metrics (MASE).
  int season_length = 1;
};

/// One GROUP BY output row.
struct GroupRow {
  std::string group;
  uint64_t series_count = 0;
  /// Actual points inside the time range, summed over the group's series.
  uint64_t points = 0;
  /// Values for QueryResult::aggregate_names, positionally.
  std::vector<double> aggregates;
  /// Values for QueryResult::metric_names, positionally.
  std::vector<double> metrics;
};

struct QueryResult {
  /// Canonical metric spellings (CanonicalMetricNames of the request).
  std::vector<std::string> metric_names;
  std::vector<std::string> aggregate_names;
  /// Rows sorted by group name — the canonical order that makes the result
  /// byte-identical for every --jobs value.
  std::vector<GroupRow> rows;
  /// Pushdown effectiveness over the aggregate path, summed over the
  /// stores. Each selected chunk counts once, as pushed down or decoded.
  uint64_t pushdown_chunks = 0;
  uint64_t decoded_chunks = 0;
};

/// One series' reconstructed data handed to the grouping engine. `predicted`
/// may be null only when the query requests no metrics.
struct SeriesInput {
  std::string name;
  const TimeSeries* actual = nullptr;
  const TimeSeries* predicted = nullptr;
};

/// The grouping/evaluation core, independent of where the series came from
/// (directory of .lts stores offline, shard snapshots in the serve daemon).
///
/// Group semantics are pooled, SQL-style: each group's metric is evaluated
/// over the concatenation of its series' (actual, predicted) pairs in
/// canonical (sorted-name) order (core/metric_registry's PooledMetrics) —
/// not an average of per-series metrics. For
/// scaled metrics (MASE) the pooled actual vector doubles as the in-sample
/// series. A series whose actual and predicted grids disagree (different
/// interval or misaligned timestamps) is an InvalidArgument naming it.
Result<QueryResult> EvaluateGroupedSeries(const std::vector<SeriesInput>& series,
                                          const QueryOptions& options);

/// Runs a grouped query over a directory of `.lts` stores: every
/// `<name>.lts` (minus `pred_suffix` stores) is an actual series, read over
/// [t0, t1] with the per-series work fanned out on `jobs` threads, paired
/// with `<name><pred_suffix>.lts` when metrics are requested. A metric query
/// decodes the pairs' chunks on `jobs` threads, a bounded window ahead of
/// one thread that folds them into each group's metrics in canonical order,
/// so its memory does not grow with the series' lengths; the result equals
/// EvaluateGroupedSeries over ReadRange'd series.
/// Aggregate-only queries go through store/query segment pushdown instead
/// of decoding. The merge is canonical-order, so the result — and
/// FormatQueryResult's text — is byte-identical for every `jobs`. Carries
/// the "query_fetch" failpoint in the per-series fetch. On failure the
/// first fetch error in canonical series order is returned (a series'
/// fetch error is the first of: open actual, decode actual, open forecast,
/// decode forecast), then the first misaligned pair, then group errors.
Result<QueryResult> QueryStoreDir(const std::string& dir,
                                  const QueryOptions& options);

/// Renders the result as a CSV table: a header of
/// `group,series,points[,<aggregates...>][,<metrics...>]` then one row per
/// group with doubles formatted %.17g. Canonical: equal results format to
/// equal bytes.
std::string FormatQueryResult(const QueryResult& result);

}  // namespace lossyts::query

#endif  // LOSSYTS_QUERY_QUERY_H_

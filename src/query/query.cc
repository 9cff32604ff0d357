#include "query/query.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "core/failpoint.h"
#include "core/metric_registry.h"
#include "core/thread_pool.h"
#include "store/reader.h"

namespace lossyts::query {

namespace {

constexpr char kStoreSuffix[] = ".lts";

/// The request, validated and canonicalized once up front so every failure
/// mode surfaces before any store I/O.
struct ResolvedQuery {
  std::vector<std::string> metric_names;
  bool needs_insample = false;
  std::vector<store::AggregateKind> aggregate_kinds;
  std::vector<std::string> aggregate_names;
};

Result<ResolvedQuery> ResolveQuery(const QueryOptions& options) {
  if (options.metrics.empty() && options.aggregates.empty()) {
    return Status::InvalidArgument(
        "query requests neither metrics nor aggregates");
  }
  if (options.t0 > options.t1) {
    return Status::InvalidArgument("query range is inverted: t0 > t1");
  }
  if (options.group_by == GroupMode::kPrefix && options.delimiter.empty()) {
    return Status::InvalidArgument(
        "prefix grouping needs a non-empty delimiter");
  }
  ResolvedQuery resolved;
  if (!options.metrics.empty()) {
    Result<std::vector<std::string>> canonical =
        CanonicalMetricNames(options.metrics);
    if (!canonical.ok()) return canonical.status();
    for (const std::string& name : *canonical) {
      Result<MetricSpec> spec = MetricRegistry::Global().Parse(name);
      if (!spec.ok()) return spec.status();
      if (spec->needs_interval) {
        return Status::InvalidArgument(
            "metric '" + name +
            "' needs prediction intervals; stores hold point forecasts");
      }
      resolved.needs_insample |= spec->needs_insample;
    }
    resolved.metric_names = std::move(*canonical);
  }
  for (const std::string& name : options.aggregates) {
    Result<store::AggregateKind> kind = store::ParseAggregateKind(name);
    if (!kind.ok()) return kind.status();
    resolved.aggregate_kinds.push_back(*kind);
    resolved.aggregate_names.push_back(store::AggregateKindName(*kind));
  }
  return resolved;
}

std::string GroupKeyFor(const QueryOptions& options, const std::string& name) {
  switch (options.group_by) {
    case GroupMode::kSeries:
      return name;
    case GroupMode::kPrefix: {
      const size_t at = name.find(options.delimiter);
      return at == std::string::npos ? name : name.substr(0, at);
    }
    case GroupMode::kAll:
      return "all";
  }
  return name;
}

/// Index window of a series inside the [t0, t1] predicate.
struct RangeView {
  size_t begin = 0;
  size_t count = 0;
  int64_t start_timestamp = 0;
};

RangeView ClampToRange(const TimeSeries& series, int64_t t0, int64_t t1) {
  RangeView view;
  if (series.empty()) return view;
  const int64_t interval = series.interval_seconds();
  const int64_t first = series.start_timestamp();
  const int64_t last = series.TimestampAt(series.size() - 1);
  int64_t lo = first;
  if (t0 > lo) {
    // First grid point >= t0.
    lo = first + ((t0 - first) + interval - 1) / interval * interval;
  }
  const int64_t hi = std::min(t1, last);
  if (lo > hi) return view;
  view.begin = static_cast<size_t>((lo - first) / interval);
  view.count = static_cast<size_t>((hi - lo) / interval) + 1;
  view.start_timestamp = lo;
  return view;
}

/// Per-series partial aggregate, mergeable across a group in any grouping
/// mode (the merge itself always walks series in canonical order).
struct SeriesAggregate {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  uint64_t count = 0;
};

void AccumulateValues(const double* values, size_t count,
                      SeriesAggregate& agg) {
  for (size_t i = 0; i < count; ++i) {
    const double v = values[i];
    if (agg.count == 0 || v < agg.min) agg.min = v;
    if (agg.count == 0 || v > agg.max) agg.max = v;
    agg.sum += v;
    ++agg.count;
  }
}

void MergeAggregate(const SeriesAggregate& in, SeriesAggregate& out) {
  if (in.count == 0) return;
  if (out.count == 0 || in.min < out.min) out.min = in.min;
  if (out.count == 0 || in.max > out.max) out.max = in.max;
  out.sum += in.sum;
  out.count += in.count;
}

Result<double> FinishAggregate(store::AggregateKind kind,
                               const SeriesAggregate& agg,
                               const std::string& group) {
  switch (kind) {
    case store::AggregateKind::kCount:
      return static_cast<double>(agg.count);
    case store::AggregateKind::kSum:
      return agg.sum;
    case store::AggregateKind::kMin:
    case store::AggregateKind::kMax:
    case store::AggregateKind::kMean:
      if (agg.count == 0) {
        return Status::OutOfRange("group '" + group + "' selects no points for " +
                                  store::AggregateKindName(kind));
      }
      if (kind == store::AggregateKind::kMin) return agg.min;
      if (kind == store::AggregateKind::kMax) return agg.max;
      return agg.sum / static_cast<double>(agg.count);
  }
  return Status::Internal("unhandled aggregate kind");
}

/// Where one series' (actual, predicted) pairs sit: `count` aligned points
/// starting `actual_offset` into the actual window and `predicted_offset`
/// into the predicted one.
struct PairOverlap {
  size_t actual_offset = 0;
  size_t predicted_offset = 0;
  size_t count = 0;
};

/// The aligned overlap of one series' actual and predicted windows (after
/// the range predicate). Empty when either window is; InvalidArgument naming
/// the series when the two sampling grids disagree.
Result<PairOverlap> AlignPairs(const std::string& name,
                               const RangeView& actual,
                               int64_t actual_interval,
                               const RangeView& predicted,
                               int64_t predicted_interval) {
  PairOverlap overlap;
  if (actual.count == 0 || predicted.count == 0) return overlap;
  if (actual_interval != predicted_interval) {
    return Status::InvalidArgument(
        "series '" + name +
        "': actual and predicted stores disagree on the sampling interval");
  }
  const int64_t interval = actual_interval;
  if ((predicted.start_timestamp - actual.start_timestamp) % interval != 0) {
    return Status::InvalidArgument(
        "series '" + name +
        "': predicted store is off the actual store's sampling grid");
  }
  const int64_t start =
      std::max(actual.start_timestamp, predicted.start_timestamp);
  const int64_t actual_last =
      actual.start_timestamp +
      static_cast<int64_t>(actual.count - 1) * interval;
  const int64_t predicted_last =
      predicted.start_timestamp +
      static_cast<int64_t>(predicted.count - 1) * interval;
  const int64_t last = std::min(actual_last, predicted_last);
  if (last < start) return overlap;
  overlap.count = static_cast<size_t>((last - start) / interval) + 1;
  overlap.actual_offset =
      static_cast<size_t>((start - actual.start_timestamp) / interval);
  overlap.predicted_offset =
      static_cast<size_t>((start - predicted.start_timestamp) / interval);
  return overlap;
}

/// Group state assembled while walking series in canonical order.
struct GroupAccum {
  uint64_t series_count = 0;
  uint64_t points = 0;
  SeriesAggregate aggregate;
  std::vector<double> actual;
  std::vector<double> predicted;
  size_t pairs = 0;  ///< Pooled pairs placed so far (QueryStoreDir sizing).
};

Result<QueryResult> FinishGroups(const ResolvedQuery& resolved,
                                 const QueryOptions& options,
                                 std::map<std::string, GroupAccum>& groups) {
  QueryResult result;
  result.metric_names = resolved.metric_names;
  result.aggregate_names = resolved.aggregate_names;
  for (auto& [group, accum] : groups) {
    GroupRow row;
    row.group = group;
    row.series_count = accum.series_count;
    row.points = accum.points;
    for (const store::AggregateKind kind : resolved.aggregate_kinds) {
      Result<double> value = FinishAggregate(kind, accum.aggregate, group);
      if (!value.ok()) return value.status();
      row.aggregates.push_back(*value);
    }
    if (!resolved.metric_names.empty()) {
      if (accum.actual.empty()) {
        return Status::InvalidArgument(
            "group '" + group +
            "' has no (actual, predicted) pairs in the requested time range");
      }
      MetricContext ctx;
      ctx.actual = &accum.actual;
      ctx.predicted = &accum.predicted;
      if (resolved.needs_insample) ctx.insample = &accum.actual;
      ctx.season_length = std::max(1, options.season_length);
      ctx.series = group;
      Result<std::vector<double>> metrics =
          EvaluateMetrics(resolved.metric_names, ctx);
      if (!metrics.ok()) return metrics.status();
      row.metrics = std::move(*metrics);
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

/// One series' contribution to a store-directory query, filled by the
/// fetch tasks and merged in canonical order.
struct SeriesFetch {
  /// The series' first fetch error: opening or decoding its actual store,
  /// then opening or decoding its forecast store (query_fetch fires first).
  Status status;
  SeriesAggregate aggregate;
  uint64_t points = 0;
  uint64_t pushdown_chunks = 0;
  uint64_t decoded_chunks = 0;
};

uint64_t SelectedChunks(const store::StoreReader::Selection& sel) {
  return sel.count == 0 ? 0 : sel.last_chunk - sel.first_chunk + 1;
}

RangeView SelectionView(const store::StoreReader::Selection& sel) {
  RangeView view;
  view.count = sel.count;
  view.start_timestamp = sel.start_timestamp;
  return view;
}

std::string StorePath(const std::string& dir, const std::string& base) {
  return dir + "/" + base + kStoreSuffix;
}

/// Aggregate-only fetch: answered on segment models (pushdown) without
/// decoding where the codec allows; the points column costs one index walk.
void FetchAggregates(const std::string& dir,
                     const std::vector<std::string>& bases,
                     const QueryOptions& options, ThreadPool& pool,
                     std::vector<SeriesFetch>& fetched) {
  for (size_t i = 0; i < bases.size(); ++i) {
    pool.Submit([&, i] {
      SeriesFetch& out = fetched[i];
      out.status = FailPoints::Hit("query_fetch");
      if (!out.status.ok()) return;
      Result<std::unique_ptr<store::StoreReader>> reader =
          store::StoreReader::Open(StorePath(dir, bases[i]));
      if (!reader.ok()) {
        out.status = reader.status();
        return;
      }
      Result<store::StoreReader::Selection> selection =
          (*reader)->Select(options.t0, options.t1);
      if (!selection.ok()) {
        out.status = selection.status();
        return;
      }
      out.points = selection->count;
      out.aggregate.count = selection->count;
      if (selection->count == 0) return;
      // One pass over the chunks answers all three kinds.
      Result<std::vector<std::vector<store::AggregateResult>>> r =
          store::AggregateStores({reader->get()},
                                 {store::AggregateKind::kMin,
                                  store::AggregateKind::kMax,
                                  store::AggregateKind::kSum},
                                 options.t0, options.t1);
      if (!r.ok()) {
        out.status = r.status();
        return;
      }
      const std::vector<store::AggregateResult>& kinds = (*r)[0];
      out.aggregate.min = kinds[0].value;
      out.aggregate.max = kinds[1].value;
      out.aggregate.sum = kinds[2].value;
      out.pushdown_chunks = kinds[0].pushdown_chunks;
      out.decoded_chunks = kinds[0].decoded_chunks;
    });
  }
  pool.Wait();
}

/// One series of a metric query between the two fetch phases.
struct PairFetch {
  std::unique_ptr<store::StoreReader> actual;
  std::unique_ptr<store::StoreReader> predicted;
  store::StoreReader::Selection actual_sel;
  store::StoreReader::Selection predicted_sel;
  /// Opening or selecting the forecast store failed. That error ranks after
  /// the actual store's decode, so it waits for phase 2.
  Status predicted_status;
  /// A misaligned pair; ranks after every series' fetch error.
  Status alignment;
  PairOverlap overlap;
};

/// Copies the part of a run (selection positions [run_start, run_start +
/// count)) that falls inside the window [window_start, window_start +
/// window_count) to `out`, which holds the window.
void CopyWindow(const double* run, size_t count, size_t run_start,
                size_t window_start, size_t window_count, double* out) {
  const size_t lo = std::max(run_start, window_start);
  const size_t hi = std::min(run_start + count, window_start + window_count);
  if (lo >= hi) return;
  std::copy(run + (lo - run_start), run + (hi - run_start),
            out + (lo - window_start));
}

/// The metric fetch, in two pool phases around a serial sizing step.
///
///  - Phase 1: each task opens the series' actual and forecast stores and
///    selects [t0, t1] in both.
///  - Sizing, serially in canonical order: each aligned pair gets its overlap
///    and its offset in its group, and every group's pooled actual and
///    predicted vectors are sized once.
///  - Phase 2: each task decodes both full selections, copies only the
///    overlap into the series' disjoint slices of the pooled vectors, and
///    folds any aggregates over the whole actual selection in time order.
///
/// The pooled vectors thus hold exactly what appending each series' aligned
/// pairs in canonical order would. Errors keep their precedence: a series'
/// error is the first of open actual, decode actual, open forecast, decode
/// forecast; the first such error in canonical order beats every alignment
/// error, and the first alignment error in canonical order beats the rest.
/// So phase 2 decodes a series' actual store even when its forecast store
/// is missing or misaligned.
Status FetchMetricPairs(const std::string& dir,
                        const std::vector<std::string>& bases,
                        const QueryOptions& options,
                        const ResolvedQuery& resolved, ThreadPool& pool,
                        std::vector<SeriesFetch>& fetched,
                        std::map<std::string, GroupAccum>& groups) {
  std::vector<PairFetch> pairs(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    pool.Submit([&, i] {
      SeriesFetch& out = fetched[i];
      PairFetch& pair = pairs[i];
      out.status = FailPoints::Hit("query_fetch");
      if (!out.status.ok()) return;
      Result<std::unique_ptr<store::StoreReader>> actual =
          store::StoreReader::Open(StorePath(dir, bases[i]));
      if (!actual.ok()) {
        out.status = actual.status();
        return;
      }
      Result<store::StoreReader::Selection> actual_sel =
          (*actual)->Select(options.t0, options.t1);
      if (!actual_sel.ok()) {
        out.status = actual_sel.status();
        return;
      }
      pair.actual = std::move(*actual);
      pair.actual_sel = *actual_sel;
      out.points = actual_sel->count;
      out.decoded_chunks += SelectedChunks(*actual_sel);
      const std::string pred_path =
          StorePath(dir, bases[i] + options.pred_suffix);
      Result<std::unique_ptr<store::StoreReader>> pred =
          store::StoreReader::Open(pred_path);
      if (!pred.ok()) {
        pair.predicted_status = Status::NotFound(
            "series '" + bases[i] + "' has no forecast store at " +
            pred_path + " (" + pred.status().message() + ")");
        return;
      }
      Result<store::StoreReader::Selection> pred_sel =
          (*pred)->Select(options.t0, options.t1);
      if (!pred_sel.ok()) {
        pair.predicted_status = pred_sel.status();
        return;
      }
      pair.predicted = std::move(*pred);
      pair.predicted_sel = *pred_sel;
      out.decoded_chunks += SelectedChunks(*pred_sel);
    });
  }
  pool.Wait();

  std::vector<GroupAccum*> group_of(bases.size());
  std::vector<size_t> offset(bases.size(), 0);
  for (size_t i = 0; i < bases.size(); ++i) {
    GroupAccum& accum = groups[GroupKeyFor(options, bases[i])];
    group_of[i] = &accum;
    PairFetch& pair = pairs[i];
    if (!fetched[i].status.ok() || !pair.predicted_status.ok()) continue;
    Result<PairOverlap> overlap = AlignPairs(
        bases[i], SelectionView(pair.actual_sel),
        pair.actual->interval_seconds(), SelectionView(pair.predicted_sel),
        pair.predicted->interval_seconds());
    if (!overlap.ok()) {
      pair.alignment = overlap.status();
      continue;
    }
    pair.overlap = *overlap;
    offset[i] = accum.pairs;
    accum.pairs += overlap->count;
  }
  for (auto& [group, accum] : groups) {
    accum.actual.resize(accum.pairs);
    accum.predicted.resize(accum.pairs);
  }

  const bool fold = !resolved.aggregate_kinds.empty();
  for (size_t i = 0; i < bases.size(); ++i) {
    if (!fetched[i].status.ok()) continue;
    pool.Submit([&, i] {
      SeriesFetch& out = fetched[i];
      PairFetch& pair = pairs[i];
      const PairOverlap& overlap = pair.overlap;
      // This series' slices of its group's pooled vectors.
      double* const actual_out = group_of[i]->actual.data() + offset[i];
      double* const predicted_out =
          group_of[i]->predicted.data() + offset[i];
      size_t position = 0;
      Status decoded = pair.actual->DecodeSelection(
          pair.actual_sel, 1, [&](const double* run, size_t count) {
            if (fold) AccumulateValues(run, count, out.aggregate);
            CopyWindow(run, count, position, overlap.actual_offset,
                       overlap.count, actual_out);
            position += count;
          });
      pair.actual.reset();  // Frees the file image and its decoded chunks.
      if (!decoded.ok()) {
        out.status = decoded;
        return;
      }
      if (!pair.predicted_status.ok()) {
        out.status = pair.predicted_status;
        return;
      }
      position = 0;
      decoded = pair.predicted->DecodeSelection(
          pair.predicted_sel, 1, [&](const double* run, size_t count) {
            CopyWindow(run, count, position, overlap.predicted_offset,
                       overlap.count, predicted_out);
            position += count;
          });
      pair.predicted.reset();
      out.status = decoded;
    });
  }
  pool.Wait();

  for (const SeriesFetch& f : fetched) {
    if (!f.status.ok()) return f.status;
  }
  for (const PairFetch& pair : pairs) {
    if (!pair.alignment.ok()) return pair.alignment;
  }
  return Status::OK();
}

}  // namespace

Result<GroupMode> ParseGroupMode(const std::string& name) {
  if (name == "series") return GroupMode::kSeries;
  if (name == "prefix") return GroupMode::kPrefix;
  if (name == "all") return GroupMode::kAll;
  return Status::InvalidArgument(
      "unknown group mode '" + name + "' (want series, prefix or all)");
}

const char* GroupModeName(GroupMode mode) {
  switch (mode) {
    case GroupMode::kSeries:
      return "series";
    case GroupMode::kPrefix:
      return "prefix";
    case GroupMode::kAll:
      return "all";
  }
  return "?";
}

Result<QueryResult> EvaluateGroupedSeries(
    const std::vector<SeriesInput>& series, const QueryOptions& options) {
  Result<ResolvedQuery> resolved = ResolveQuery(options);
  if (!resolved.ok()) return resolved.status();

  std::vector<const SeriesInput*> ordered;
  ordered.reserve(series.size());
  for (const SeriesInput& s : series) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const SeriesInput* a, const SeriesInput* b) {
              return a->name < b->name;
            });

  std::map<std::string, GroupAccum> groups;
  for (const SeriesInput* s : ordered) {
    if (s->actual == nullptr) {
      return Status::InvalidArgument("series '" + s->name +
                                     "' has no actual data");
    }
    if (!resolved->metric_names.empty() && s->predicted == nullptr) {
      return Status::InvalidArgument(
          "series '" + s->name +
          "' has no predicted data for metric evaluation");
    }
    if (!options.match.empty() &&
        s->name.find(options.match) == std::string::npos) {
      continue;
    }
    GroupAccum& accum = groups[GroupKeyFor(options, s->name)];
    ++accum.series_count;
    const RangeView actual_view =
        ClampToRange(*s->actual, options.t0, options.t1);
    accum.points += actual_view.count;
    if (!resolved->aggregate_kinds.empty()) {
      SeriesAggregate agg;
      AccumulateValues(s->actual->values().data() + actual_view.begin,
                       actual_view.count, agg);
      MergeAggregate(agg, accum.aggregate);
    }
    if (!resolved->metric_names.empty()) {
      const RangeView predicted_view =
          ClampToRange(*s->predicted, options.t0, options.t1);
      Result<PairOverlap> overlap = AlignPairs(
          s->name, actual_view, s->actual->interval_seconds(), predicted_view,
          s->predicted->interval_seconds());
      if (!overlap.ok()) return overlap.status();
      const auto a = s->actual->values().begin() +
                     (actual_view.begin + overlap->actual_offset);
      const auto p = s->predicted->values().begin() +
                     (predicted_view.begin + overlap->predicted_offset);
      accum.actual.insert(accum.actual.end(), a, a + overlap->count);
      accum.predicted.insert(accum.predicted.end(), p, p + overlap->count);
    }
  }
  return FinishGroups(*resolved, options, groups);
}

Result<QueryResult> QueryStoreDir(const std::string& dir,
                                  const QueryOptions& options) {
  Result<ResolvedQuery> resolved = ResolveQuery(options);
  if (!resolved.ok()) return resolved.status();
  const bool want_metrics = !resolved->metric_names.empty();
  if (want_metrics && options.pred_suffix.empty()) {
    return Status::InvalidArgument(
        "metric queries need a non-empty --pred-suffix to pair stores");
  }

  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot list " + dir + ": " + std::strerror(errno));
  }
  std::vector<std::string> bases;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (!name.ends_with(kStoreSuffix)) continue;
    const std::string base =
        name.substr(0, name.size() - std::strlen(kStoreSuffix));
    if (!options.pred_suffix.empty() && base.ends_with(options.pred_suffix)) {
      continue;  // A forecast store, reachable only through its pair.
    }
    if (!options.match.empty() &&
        base.find(options.match) == std::string::npos) {
      continue;
    }
    bases.push_back(base);
  }
  ::closedir(d);
  std::sort(bases.begin(), bases.end());
  if (bases.empty()) {
    return Status::NotFound("no series stores in " + dir +
                            (options.match.empty()
                                 ? std::string()
                                 : " match '" + options.match + "'"));
  }

  // Per-series fetch fans out on the pool; every slot lands at its input
  // index, and all merging below walks slots in canonical (sorted) order, so
  // the result is byte-identical for every jobs value. On failure the first
  // error in canonical order wins.
  std::vector<SeriesFetch> fetched(bases.size());
  std::map<std::string, GroupAccum> groups;
  ThreadPool pool(options.jobs);
  if (want_metrics) {
    if (Status s = FetchMetricPairs(dir, bases, options, *resolved, pool,
                                    fetched, groups);
        !s.ok()) {
      return s;
    }
  } else {
    FetchAggregates(dir, bases, options, pool, fetched);
    for (const SeriesFetch& f : fetched) {
      if (!f.status.ok()) return f.status;
    }
  }

  QueryResult counters;
  for (size_t i = 0; i < bases.size(); ++i) {
    GroupAccum& accum = groups[GroupKeyFor(options, bases[i])];
    ++accum.series_count;
    accum.points += fetched[i].points;
    MergeAggregate(fetched[i].aggregate, accum.aggregate);
    counters.pushdown_chunks += fetched[i].pushdown_chunks;
    counters.decoded_chunks += fetched[i].decoded_chunks;
  }
  Result<QueryResult> result = FinishGroups(*resolved, options, groups);
  if (!result.ok()) return result.status();
  result->pushdown_chunks = counters.pushdown_chunks;
  result->decoded_chunks = counters.decoded_chunks;
  return result;
}

std::string FormatQueryResult(const QueryResult& result) {
  std::string out = "group,series,points";
  for (const std::string& name : result.aggregate_names) out += ',' + name;
  for (const std::string& name : result.metric_names) out += ',' + name;
  out += '\n';
  char buffer[32];
  for (const GroupRow& row : result.rows) {
    out += row.group;
    out += ',' + std::to_string(row.series_count);
    out += ',' + std::to_string(row.points);
    for (const double v : row.aggregates) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      out += ',';
      out += buffer;
    }
    for (const double v : row.metrics) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      out += ',';
      out += buffer;
    }
    out += '\n';
  }
  return out;
}

}  // namespace lossyts::query

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

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

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

void AccumulateValues(const std::vector<double>& values, const RangeView& view,
                      SeriesAggregate& agg) {
  for (size_t i = 0; i < view.count; ++i) {
    const double v = values[view.begin + i];
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

/// Appends the (actual, predicted) pairs of one series' overlap — after the
/// range predicate — onto the group's pooled vectors, in timestamp order.
Status AppendAlignedPairs(const std::string& name, const TimeSeries& actual,
                          const RangeView& actual_view,
                          const TimeSeries& predicted,
                          const RangeView& predicted_view,
                          std::vector<double>& actual_out,
                          std::vector<double>& predicted_out) {
  if (actual_view.count == 0 || predicted_view.count == 0) {
    return Status::OK();
  }
  if (actual.interval_seconds() != predicted.interval_seconds()) {
    return Status::InvalidArgument(
        "series '" + name +
        "': actual and predicted stores disagree on the sampling interval");
  }
  const int64_t interval = actual.interval_seconds();
  if ((predicted_view.start_timestamp - actual_view.start_timestamp) %
          interval !=
      0) {
    return Status::InvalidArgument(
        "series '" + name +
        "': predicted store is off the actual store's sampling grid");
  }
  const int64_t start =
      std::max(actual_view.start_timestamp, predicted_view.start_timestamp);
  const int64_t actual_last =
      actual_view.start_timestamp +
      static_cast<int64_t>(actual_view.count - 1) * interval;
  const int64_t predicted_last =
      predicted_view.start_timestamp +
      static_cast<int64_t>(predicted_view.count - 1) * interval;
  const int64_t last = std::min(actual_last, predicted_last);
  if (last < start) return Status::OK();
  const size_t n = static_cast<size_t>((last - start) / interval) + 1;
  const size_t a0 =
      actual_view.begin +
      static_cast<size_t>((start - actual_view.start_timestamp) / interval);
  const size_t p0 =
      predicted_view.begin +
      static_cast<size_t>((start - predicted_view.start_timestamp) / interval);
  actual_out.insert(actual_out.end(), actual.values().begin() + a0,
                    actual.values().begin() + a0 + n);
  predicted_out.insert(predicted_out.end(), predicted.values().begin() + p0,
                       predicted.values().begin() + p0 + n);
  return Status::OK();
}

/// Group state assembled while walking series in canonical order.
struct GroupAccum {
  uint64_t series_count = 0;
  uint64_t points = 0;
  SeriesAggregate aggregate;
  std::vector<double> actual;
  std::vector<double> predicted;
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
      AccumulateValues(s->actual->values(), actual_view, agg);
      MergeAggregate(agg, accum.aggregate);
    }
    if (!resolved->metric_names.empty()) {
      const RangeView predicted_view =
          ClampToRange(*s->predicted, options.t0, options.t1);
      if (Status st = AppendAlignedPairs(s->name, *s->actual, actual_view,
                                         *s->predicted, predicted_view,
                                         accum.actual, accum.predicted);
          !st.ok()) {
        return st;
      }
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
    if (!EndsWith(name, kStoreSuffix)) continue;
    const std::string base =
        name.substr(0, name.size() - std::strlen(kStoreSuffix));
    if (!options.pred_suffix.empty() && EndsWith(base, options.pred_suffix)) {
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
  struct Fetched {
    Status status;
    TimeSeries actual;
    TimeSeries predicted;
    SeriesAggregate aggregate;
    uint64_t points = 0;
    uint64_t pushdown_chunks = 0;
    uint64_t decoded_chunks = 0;
  };
  std::vector<Fetched> fetched(bases.size());
  ThreadPool pool(options.jobs);
  for (size_t i = 0; i < bases.size(); ++i) {
    pool.Submit([&, i] {
      Fetched& out = fetched[i];
      out.status = FailPoints::Hit("query_fetch");
      if (!out.status.ok()) return;
      const std::string path = dir + "/" + bases[i] + kStoreSuffix;
      Result<std::unique_ptr<store::StoreReader>> reader =
          store::StoreReader::Open(path);
      if (!reader.ok()) {
        out.status = reader.status();
        return;
      }
      if (want_metrics) {
        // The decode path: reconstruct only the selected range, paired with
        // the forecast store. Select() is how the decoded-chunk counter
        // knows the cost without instrumenting the reader.
        const auto count_decoded = [&out](const store::StoreReader& r,
                                          int64_t t0, int64_t t1) {
          Result<store::StoreReader::Selection> sel = r.Select(t0, t1);
          if (sel.ok() && sel->count > 0) {
            out.decoded_chunks += sel->last_chunk - sel->first_chunk + 1;
          }
        };
        count_decoded(**reader, options.t0, options.t1);
        Result<TimeSeries> actual =
            (*reader)->ReadRange(options.t0, options.t1, 1);
        if (!actual.ok()) {
          out.status = actual.status();
          return;
        }
        out.actual = std::move(*actual);
        out.points = out.actual.size();
        const std::string pred_path =
            dir + "/" + bases[i] + options.pred_suffix + kStoreSuffix;
        Result<std::unique_ptr<store::StoreReader>> pred =
            store::StoreReader::Open(pred_path);
        if (!pred.ok()) {
          out.status = Status::NotFound(
              "series '" + bases[i] + "' has no forecast store at " +
              pred_path + " (" + pred.status().message() + ")");
          return;
        }
        count_decoded(**pred, options.t0, options.t1);
        Result<TimeSeries> predicted =
            (*pred)->ReadRange(options.t0, options.t1, 1);
        if (!predicted.ok()) {
          out.status = predicted.status();
          return;
        }
        out.predicted = std::move(*predicted);
        if (!resolved->aggregate_kinds.empty()) {
          RangeView view;
          view.count = out.actual.size();
          view.start_timestamp = out.actual.start_timestamp();
          AccumulateValues(out.actual.values(), view, out.aggregate);
        }
        return;
      }
      // Aggregate-only: answered on segment models (pushdown) without
      // decoding; the points column costs one index walk.
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
  for (const Fetched& f : fetched) {
    if (!f.status.ok()) return f.status;
  }

  std::map<std::string, GroupAccum> groups;
  QueryResult counters;
  for (size_t i = 0; i < bases.size(); ++i) {
    GroupAccum& accum = groups[GroupKeyFor(options, bases[i])];
    ++accum.series_count;
    accum.points += fetched[i].points;
    MergeAggregate(fetched[i].aggregate, accum.aggregate);
    counters.pushdown_chunks += fetched[i].pushdown_chunks;
    counters.decoded_chunks += fetched[i].decoded_chunks;
    if (want_metrics) {
      RangeView actual_view;
      actual_view.count = fetched[i].actual.size();
      actual_view.start_timestamp = fetched[i].actual.start_timestamp();
      RangeView predicted_view;
      predicted_view.count = fetched[i].predicted.size();
      predicted_view.start_timestamp = fetched[i].predicted.start_timestamp();
      if (Status st = AppendAlignedPairs(
              bases[i], fetched[i].actual, actual_view, fetched[i].predicted,
              predicted_view, accum.actual, accum.predicted);
          !st.ok()) {
        return st;
      }
    }
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

#include "query/query.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "core/failpoint.h"
#include "core/metric_registry.h"
#include "core/ordered_pipeline.h"
#include "core/thread_pool.h"
#include "store/reader.h"

namespace lossyts::query {

namespace {

constexpr char kStoreSuffix[] = ".lts";

/// The request, validated and canonicalized once up front so every failure
/// mode surfaces before any store I/O.
struct ResolvedQuery {
  std::vector<std::string> metric_names;
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
  /// The group's metric folds; set when the query has metrics.
  std::optional<PooledMetrics> metrics;
};

using GroupMap = std::map<std::string, GroupAccum>;

/// The group series `name` falls in, created (with fresh metric folds) on
/// first use.
Result<GroupAccum*> GroupFor(GroupMap& groups, const std::string& name,
                             const ResolvedQuery& resolved,
                             const QueryOptions& options) {
  GroupAccum& accum = groups[GroupKeyFor(options, name)];
  if (!resolved.metric_names.empty() && !accum.metrics.has_value()) {
    Result<PooledMetrics> metrics =
        PooledMetrics::Create(resolved.metric_names, options.season_length);
    if (!metrics.ok()) return metrics.status();
    accum.metrics.emplace(std::move(*metrics));
  }
  return &accum;
}

Result<QueryResult> FinishGroups(const ResolvedQuery& resolved,
                                 const GroupMap& groups) {
  QueryResult result;
  result.metric_names = resolved.metric_names;
  result.aggregate_names = resolved.aggregate_names;
  for (const auto& [group, accum] : groups) {
    GroupRow row;
    row.group = group;
    row.series_count = accum.series_count;
    row.points = accum.points;
    for (const store::AggregateKind kind : resolved.aggregate_kinds) {
      Result<double> value = FinishAggregate(kind, accum.aggregate, group);
      if (!value.ok()) return value.status();
      row.aggregates.push_back(*value);
    }
    if (accum.metrics.has_value()) {
      if (accum.metrics->count() == 0) {
        return Status::InvalidArgument(
            "group '" + group +
            "' has no (actual, predicted) pairs in the requested time range");
      }
      Result<std::vector<double>> metrics = accum.metrics->Finish(group);
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

/// One series of a metric query between open and fold.
struct PairFetch {
  std::unique_ptr<store::StoreReader> actual;
  std::unique_ptr<store::StoreReader> predicted;
  store::StoreReader::Selection actual_sel;
  store::StoreReader::Selection predicted_sel;
  /// Opening or selecting the forecast store failed. That error ranks after
  /// the actual store's decode, so it waits for its place in the pipeline.
  Status predicted_status;
  /// A misaligned pair; ranks after every series' fetch error.
  Status alignment;
  PairOverlap overlap;
};

/// Decoded chunks the metric pipeline may hold ahead of the fold. A unit is
/// one chunk, so a metric query holds at most this many decoded chunks (plus
/// one chunk of unpaired values), whatever the series' lengths.
constexpr size_t kDecodeWindow = 16;

/// One unit of the metric pipeline: a chunk decode of one side of a series,
/// or a phase-1 error standing in its canonical place.
struct ChunkUnit {
  size_t series = 0;
  bool actual = true;
  size_t chunk = 0;
  bool last = false;  ///< The series' last unit.
  Status error;       ///< Fails the unit without decoding.
};

/// The chunks `sel` spans, each keyed by its first selected timestamp.
std::vector<std::pair<int64_t, size_t>> SelectedChunkStarts(
    const store::StoreReader& reader,
    const store::StoreReader::Selection& sel) {
  std::vector<std::pair<int64_t, size_t>> starts;
  if (sel.count == 0) return starts;
  for (size_t c = sel.first_chunk; c <= sel.last_chunk; ++c) {
    starts.emplace_back(c == sel.first_chunk
                            ? sel.start_timestamp
                            : reader.chunks()[c].first_timestamp,
                        c);
  }
  return starts;
}

/// The pipeline's units in canonical order: per series, both selections'
/// chunks merged by first selected timestamp (actual first on ties), so the
/// fold never waits on more than about one chunk of the other side. The
/// list stops at the first phase-1 error, which outranks everything after
/// it.
std::vector<ChunkUnit> PlanUnits(const std::vector<PairFetch>& pairs,
                                 const std::vector<SeriesFetch>& fetched) {
  std::vector<ChunkUnit> units;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PairFetch& pair = pairs[i];
    if (!fetched[i].status.ok()) {
      units.push_back({i, true, 0, true, fetched[i].status});
      break;
    }
    const auto actual = SelectedChunkStarts(*pair.actual, pair.actual_sel);
    const auto predicted =
        pair.predicted_status.ok()
            ? SelectedChunkStarts(*pair.predicted, pair.predicted_sel)
            : std::vector<std::pair<int64_t, size_t>>();
    const size_t first = units.size();
    size_t a = 0;
    size_t p = 0;
    while (a < actual.size() || p < predicted.size()) {
      const bool take_actual =
          p == predicted.size() ||
          (a < actual.size() && actual[a].first <= predicted[p].first);
      units.push_back({i, take_actual,
                       take_actual ? actual[a++].second : predicted[p++].second,
                       false, Status::OK()});
    }
    if (!pair.predicted_status.ok()) {
      units.push_back({i, false, 0, true, pair.predicted_status});
      break;
    }
    if (units.size() > first) units.back().last = true;
  }
  return units;
}

/// Folds one series' decoded runs into its group: clips each run to the
/// pair overlap and pairs it with the other side's values, holding back
/// whichever side is ahead. At most one side holds values at a time.
class PairFolder {
 public:
  void Start(const PairFetch& pair, PooledMetrics* metrics) {
    overlap_ = pair.overlap;
    metrics_ = pair.alignment.ok() && pair.predicted_status.ok() &&
                       overlap_.count > 0
                   ? metrics
                   : nullptr;
    position_[0] = position_[1] = 0;
    carry_[0].clear();
    carry_[1].clear();
  }

  /// Stops pairing (a forecast chunk failed; the query fails anyway).
  void Drop() { metrics_ = nullptr; }

  /// The next run of the actual (side 0) or predicted (side 1) selection.
  void Feed(int side, const double* run, size_t count) {
    const size_t at = position_[side];
    position_[side] += count;
    if (metrics_ == nullptr) return;
    const size_t window =
        side == 0 ? overlap_.actual_offset : overlap_.predicted_offset;
    const size_t lo = std::max(at, window);
    const size_t hi = std::min(at + count, window + overlap_.count);
    if (lo >= hi) return;
    const double* values = run + (lo - at);
    const size_t n = hi - lo;
    std::vector<double>& other = carry_[1 - side];
    const size_t paired = std::min(n, other.size());
    if (paired > 0) {
      if (side == 0) {
        metrics_->Add(values, other.data(), paired);
      } else {
        metrics_->Add(other.data(), values, paired);
      }
      other.erase(other.begin(), other.begin() + paired);
    }
    carry_[side].insert(carry_[side].end(), values + paired, values + n);
  }

 private:
  PairOverlap overlap_;
  PooledMetrics* metrics_ = nullptr;
  size_t position_[2] = {0, 0};
  std::vector<double> carry_[2];
};

/// The metric fetch: open and select in parallel, align serially, then
/// decode and fold in one ordered pipeline.
///
///  - Phase 1 (pool): each task opens the series' actual and forecast stores
///    and selects [t0, t1] in both.
///  - Alignment, serially in canonical order: each pair gets its overlap.
///  - Pipeline (core/ordered_pipeline): the pool's workers decode the units
///    PlanUnits lists, at most kDecodeWindow ahead; this thread takes them in
///    order, folds any aggregates over the whole actual selection and feeds
///    the overlap's pairs to the group's metric folds.
///
/// Each group's folds thus see exactly the pairs, in exactly the order, of
/// appending each series' aligned pairs in canonical order. Errors keep
/// their precedence: a series' error is the first of open actual, decode
/// actual, open forecast, decode forecast (a forecast decode error waits for
/// the series' remaining actual chunks); the first such error in canonical
/// order beats every alignment error, and the first alignment error in
/// canonical order beats the rest. So every chunk of both selections is
/// decoded, even outside the overlap and for misaligned pairs.
Status FetchMetricPairs(const std::string& dir,
                        const std::vector<std::string>& bases,
                        const QueryOptions& options,
                        const ResolvedQuery& resolved, ThreadPool& pool,
                        std::vector<SeriesFetch>& fetched,
                        const std::vector<GroupAccum*>& group_of) {
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

  for (size_t i = 0; i < bases.size(); ++i) {
    PairFetch& pair = pairs[i];
    if (!fetched[i].status.ok() || !pair.predicted_status.ok()) continue;
    Result<PairOverlap> overlap = AlignPairs(
        bases[i], SelectionView(pair.actual_sel),
        pair.actual->interval_seconds(), SelectionView(pair.predicted_sel),
        pair.predicted->interval_seconds());
    if (overlap.ok()) {
      pair.overlap = *overlap;
    } else {
      pair.alignment = overlap.status();
    }
  }

  const std::vector<ChunkUnit> units = PlanUnits(pairs, fetched);
  std::vector<Result<std::vector<double>>> decoded(
      kDecodeWindow, Status::Internal("chunk not decoded"));
  const bool fold_aggregates = !resolved.aggregate_kinds.empty();
  PairFolder folder;
  Status deferred;  // The current series' forecast decode error.
  size_t current = bases.size();
  const auto produce = [&](size_t u, size_t slot) -> Status {
    const ChunkUnit& unit = units[u];
    if (!unit.error.ok()) return unit.error;
    const PairFetch& pair = pairs[unit.series];
    decoded[slot] = (unit.actual ? pair.actual : pair.predicted)
                        ->DecodeChunk(unit.chunk);
    return unit.actual ? decoded[slot].status() : Status::OK();
  };
  const auto consume = [&](size_t u, size_t slot) -> Status {
    const ChunkUnit& unit = units[u];
    PairFetch& pair = pairs[unit.series];
    if (unit.series != current) {
      current = unit.series;
      folder.Start(pair, &*group_of[current]->metrics);
    }
    if (!decoded[slot].ok()) {
      if (deferred.ok()) deferred = decoded[slot].status();
      folder.Drop();
    } else {
      const store::StoreReader::Selection& sel =
          unit.actual ? pair.actual_sel : pair.predicted_sel;
      const std::vector<double>& values = *decoded[slot];
      const size_t from = unit.chunk == sel.first_chunk ? sel.first_local : 0;
      const size_t to =
          unit.chunk == sel.last_chunk ? sel.last_local + 1 : values.size();
      if (unit.actual && fold_aggregates) {
        AccumulateValues(values.data() + from, to - from,
                         fetched[unit.series].aggregate);
      }
      folder.Feed(unit.actual ? 0 : 1, values.data() + from, to - from);
    }
    if (!unit.last) return Status::OK();
    // No later unit reads this series' stores: free the file images.
    pair.actual.reset();
    pair.predicted.reset();
    return deferred;
  };
  if (Status s =
          RunOrdered(pool, units.size(), kDecodeWindow, produce, consume);
      !s.ok()) {
    return s;
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

  GroupMap groups;
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
    Result<GroupAccum*> group = GroupFor(groups, s->name, *resolved, options);
    if (!group.ok()) return group.status();
    GroupAccum& accum = **group;
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
      accum.metrics->Add(
          s->actual->values().data() + actual_view.begin +
              overlap->actual_offset,
          s->predicted->values().data() + predicted_view.begin +
              overlap->predicted_offset,
          overlap->count);
    }
  }
  return FinishGroups(*resolved, groups);
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
  GroupMap groups;
  std::vector<GroupAccum*> group_of(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    Result<GroupAccum*> group = GroupFor(groups, bases[i], *resolved, options);
    if (!group.ok()) return group.status();
    group_of[i] = *group;
  }
  ThreadPool pool(options.jobs);
  if (want_metrics) {
    if (Status s = FetchMetricPairs(dir, bases, options, *resolved, pool,
                                    fetched, group_of);
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
    GroupAccum& accum = *group_of[i];
    ++accum.series_count;
    accum.points += fetched[i].points;
    MergeAggregate(fetched[i].aggregate, accum.aggregate);
    counters.pushdown_chunks += fetched[i].pushdown_chunks;
    counters.decoded_chunks += fetched[i].decoded_chunks;
  }
  Result<QueryResult> result = FinishGroups(*resolved, groups);
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

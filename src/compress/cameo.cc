#include "compress/cameo.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "compress/header.h"
#include "compress/segment_model.h"
#include "compress/serde.h"
#include "features/acf.h"

namespace lossyts::compress {

namespace {

// Reconstruction arithmetic shared by Compress's verification pass,
// Compress's ACF refinement, and Decompress, so every side rounds
// identically. A segment runs from knot value `a` (in-segment offset 0) to
// knot value `b` (offset `len`); both knots are stored exactly, interior
// points interpolate. Returning `b` verbatim at the far end is what makes a
// length-1 segment unconditionally feasible — the shrink loop below bottoms
// out there — and what keeps the next segment's anchor exact.
double SegmentSlope(double a, double b, size_t len) {
  return (b - a) / static_cast<double>(len);
}

double ReconstructPoint(double a, double b, double slope, size_t len,
                        size_t k) {
  if (k == len) return b;
  return a + slope * static_cast<double>(k);
}

// Appends to `knots` the segment-end indices of a greedy connected
// simplification of v[begin..end] (begin itself is the incoming knot; the
// final appended knot is always `end`). Each emitted segment is verified
// with the decoder's exact arithmetic: the slope-interval intersection
// certifies the bound only in real arithmetic, and for exact zeros
// (zero-width allowance) even a 1-ulp drift of slope*k is a violation.
void GreedyKnots(const std::vector<double>& v, double error_bound,
                 size_t begin, size_t end, std::vector<size_t>* knots) {
  size_t s = begin;
  while (s < end) {
    const double a = v[s];
    double slope_lo = -std::numeric_limits<double>::infinity();
    double slope_hi = std::numeric_limits<double>::infinity();
    size_t best = s + 1;  // The immediate neighbour is always reachable.

    for (size_t e = s + 1; e <= end && (e - s) <= kMaxSegmentLength; ++e) {
      const double step = static_cast<double>(e - s);
      // Candidate endpoint e: the secant slope to the exactly-stored knot
      // must keep every *interior* point inside its allowance, i.e. lie in
      // the interval intersected so far. A non-finite secant (values near
      // DBL_MAX) would reconstruct interiors as ±inf, so it is infeasible.
      const double secant = (v[e] - a) / step;
      if (!std::isfinite(secant) ||
          !(secant >= slope_lo && secant <= slope_hi)) {
        break;
      }
      best = e;
      // Extending past e turns e into an interior point: fold its allowance
      // into the feasible interval. An empty intersection means no longer
      // segment exists, but ending *at* e stays valid.
      const Allowance al = RelativeAllowance(v[e], error_bound);
      const double new_lo = std::max(slope_lo, (al.lo - a) / step);
      const double new_hi = std::min(slope_hi, (al.hi - a) / step);
      if (!(new_lo <= new_hi)) break;
      slope_lo = new_lo;
      slope_hi = new_hi;
    }

    // Verify the candidate with the decoder's arithmetic and shrink to the
    // longest conforming prefix. Length 1 has no interior points (the far
    // knot is returned verbatim), so the loop always terminates with every
    // emitted point provably inside its allowance.
    size_t len = best - s;
    while (len > 1) {
      const double b = v[s + len];
      const double slope = SegmentSlope(a, b, len);
      size_t bad = len;
      for (size_t k = 1; k < len; ++k) {
        const double rec = ReconstructPoint(a, b, slope, len, k);
        const Allowance al = RelativeAllowance(v[s + k], error_bound);
        if (!std::isfinite(rec) || !(rec >= al.lo && rec <= al.hi)) {
          bad = k;
          break;
        }
      }
      if (bad == len) break;
      len = bad;
    }
    knots->push_back(s + len);
    s += len;
  }
}

// Writes the reconstruction of the span from knot s to knot e into
// out[s+1..e], via the shared arithmetic. It reads only v[s], v[e] and the
// length, so a span keeps its decoded bytes whatever happens to the others.
void DecodeSpan(const std::vector<double>& v, size_t s, size_t e,
                std::vector<double>* out) {
  const size_t len = e - s;
  const double slope = SegmentSlope(v[s], v[e], len);
  for (size_t k = 1; k <= len; ++k) {
    (*out)[s + k] = ReconstructPoint(v[s], v[e], slope, len, k);
  }
}

// One knot span with its largest pointwise deviation over the interior
// points s+1..e-1 (the first index attaining it; dev 0 when there is none).
struct SpanDev {
  size_t start;
  size_t end;
  size_t worst_index;
  double dev;
};

SpanDev ScanSpan(const std::vector<double>& v,
                 const std::vector<double>& decoded, size_t s, size_t e) {
  SpanDev d{s, e, 0, 0.0};
  for (size_t i = s + 1; i < e; ++i) {
    const double diff = std::abs(v[i] - decoded[i]);
    if (diff > d.dev) {
      d.dev = diff;
      d.worst_index = i;
    }
  }
  return d;
}

}  // namespace

Result<std::vector<uint8_t>> CameoCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  const std::vector<double>& v = series.values();
  const size_t n = v.size();

  std::vector<size_t> knots;
  if (n > 1) GreedyKnots(v, error_bound, 0, n - 1, &knots);

  // ACF refinement: while the reconstruction's autocorrelation deviates from
  // the original's by more than the tolerance at any checked lag, split the
  // spans with the largest pointwise deviation at their worst point and
  // re-simplify each half. Knots are exact, so refinement monotonically
  // approaches the lossless (and hence ACF-exact) limit; the round cap keeps
  // the spend bounded.
  const int max_lag =
      std::min<int>(options_.acf_lag, static_cast<int>(n / 2));
  if (max_lag >= 1 && n > 1) {
    const std::vector<double> acf_orig = features::Acf(v, max_lag);
    // The reconstruction and one SpanDev per knot span, in knot order. Both
    // persist across rounds: a round rewrites only the spans it splits, so
    // only those are re-decoded and re-scanned.
    std::vector<double> decoded(n);
    decoded[0] = v[0];
    std::vector<SpanDev> spans;
    spans.reserve(knots.size());
    size_t s = 0;
    for (size_t e : knots) {
      DecodeSpan(v, s, e, &decoded);
      spans.push_back(ScanSpan(v, decoded, s, e));
      s = e;
    }
    std::vector<size_t> ranked;
    for (int round = 0; round < options_.max_refine_rounds; ++round) {
      const std::vector<double> acf_dec = features::Acf(decoded, max_lag);
      double worst = 0.0;
      for (int l = 0; l < max_lag; ++l) {
        worst = std::max(worst, std::abs(acf_orig[static_cast<size_t>(l)] -
                                         acf_dec[static_cast<size_t>(l)]));
      }
      if (worst <= options_.acf_tolerance) break;

      // Rank the deviating spans by their maximum pointwise deviation (ties
      // by start index, so the order is total and the choice
      // deterministic).
      ranked.clear();
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].end - spans[i].start >= 2 && spans[i].dev > 0.0) {
          ranked.push_back(i);
        }
      }
      if (ranked.empty()) break;  // Already pointwise-exact everywhere.
      // Split half the deviating spans each round (at least refine_batch):
      // the knot count then grows geometrically, so a large ACF gap closes
      // within the round cap instead of trickling in 8 knots at a time. The
      // order is total, so selecting the top `batch` with nth_element picks
      // the same set a full sort would.
      const size_t batch =
          std::max(options_.refine_batch, (ranked.size() + 1) / 2);
      if (ranked.size() > batch) {
        std::nth_element(ranked.begin(), ranked.begin() + batch, ranked.end(),
                         [&spans](size_t x, size_t y) {
                           if (spans[x].dev != spans[y].dev) {
                             return spans[x].dev > spans[y].dev;
                           }
                           return spans[x].start < spans[y].start;
                         });
        ranked.resize(batch);
      }
      std::sort(ranked.begin(), ranked.end());  // Knot order.

      std::vector<size_t> refined;
      std::vector<SpanDev> refined_spans;
      refined.reserve(knots.size() + 2 * ranked.size());
      refined_spans.reserve(knots.size() + 2 * ranked.size());
      size_t next = 0;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (next < ranked.size() && ranked[next] == i) {
          const SpanDev& split = spans[i];
          const size_t first = refined.size();
          GreedyKnots(v, error_bound, split.start, split.worst_index,
                      &refined);
          GreedyKnots(v, error_bound, split.worst_index, split.end,
                      &refined);
          size_t from = split.start;
          for (size_t k = first; k < refined.size(); ++k) {
            DecodeSpan(v, from, refined[k], &decoded);
            refined_spans.push_back(ScanSpan(v, decoded, from, refined[k]));
            from = refined[k];
          }
          ++next;
        } else {
          refined.push_back(spans[i].end);
          refined_spans.push_back(spans[i]);
        }
      }
      knots = std::move(refined);
      spans = std::move(refined_spans);
    }
  }

  ByteWriter writer;
  WriteHeader(MakeHeader(AlgorithmId::kCameo, series), writer);
  if (Status s = PutCountU32(writer, knots.size(), "CAMEO segment");
      !s.ok()) {
    return s;
  }
  writer.PutDouble(v[0]);
  size_t s = 0;
  for (size_t e : knots) {
    writer.PutU16(static_cast<uint16_t>(e - s));
    writer.PutDouble(v[e]);
    s = e;
  }
  return writer.Finish();
}

Result<TimeSeries> CameoCompressor::Decompress(
    std::span<const uint8_t> blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kCameo);
  if (!header.ok()) return header.status();
  if (header->num_points == 0) {
    return Status::Corruption("CAMEO blob claims zero points");
  }

  Result<uint32_t> num_segments = reader.GetU32();
  if (!num_segments.ok()) return num_segments.status();
  Result<double> first = reader.GetDouble();
  if (!first.ok()) return first.status();

  std::vector<double> values;
  values.reserve(SafeReserve(header->num_points));
  values.push_back(*first);
  double prev = *first;
  for (uint32_t s = 0; s < *num_segments; ++s) {
    Result<uint16_t> length = reader.GetU16();
    if (!length.ok()) return length.status();
    // A zero length would decode no points while consuming a knot, letting a
    // spliced segment count parse "successfully" without covering the
    // header's claim — reject it outright.
    if (*length == 0) {
      return Status::Corruption("CAMEO zero-length segment");
    }
    if (values.size() + *length > header->num_points) {
      return Status::Corruption(
          "CAMEO segment lengths overrun the point count");
    }
    Result<double> knot = reader.GetDouble();
    if (!knot.ok()) return knot.status();
    const size_t len = *length;
    const double slope = SegmentSlope(prev, *knot, len);
    for (size_t k = 1; k <= len; ++k) {
      values.push_back(ReconstructPoint(prev, *knot, slope, len, k));
    }
    prev = *knot;
  }
  if (values.size() != header->num_points) {
    return Status::Corruption(
        "CAMEO segment lengths do not sum to point count");
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress

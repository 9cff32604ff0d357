#include "compress/swing.h"

#include "compress/header.h"
#include "compress/segment_model.h"

namespace lossyts::compress {

Result<std::vector<uint8_t>> SwingCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  const BlobHeader header = MakeHeader(AlgorithmId::kSwing, series);
  SegmentBlobWriter out;
  out.Begin(header.algorithm, header.first_timestamp, header.interval_seconds);
  const std::vector<double>& v = series.values();
  SwingWindow window;
  // Verify-shrink hands points back to the next segment, so the scan
  // restarts at the first point the closed segment did not cover.
  size_t start = 0;
  while (start < v.size()) {
    window.Start(v[start]);
    for (size_t i = start + 1; i < v.size() && window.Accept(v[i], error_bound);
         ++i) {
    }
    const SegmentModel segment = window.Close(&v[start], error_bound);
    out.Put(segment);
    start += segment.length;
  }
  return out.Finish(header.num_points);
}

Result<TimeSeries> SwingCompressor::Decompress(
    const std::vector<uint8_t>& blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kSwing);
  if (!header.ok()) return header.status();

  std::vector<double> values;
  values.reserve(SafeReserve(header->num_points));
  if (Status s = ForEachSegment(reader, *header,
                                [&](const SegmentModel& segment) {
                                  for (uint32_t k = 0; k < segment.length;
                                       ++k) {
                                    values.push_back(segment.ValueAt(k));
                                  }
                                });
      !s.ok()) {
    return s;
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress

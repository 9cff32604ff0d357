#include "compress/pmc.h"

#include "compress/header.h"
#include "compress/segment_model.h"

namespace lossyts::compress {

Result<std::vector<uint8_t>> PmcCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  const BlobHeader header = MakeHeader(AlgorithmId::kPmc, series);
  SegmentBlobWriter out;
  out.Begin(header.algorithm, header.first_timestamp, header.interval_seconds);
  PmcWindow window(options_.f32_coefficients);
  for (const double value : series.values()) {
    if (window.Accept(value, error_bound)) continue;
    out.Put(window.Close());
    window.Restart(value, error_bound);
  }
  out.Put(window.Close());
  return out.Finish(header.num_points);
}

Result<TimeSeries> PmcCompressor::Decompress(
    const std::vector<uint8_t>& blob) const {
  ByteReader reader(blob);
  Result<BlobHeader> header = ReadHeader(reader, AlgorithmId::kPmc);
  if (!header.ok()) return header.status();

  std::vector<double> values;
  values.reserve(SafeReserve(header->num_points));
  if (Status s = ForEachSegment(reader, *header,
                                [&](const SegmentModel& segment) {
                                  values.insert(values.end(), segment.length,
                                                segment.anchor);
                                });
      !s.ok()) {
    return s;
  }
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress

#include "stream/streaming_compressor.h"

#include <cmath>
#include <utility>

namespace lossyts::stream {

std::string_view StreamingCompressor::name() const {
  return algorithm_ == compress::AlgorithmId::kPmc ? "PMC" : "SWING";
}

Status StreamingCompressor::Open(int64_t start_timestamp,
                                 int32_t interval_seconds,
                                 double error_bound) {
  if (Status s = compress::CheckErrorBound(error_bound); !s.ok()) return s;
  // The same header-representability gate as batch Compress, checked up
  // front so a stream never accepts points it cannot finalize.
  if (start_timestamp < INT32_MIN || start_timestamp > INT32_MAX) {
    return Status::InvalidArgument(
        "first timestamp does not fit the i32 header field: " +
        std::to_string(start_timestamp));
  }
  if (interval_seconds < 0 || interval_seconds > 65535) {
    return Status::InvalidArgument(
        "sampling interval does not fit the u16 header field: " +
        std::to_string(interval_seconds));
  }
  open_ = true;
  error_bound_ = error_bound;
  points_ = 0;
  closed_points_ = 0;
  writer_.Begin(algorithm_, static_cast<int32_t>(start_timestamp),
                static_cast<uint16_t>(interval_seconds));
  pmc_ = compress::PmcWindow();
  buffer_.clear();
  pending_.clear();
  return Status::OK();
}

Status StreamingCompressor::Reject(double value) const {
  if (!open_) {
    return Status::FailedPrecondition("stream is not open; call Open first");
  }
  // Batch Compress rejects the whole series on a non-finite value; a stream
  // rejects just the point, leaving the open window intact, so Flush stays
  // byte-identical to batch over the accepted points.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        "lossy compression requires finite values; index " +
        std::to_string(points_) + " is " + std::to_string(value));
  }
  return Status::InvalidArgument(
      "point count does not fit the u32 header field");
}

Status StreamingCompressor::Append(
    double value, std::vector<compress::SegmentModel>* closed) {
  if (!open_ || !std::isfinite(value) || points_ == 0xFFFFFFFFull) {
    return Reject(value);
  }
  ++points_;
  if (algorithm_ != compress::AlgorithmId::kPmc) {
    AppendSwing(value, closed);
  } else if (!pmc_.Accept(value, error_bound_)) {
    ClosePmc(value, closed);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> StreamingCompressor::Flush(
    std::vector<compress::SegmentModel>* closed) {
  if (!open_) {
    return Status::FailedPrecondition("stream is not open; call Open first");
  }
  if (points_ == 0) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (algorithm_ == compress::AlgorithmId::kPmc) {
    Emit(pmc_.Close(), closed);
  } else {
    // Close the buffered candidate, then re-feed any verify-shrink
    // leftovers until nothing remains — the order the batch scan visits
    // them in.
    while (!buffer_.empty()) {
      CloseSwing(closed);
      DrainSwing(closed);
    }
  }
  open_ = false;
  return writer_.Finish(static_cast<uint32_t>(points_));
}

compress::SegmentModel StreamingCompressor::Provisional() const {
  compress::SegmentModel model;
  if (algorithm_ == compress::AlgorithmId::kPmc) {
    model = pmc_.Provisional();
  } else if (!buffer_.empty()) {
    model = swing_.Provisional();
  }
  model.start = static_cast<uint32_t>(closed_points_);
  return model;
}

void StreamingCompressor::ProvisionalTail(std::vector<double>* out) const {
  const compress::SegmentModel model = Provisional();
  for (uint32_t k = 0; k < model.length; ++k) {
    out->push_back(model.ValueAt(k));
  }
}

void StreamingCompressor::ClosePmc(
    double value, std::vector<compress::SegmentModel>* closed) {
  Emit(pmc_.Close(), closed);
  pmc_.Restart(value, error_bound_);
}

void StreamingCompressor::AppendSwing(
    double value, std::vector<compress::SegmentModel>* closed) {
  // Fast path: nothing pending (the overwhelmingly common case) — accept or
  // close directly, skipping the deque round trip.
  if (pending_.empty()) {
    if (buffer_.empty()) {
      StartSwing(value);
      return;
    }
    if (AcceptSwing(value)) return;
    // CloseSwing may push verify-shrink leftovers onto pending_; the
    // breaking point queues behind them, exactly like the slow path.
    CloseSwing(closed);
  }
  pending_.push_back(value);
  DrainSwing(closed);
}

void StreamingCompressor::StartSwing(double value) {
  buffer_.push_back(value);
  swing_.Start(value);
}

bool StreamingCompressor::AcceptSwing(double value) {
  if (!swing_.Accept(value, error_bound_)) return false;
  buffer_.push_back(value);
  return true;
}

void StreamingCompressor::CloseSwing(
    std::vector<compress::SegmentModel>* closed) {
  const compress::SegmentModel segment =
      swing_.Close(buffer_.data(), error_bound_);
  pending_.insert(pending_.begin(), buffer_.begin() + segment.length,
                  buffer_.end());
  buffer_.clear();
  Emit(segment, closed);
}

void StreamingCompressor::DrainSwing(
    std::vector<compress::SegmentModel>* closed) {
  while (!pending_.empty()) {
    if (buffer_.empty()) {
      StartSwing(pending_.front());
      pending_.pop_front();
    } else if (AcceptSwing(pending_.front())) {
      pending_.pop_front();
    } else {
      // The point breaks the candidate: close it and leave the breaking
      // point (after any leftovers) for the next segment.
      CloseSwing(closed);
    }
  }
}

void StreamingCompressor::Emit(compress::SegmentModel segment,
                               std::vector<compress::SegmentModel>* closed) {
  segment.start = static_cast<uint32_t>(closed_points_);
  writer_.Put(segment);
  if (closed != nullptr) closed->push_back(segment);
  closed_points_ += segment.length;
}

std::vector<std::string> StreamingCompressorNames() {
  return {"PMC", "SWING"};
}

bool HasStreamingCompressor(const std::string& name) {
  return name == "PMC" || name == "SWING";
}

Result<std::unique_ptr<StreamingCompressor>> MakeStreamingCompressor(
    const std::string& name) {
  if (!HasStreamingCompressor(name)) {
    return Status::InvalidArgument("no streaming compressor named '" + name +
                                   "' (streamable: PMC, SWING)");
  }
  return std::unique_ptr<StreamingCompressor>(new StreamingCompressor(
      name == "PMC" ? compress::AlgorithmId::kPmc
                    : compress::AlgorithmId::kSwing));
}

}  // namespace lossyts::stream

#include "core/ordered_pipeline.h"

#include <condition_variable>
#include <mutex>
#include <vector>

namespace lossyts {

namespace {

/// The hand-off between the workers and the consumer. Workers claim units
/// in index order, never past `consumed + window`; `ready[slot]` says the
/// slot's unit has been produced and not yet consumed.
struct Handoff {
  explicit Handoff(size_t window) : ready(window, 0), status(window) {}

  std::mutex mu;
  std::condition_variable produced;  // The consumer waits here.
  std::condition_variable freed;     // Idle workers wait here.
  size_t next = 0;
  size_t consumed = 0;
  bool stop = false;
  std::vector<char> ready;
  std::vector<Status> status;
};

void Produce(Handoff& h, size_t count, size_t window,
             const PipelineStage& produce) {
  for (;;) {
    size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(h.mu);
      h.freed.wait(lock, [&] {
        return h.stop || h.next >= count || h.next < h.consumed + window;
      });
      if (h.stop || h.next >= count) return;
      index = h.next++;
    }
    const size_t slot = index % window;
    Status s = produce(index, slot);
    {
      std::lock_guard<std::mutex> lock(h.mu);
      h.status[slot] = std::move(s);
      h.ready[slot] = 1;
    }
    h.produced.notify_one();
  }
}

}  // namespace

Status RunOrdered(ThreadPool& pool, size_t count, size_t window,
                  const PipelineStage& produce, const PipelineStage& consume) {
  if (window == 0) return Status::InvalidArgument("pipeline window is 0");
  if (pool.jobs() <= 1) {
    for (size_t i = 0; i < count; ++i) {
      const size_t slot = i % window;
      if (Status s = produce(i, slot); !s.ok()) return s;
      if (Status s = consume(i, slot); !s.ok()) return s;
    }
    return Status::OK();
  }

  Handoff h(window);
  for (int w = 0; w < pool.jobs(); ++w) {
    pool.Submit([&] { Produce(h, count, window, produce); });
  }
  Status result;
  for (size_t i = 0; i < count && result.ok(); ++i) {
    const size_t slot = i % window;
    {
      std::unique_lock<std::mutex> lock(h.mu);
      h.produced.wait(lock, [&] { return h.ready[slot] != 0; });
      result = std::move(h.status[slot]);
    }
    if (result.ok()) result = consume(i, slot);
    {
      std::lock_guard<std::mutex> lock(h.mu);
      h.ready[slot] = 0;
      ++h.consumed;
    }
    h.freed.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(h.mu);
    h.stop = true;
  }
  h.freed.notify_all();
  pool.Wait();
  return result;
}

}  // namespace lossyts

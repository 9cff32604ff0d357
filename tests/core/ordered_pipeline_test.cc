// The ordered pipeline (core/ordered_pipeline): in-order consumption, slot
// ownership, the bounded look-ahead, first-error-in-order and inline mode.

#include "core/ordered_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace lossyts {
namespace {

// "<what><index>", built by appending (GCC 12 misreads `"literal" +
// std::to_string(i)` as an overlapping memcpy under -Wrestrict).
std::string Tag(const char* what, size_t index) {
  std::string tag = what;
  tag += std::to_string(index);
  return tag;
}

TEST(OrderedPipelineTest, ConsumesEveryUnitInOrderFromItsOwnSlot) {
  constexpr size_t kCount = 500;
  constexpr size_t kWindow = 4;
  for (int jobs : {1, 2, 4}) {
    ThreadPool pool(jobs);
    std::vector<uint64_t> slots(kWindow, 0);
    std::vector<size_t> order;
    const Status s = RunOrdered(
        pool, kCount, kWindow,
        [&](size_t i, size_t slot) {
          EXPECT_EQ(slot, i % kWindow);
          slots[slot] = i * i + 1;
          return Status::OK();
        },
        [&](size_t i, size_t slot) {
          EXPECT_EQ(slots[slot], i * i + 1) << "jobs " << jobs;
          order.push_back(i);
          return Status::OK();
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(order.size(), kCount);
    for (size_t i = 0; i < kCount; ++i) ASSERT_EQ(order[i], i);
  }
}

TEST(OrderedPipelineTest, NeverProducesMoreThanTheWindowAhead) {
  constexpr size_t kCount = 200;
  constexpr size_t kWindow = 3;
  for (int jobs : {2, 4}) {
    ThreadPool pool(jobs);
    std::atomic<size_t> consumed{0};
    std::atomic<size_t> produced{0};
    std::atomic<size_t> max_ahead{0};
    std::atomic<bool> beyond{false};
    const Status s = RunOrdered(
        pool, kCount, kWindow,
        [&](size_t i, size_t) {
          // Unit i may start only once unit i - window has been consumed.
          if (i >= consumed.load() + kWindow) beyond = true;
          const size_t ahead = ++produced - consumed.load();
          size_t seen = max_ahead.load();
          while (ahead > seen &&
                 !max_ahead.compare_exchange_weak(seen, ahead)) {
          }
          return Status::OK();
        },
        [&](size_t, size_t) {
          // A slow consumer, so the producers run into the window.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          ++consumed;
          return Status::OK();
        });
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE(beyond.load()) << "jobs " << jobs;
    EXPECT_LE(max_ahead.load(), kWindow) << "jobs " << jobs;
    EXPECT_EQ(produced.load(), kCount);
  }
}

TEST(OrderedPipelineTest, FirstFailureInUnitOrderWins) {
  struct Scenario {
    size_t produce_fails[2];
    size_t consume_fails;
    std::string want;
  };
  const Scenario scenarios[] = {
      {{30, 50}, 40, "Internal: produce 30"},
      {{50, 60}, 40, "Internal: consume 40"},
      {{20, 90}, 20, "Internal: produce 20"},  // Produce before consume.
  };
  for (int jobs : {1, 2, 4}) {
    for (const Scenario& sc : scenarios) {
      ThreadPool pool(jobs);
      std::atomic<size_t> consumed_past{0};
      const Status s = RunOrdered(
          pool, 100, 8,
          [&](size_t i, size_t) {
            // Late failures first, so an out-of-order pipeline would see
            // them before the early one.
            if (i == sc.produce_fails[0]) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            if (i == sc.produce_fails[0] || i == sc.produce_fails[1]) {
              return Status::Internal(Tag("produce ", i));
            }
            return Status::OK();
          },
          [&](size_t i, size_t) {
            if (i > sc.consume_fails || i > sc.produce_fails[0]) {
              ++consumed_past;
            }
            if (i == sc.consume_fails) {
              return Status::Internal(Tag("consume ", i));
            }
            return Status::OK();
          });
      EXPECT_EQ(s.ToString(), sc.want) << "jobs " << jobs;
      EXPECT_EQ(consumed_past.load(), 0u) << "jobs " << jobs;
    }
  }
}

TEST(OrderedPipelineTest, InlineModeAlternatesOnTheCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> trace;
  const Status s = RunOrdered(
      pool, 3, 2,
      [&](size_t i, size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        trace.push_back(Tag("p", i));
        return Status::OK();
      },
      [&](size_t i, size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        trace.push_back(Tag("c", i));
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  const std::vector<std::string> want = {"p0", "c0", "p1", "c1", "p2", "c2"};
  EXPECT_EQ(trace, want);
}

TEST(OrderedPipelineTest, EmptyRunAndZeroWindow) {
  ThreadPool pool(2);
  int calls = 0;
  const auto count_call = [&](size_t, size_t) {
    ++calls;
    return Status::OK();
  };
  EXPECT_TRUE(RunOrdered(pool, 0, 4, count_call, count_call).ok());
  EXPECT_EQ(RunOrdered(pool, 5, 0, count_call, count_call).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace lossyts

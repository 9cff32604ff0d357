#ifndef LOSSYTS_CORE_ORDERED_PIPELINE_H_
#define LOSSYTS_CORE_ORDERED_PIPELINE_H_

#include <cstddef>
#include <functional>

#include "core/status.h"
#include "core/thread_pool.h"

namespace lossyts {

/// One stage of RunOrdered, called with a unit's index and slot.
using PipelineStage = std::function<Status(size_t index, size_t slot)>;

/// Runs units 0..count-1 through two stages: `produce` on the pool's
/// workers, at most `window` units ahead of the consumer, and `consume` on
/// the calling thread, strictly in index order.
///
/// Unit i owns slot i % window. produce(i, slot) starts only after
/// consume(i - window, slot) has returned, and consume(i, slot) only after
/// produce(i, slot) has, so a caller may keep one buffer per slot and touch
/// it without locks. So at most `window` produced units wait at any time,
/// whatever `count` is.
///
/// The first failure in unit order wins: a failed produce(i) or consume(i)
/// ends the run with that status, produce's before consume's. Units past it
/// may have been produced but are never consumed.
///
/// With pool.jobs() == 1 (inline mode) the calling thread runs produce(i)
/// then consume(i), unit by unit. Must not be called from one of `pool`'s
/// own tasks. `window` must be at least 1.
Status RunOrdered(ThreadPool& pool, size_t count, size_t window,
                  const PipelineStage& produce, const PipelineStage& consume);

}  // namespace lossyts

#endif  // LOSSYTS_CORE_ORDERED_PIPELINE_H_

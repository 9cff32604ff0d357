#ifndef LOSSYTS_TESTS_ORACLES_WALK_H_
#define LOSSYTS_TESTS_ORACLES_WALK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/time_series.h"

namespace lossyts::oracles {

/// Seeded Gaussian random walk of `n` points from 100 at a 60 s interval
/// (seed 42, step sigma 0.1): the fixed input of the Gorilla/Chimp reference
/// and LFZIP/CAMEO floor tests and of bench/speed_floors.
inline TimeSeries RandomWalk(size_t n) {
  Rng rng(42);
  std::vector<double> v(n);
  double x = 100.0;
  for (auto& val : v) {
    x += 0.1 * rng.Normal();
    val = x;
  }
  return TimeSeries(0, 60, std::move(v));
}

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_WALK_H_

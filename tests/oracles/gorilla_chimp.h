#ifndef LOSSYTS_TESTS_ORACLES_GORILLA_CHIMP_H_
#define LOSSYTS_TESTS_ORACLES_GORILLA_CHIMP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time_series.h"

namespace lossyts::oracles {

// Bit-at-a-time coders for the Gorilla and Chimp payload formats, written on
// ReferenceBitWriter/ReferenceBitReader: the shape the production coders had
// before the batched 64-bit streams and the one-pass XOR-delta kernel. They
// are the only independent oracles for those two wire formats. An encoder
// returns the payload alone (no header, no size prefix); a decoder reads
// `count` values from one.

std::vector<uint8_t> ReferenceGorillaEncode(const TimeSeries& series);
std::vector<double> ReferenceGorillaDecode(const std::vector<uint8_t>& payload,
                                           size_t count);
std::vector<uint8_t> ReferenceChimpEncode(const TimeSeries& series);
std::vector<double> ReferenceChimpDecode(const std::vector<uint8_t>& payload,
                                         size_t count);

}  // namespace lossyts::oracles

#endif  // LOSSYTS_TESTS_ORACLES_GORILLA_CHIMP_H_

// Small bit-manipulation helpers shared by the packed-array and entropy
// coding layers.
#pragma once

#include <bit>

#include "util/check.hpp"
#include "util/common.hpp"

namespace gcm {

/// Number of bits needed to store `value`: 1 + floor(log2(value)), and 1 for
/// value == 0. This matches the paper's packed-array width rule
/// w = 1 + floor(log2(N_max)).
inline u32 BitWidth(u64 value) {
  return value == 0 ? 1 : static_cast<u32>(std::bit_width(value));
}

/// floor(log2(value)) for value > 0.
inline u32 FloorLog2(u64 value) {
  GCM_DCHECK(value > 0);
  return static_cast<u32>(std::bit_width(value)) - 1;
}

/// Mask with the low `bits` bits set. bits must be in [0, 64].
inline u64 LowMask(u32 bits) {
  return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/// Ceiling division for positive integers.
inline u64 CeilDiv(u64 a, u64 b) {
  GCM_DCHECK(b > 0);
  return (a + b - 1) / b;
}

}  // namespace gcm

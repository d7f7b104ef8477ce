// Portable scalar reference loops shared by every SIMD backend.
//
// These are the semantics of the facade: the scalar backend forwards to them
// directly, and the AVX2 backend must produce bitwise-identical results
// (it uses them for loop tails and for the runtime ScopedForceScalar
// override, and the simd_test suite pins each vector primitive against
// these loops element-for-element). Keep the arithmetic ones boring -- no
// clever reassociation, one operation per element in index order. Crc32
// is exempt: GF(2) arithmetic gives the same bits in any evaluation order,
// so its reference may consume 8 bytes per step.
#pragma once

#include <array>
#include <cstddef>

#include "util/common.hpp"

namespace gcm::simd_portable {

/// Reflected CRC-32 polynomial (IEEE 802.3, zlib, PNG).
inline constexpr u32 kCrc32Poly = 0xedb88320u;

namespace detail {
/// Slicing-by-8 tables: table[0] is the bytewise table, and table[k][b] is
/// the CRC state after byte b followed by k zero bytes.
constexpr std::array<std::array<u32, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<u32, 256>, 8> table{};
  for (u32 b = 0; b < 256; ++b) {
    u32 crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kCrc32Poly : 0);
    }
    table[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      u32 prev = table[k - 1][b];
      table[k][b] = (prev >> 8) ^ table[0][prev & 0xff];
    }
  }
  return table;
}
inline constexpr std::array<std::array<u32, 256>, 8> kCrc32Tables =
    MakeCrc32Tables();
}  // namespace detail

/// CRC-32 (reflected 0xEDB88320) of p[0, n), chained from `seed` (0 to
/// start, or a previous result to continue). Slicing-by-8: eight table
/// lookups per 8-byte word, bytewise for the last n % 8 bytes. Words are
/// assembled from bytes, so the result does not depend on host byte order.
inline u32 Crc32(const u8* p, std::size_t n, u32 seed) {
  const auto& t = detail::kCrc32Tables;
  u32 crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    u32 lo = crc ^ (u32{p[0]} | u32{p[1]} << 8 | u32{p[2]} << 16 |
                    u32{p[3]} << 24);
    u32 hi = u32{p[4]} | u32{p[5]} << 8 | u32{p[6]} << 16 | u32{p[7]} << 24;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return ~crc;
}

/// out[i] += a[i] for i in [0, n).
inline void Add(double* out, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a[i];
}

/// out[i] += v * x[i] for i in [0, n). Separate multiply and add -- the
/// vector backends mirror this with distinct mul/add instructions so no
/// build can fuse (FMA would change the rounding and break cross-build
/// bitwise equality).
inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += v * x[i];
}

/// True when any element differs from +0.0/-0.0. NaN compares unequal to
/// zero, so a NaN counts as nonzero -- vector backends must match that.
inline bool AnyNonZero(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0) return true;
  }
  return false;
}

}  // namespace gcm::simd_portable

namespace gcm::simd {
/// Name of the compiled-in backend ("avx2" or "scalar"); defined in
/// simd.cpp against whichever backend header the facade selected.
const char* BackendName();
}  // namespace gcm::simd

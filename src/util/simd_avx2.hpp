// AVX2 SIMD backend: 4-wide double lanes and a PCLMULQDQ folding CRC-32.
//
// Selected by the facade (util/simd.hpp) when GCM_SIMD_AVX2 is defined.
// Do not include this header directly; include "util/simd.hpp". The build
// compiles it with -mavx2 -mpclmul (cmake/SimdConfig.cmake requires both).
//
// Bitwise contract with the scalar backend:
//   * Every primitive is elementwise (no horizontal reduction), so lane i
//     performs exactly the operations the portable loop performs on
//     element i, in the same order.
//   * Axpy uses separate _mm256_mul_pd + _mm256_add_pd, never a fused
//     multiply-add, and the build compiles with -mavx2 but NOT -mfma, so
//     the compiler cannot contract the pair either. AVX2 and scalar
//     builds therefore produce bitwise-identical doubles.
//   * Loop tails (n % 4) fall through to the portable reference loops.
//   * Crc32 is GF(2) polynomial arithmetic, which is exact, so the folding
//     kernel returns the portable slicing-by-8 value for every input.
//
// ScopedForceScalar flips a process-wide counter that routes every
// primitive to the portable loops at runtime; the simd_test conformance
// leg uses it to diff vectorized vs scalar kernel output within one build.
#pragma once

#include <immintrin.h>

#include <atomic>
#include <cstddef>

#include "util/common.hpp"
#include "util/simd_portable.hpp"

namespace gcm::simd {

inline constexpr const char* kBackendName = "avx2";

namespace detail {
/// >0 while any ScopedForceScalar is alive (counter, so guards nest).
/// Relaxed ordering is enough: the flag only gates which arithmetic
/// routine runs, and tests create/destroy guards on one thread.
extern std::atomic<int> g_force_scalar;
inline bool ForcedScalar() {
  return g_force_scalar.load(std::memory_order_relaxed) != 0;
}
}  // namespace detail

/// While alive, every facade primitive runs the portable scalar loop.
class ScopedForceScalar {
 public:
  ScopedForceScalar() {
    detail::g_force_scalar.fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedForceScalar() {
    detail::g_force_scalar.fetch_sub(1, std::memory_order_relaxed);
  }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

/// Whether the next primitive call will use the vector unit.
inline bool VectorActive() { return !detail::ForcedScalar(); }

/// out[i] += a[i] for i in [0, n).
inline void Add(double* out, const double* a, std::size_t n) {
  if (detail::ForcedScalar()) {
    simd_portable::Add(out, a, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(out + i);
    __m256d add = _mm256_loadu_pd(a + i);
    _mm256_storeu_pd(out + i, _mm256_add_pd(acc, add));
  }
  simd_portable::Add(out + i, a + i, n - i);
}

/// out[i] += v * x[i] for i in [0, n). Mul and add stay separate ops --
/// see the bitwise contract above.
inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  if (detail::ForcedScalar()) {
    simd_portable::Axpy(out, v, x, n);
    return;
  }
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d prod = _mm256_mul_pd(vv, _mm256_loadu_pd(x + i));
    __m256d acc = _mm256_add_pd(_mm256_loadu_pd(out + i), prod);
    _mm256_storeu_pd(out + i, acc);
  }
  simd_portable::Axpy(out + i, v, x + i, n - i);
}

/// True when any element differs from zero. _CMP_NEQ_UQ is
/// unordered-or-not-equal, so NaN lanes report nonzero exactly like the
/// portable `p[i] != 0.0`.
inline bool AnyNonZero(const double* p, std::size_t n) {
  if (detail::ForcedScalar()) {
    return simd_portable::AnyNonZero(p, n);
  }
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d neq = _mm256_cmp_pd(_mm256_loadu_pd(p + i), zero, _CMP_NEQ_UQ);
    if (_mm256_movemask_pd(neq) != 0) return true;
  }
  return simd_portable::AnyNonZero(p + i, n - i);
}

/// Prefetch the cache line holding `p` into all cache levels.
inline void Prefetch(const void* p) {
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

namespace detail {
/// Folds p[0, n) into the raw (uninverted) CRC-32 register `state` with
/// PCLMULQDQ and returns the new raw state; n >= 64 and n % 16 == 0.
/// Four 128-bit lanes each fold 64 bytes ahead per step, then fold into
/// one lane, then to 64 and 32 bits with a Barrett reduction. The
/// constants are the bit-reflected x^k mod P values and the Barrett pair
/// for P = 0x104C11DB7 from Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
inline u32 Crc32Fold(const u8* p, std::size_t n, u32 state) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  auto load = [](const u8* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // Carry-less x.hi * k.hi ^ x.lo * k.lo ^ next: moves the 128 bits of x
  // forward by the distance k encodes and adds them onto `next`.
  auto fold = [](__m128i x, __m128i k, __m128i next) {
    __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction to the 32-bit remainder.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<u32>(_mm_extract_epi32(x1, 1));
}
}  // namespace detail

/// CRC-32 (reflected 0xEDB88320) of p[0, n), chained from `seed`, equal
/// to simd_portable::Crc32. From 64 bytes on, the largest multiple of 16
/// is folded with carry-less multiplies; the last n % 16 bytes (and every
/// shorter buffer) go through the portable slicing-by-8 loop.
inline u32 Crc32(const u8* p, std::size_t n, u32 seed) {
  if (detail::ForcedScalar() || n < 64) {
    return simd_portable::Crc32(p, n, seed);
  }
  const std::size_t folded = n & ~std::size_t{15};
  const u32 crc = ~detail::Crc32Fold(p, folded, ~seed);
  return simd_portable::Crc32(p + folded, n - folded, crc);
}

}  // namespace gcm::simd

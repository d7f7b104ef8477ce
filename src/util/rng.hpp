// Deterministic pseudo-random number generation (xoshiro256**).
//
// All synthetic dataset generators and property tests use this generator so
// that every run of the test suite and benchmark harness sees identical
// inputs. The standard <random> engines are avoided for raw generation
// because their distributions are not guaranteed to be reproducible across
// standard-library implementations.
#pragma once

#include <cstdint>

#include "util/check.hpp"
#include "util/common.hpp"

namespace gcm {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, rewritten). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seed via splitmix64 so any 64-bit value yields a good state.
  void Seed(u64 seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      u64 z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  u64 Next() {
    const u64 result = Rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  u64 Below(u64 bound) {
    GCM_DCHECK(bound > 0);
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible for
    // the bounds used in this project (< 2^40) but we keep a rejection loop
    // for exactness.
    u64 threshold = (0 - bound) % bound;
    for (;;) {
      u64 r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  i64 Range(i64 lo, i64 hi) {
    GCM_DCHECK(lo <= hi);
    return lo + static_cast<i64>(Below(static_cast<u64>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool Chance(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller (no cached spare: keeps state simple).
  double NextGaussian();

  /// Geometric-ish skewed index in [0, n): probability mass decays by
  /// `decay` per rank. Used to draw values from Zipf-like dictionaries.
  u64 SkewedBelow(u64 n, double decay);

 private:
  static u64 Rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  u64 state_[4];
};

}  // namespace gcm

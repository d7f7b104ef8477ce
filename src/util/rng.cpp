#include "util/rng.hpp"

#include <cmath>

namespace gcm {

double Rng::NextGaussian() {
  // Box-Muller transform; draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

u64 Rng::SkewedBelow(u64 n, double decay) {
  GCM_CHECK_MSG(n > 0, "SkewedBelow needs a nonempty range");
  GCM_CHECK_MSG(decay > 0.0 && decay < 1.0,
                "SkewedBelow decay " << decay << " outside (0, 1)");
  // Draw from a truncated geometric distribution: P(k) ~ decay^k.
  // Inverse-CDF sampling: k = floor(log(1 - u*(1-decay^n)) / log(decay)).
  double u = NextDouble();
  double decay_n = std::pow(decay, static_cast<double>(n));
  double k = std::log(1.0 - u * (1.0 - decay_n)) / std::log(decay);
  u64 idx = static_cast<u64>(k);
  return idx >= n ? n - 1 : idx;
}

}  // namespace gcm

// Deterministic pseudo-random generator (xoshiro256** seeded by splitmix64).
//
// All randomized generators in scol take an explicit Rng so that every
// experiment and test is reproducible from a seed.
#pragma once

#include <cstdint>

#include "scol/util/check.h"

namespace scol {

/// A bound for Rng::below with its rejection threshold and round-up
/// multiplier M = floor((2^128 - 1) / bound) + 1 precomputed, so that a
/// draw takes r % bound as the high word of (M * r mod 2^128) * bound and
/// needs no divide (Lemire, Kaser and Kurz, "Faster remainder by direct
/// computation"; exact for every 64-bit r and bound). For bound 1 the
/// multiplier wraps to 0, which gives the right remainder, 0.
class Divisor {
 public:
  explicit Divisor(std::uint64_t bound) : bound_(bound) {
    SCOL_CHECK(bound > 0);
    threshold_ = -bound % bound;
    multiplier_ = ~static_cast<unsigned __int128>(0) / bound + 1;
  }

  std::uint64_t bound() const { return bound_; }
  /// Draws below this are rejected, as in Rng::below(bound).
  std::uint64_t threshold() const { return threshold_; }

  /// r % bound.
  std::uint64_t mod(std::uint64_t r) const {
    const unsigned __int128 low = multiplier_ * r;
    const auto lo = static_cast<std::uint64_t>(low);
    const auto hi = static_cast<std::uint64_t>(low >> 64);
    const unsigned __int128 top = static_cast<unsigned __int128>(hi) * bound_;
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(lo) * bound_) >> 64;
    return static_cast<std::uint64_t>((top + bottom) >> 64);
  }

 private:
  std::uint64_t bound_ = 0;
  std::uint64_t threshold_ = 0;
  unsigned __int128 multiplier_ = 0;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // splitmix64 to spread the seed over the full state.
    std::uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      si = mix64(x);
    }
  }

  /// Deterministic decorrelated stream: the generator for (seed, stream_id)
  /// depends only on those two values. LOCAL-engine programs draw one
  /// stream per (vertex, round), which makes randomness independent of
  /// vertex visitation order — parallel runs are bit-identical to serial.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(mix64(seed) ^ mix64(~stream_id));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    SCOL_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// below(d.bound()), drawing the same values and leaving the same state,
  /// without a divide.
  std::uint64_t below(const Divisor& d) {
    for (;;) {
      const std::uint64_t r = next();
      if (r >= d.threshold()) return d.mod(r);
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    SCOL_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  bool chance(double p) { return real() < p; }

  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  // splitmix64 finalizer.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace scol

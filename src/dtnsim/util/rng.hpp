// Deterministic random number generation.
//
// xoshiro256** with splitmix64 seeding. Every simulation run owns one Rng;
// repeated runs of the same test use jump()-separated substreams so that the
// per-repeat variance (the paper's stddev whiskers) is reproducible.
//
// The draws the fluid engine makes every round are defined here so they
// inline into the round.
#pragma once

#include <cmath>
#include <cstdint>

namespace dtnsim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
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

  // Uniform double in [0, 1): the 53 top bits.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (hi <= lo) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }
  // true with probability p.
  bool bernoulli(double p) { return uniform01() < p; }
  // Normal(mean, stddev) via Box-Muller (cached spare).
  double normal(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    has_spare_ = true;
    return mean + stddev * u * mul;
  }
  // Lognormal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma`.
  double lognormal(double median, double sigma) {
    return median * std::exp(normal(0.0, sigma));
  }

  // Advance 2^128 steps: yields a non-overlapping substream. Returns a copy
  // positioned at the new substream and leaves *this untouched.
  [[nodiscard]] Rng substream(unsigned n) const;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  void jump();

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace dtnsim

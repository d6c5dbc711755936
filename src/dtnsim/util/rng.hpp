// Deterministic random number generation.
//
// xoshiro256** with splitmix64 seeding. Every simulation run owns one Rng;
// repeated runs of the same test use jump()-separated substreams so that the
// per-repeat variance (the paper's stddev whiskers) is reproducible.
#pragma once

#include <cstdint>

namespace dtnsim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform01();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // true with probability p.
  bool bernoulli(double p);
  // Normal(mean, stddev) via Box-Muller (cached spare).
  double normal(double mean, double stddev);
  // Lognormal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma`.
  double lognormal(double median, double sigma);

  // Advance 2^128 steps: yields a non-overlapping substream. Returns a copy
  // positioned at the new substream and leaves *this untouched.
  [[nodiscard]] Rng substream(unsigned n) const;

 private:
  void jump();

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace dtnsim

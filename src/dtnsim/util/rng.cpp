#include "dtnsim/util/rng.hpp"

#include <cmath>

namespace dtnsim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
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

double Rng::uniform01() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::normal(double mean, double stddev) {
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

double Rng::lognormal(double median, double sigma) {
  return median * std::exp(normal(0.0, sigma));
}

void Rng::jump() {
  static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  std::uint64_t t[4] = {0, 0, 0, 0};
  for (std::uint64_t j : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (j & (1ULL << b)) {
        t[0] ^= s_[0];
        t[1] ^= s_[1];
        t[2] ^= s_[2];
        t[3] ^= s_[3];
      }
      next();
    }
  }
  s_[0] = t[0];
  s_[1] = t[1];
  s_[2] = t[2];
  s_[3] = t[3];
}

Rng Rng::substream(unsigned n) const {
  Rng copy = *this;
  copy.has_spare_ = false;
  for (unsigned i = 0; i <= n; ++i) copy.jump();
  return copy;
}

}  // namespace dtnsim

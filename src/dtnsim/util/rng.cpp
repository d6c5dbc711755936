#include "dtnsim/util/rng.hpp"

namespace dtnsim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
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

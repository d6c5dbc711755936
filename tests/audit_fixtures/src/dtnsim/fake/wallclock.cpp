// Fixture: determinism (steady_clock::now() and rand() in library code).
#include <chrono>
#include <cstdlib>

namespace dtnsim::fake {

double jitter_seed() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<double>(t % 1000) + static_cast<double>(rand() % 7);
}

}  // namespace dtnsim::fake

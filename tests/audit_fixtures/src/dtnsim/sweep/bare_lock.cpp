// Fixture: mutex-guard (bare lock()/unlock() in sweep/ code).
#include <mutex>

namespace dtnsim::sweep_fake {

std::mutex mu;
int counter = 0;

void bump() {
  mu.lock();
  ++counter;
  mu.unlock();
}

}  // namespace dtnsim::sweep_fake

#include "dtnsim/sim/engine.hpp"

#include <algorithm>

#include "dtnsim/util/log.hpp"

namespace dtnsim::sim {

void Engine::run() {
  // Log lines emitted from event callbacks carry the simulated clock so
  // they line up with probe samples and trace timestamps.
  log::ScopedTimeSource clock([this] { return now_; });
  Nanos t = 0;
  while (auto fn = queue_.pop(&t)) {
    now_ = t;
    ++executed_;
    fn();
  }
}

void Engine::run_until(Nanos until) {
  log::ScopedTimeSource clock([this] { return now_; });
  while (!queue_.empty() && queue_.next_time() <= until) {
    Nanos t = 0;
    auto fn = queue_.pop(&t);
    if (!fn) break;
    now_ = t;
    ++executed_;
    fn();
  }
  now_ = std::max(now_, until);
}

std::size_t Engine::step(std::size_t n) {
  std::size_t ran = 0;
  while (ran < n) {
    Nanos t = 0;
    auto fn = queue_.pop(&t);
    if (!fn) break;
    now_ = t;
    ++executed_;
    fn();
    ++ran;
  }
  return ran;
}

}  // namespace dtnsim::sim

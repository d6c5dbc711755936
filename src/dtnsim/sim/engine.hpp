// Discrete-event simulation engine.
//
// A single-threaded virtual-time executor: callbacks scheduled at absolute or
// relative nanosecond times run in deterministic order. All dtnsim models
// (TCP rounds, qdisc pacing, NIC drains, mpstat sampling) are driven from one
// Engine per simulation run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "dtnsim/sim/event_queue.hpp"
#include "dtnsim/units/units.hpp"

namespace dtnsim::sim {

class Engine {
 public:
  Nanos now() const { return now_; }
  std::size_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return queue_.size(); }

  // Schedule `fn` to run `delay` from now (clamped to >= 0). A callback
  // passed as a temporary (a lambda) is built once and moved into the queue.
  void schedule(Nanos delay, EventQueue::Callback fn) {
    queue_.push(now_ + std::max<Nanos>(delay, 0), std::move(fn));
  }
  // Schedule `fn` at absolute time `when` (clamped to >= now()).
  void schedule_at(Nanos when, EventQueue::Callback fn) {
    queue_.push(std::max(when, now_), std::move(fn));
  }

  // Run until the queue is empty.
  void run();
  // Run events with time <= until; leaves now() == until even if the queue
  // drained earlier (so follow-up scheduling is relative to the horizon).
  void run_until(Nanos until);
  // Execute at most `n` events; returns how many ran.
  std::size_t step(std::size_t n = 1);

 private:
  EventQueue queue_;
  Nanos now_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace dtnsim::sim

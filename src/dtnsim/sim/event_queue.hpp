// Event queue for the discrete-event engine.
//
// Events fire in (time, sequence) order: equal-time events run in the order
// they were scheduled, which keeps runs deterministic regardless of heap
// internals. The queue is a binary heap over a std::vector; callbacks are
// moved in on push and moved out on pop, never copied.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "dtnsim/units/units.hpp"

namespace dtnsim::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Moves `fn` into the heap. A push onto an empty queue (the fluid
  // engine's one pending round) does no heap work.
  void push(Nanos time, Callback&& fn) {
    heap_.emplace_back(time, next_seq_++, std::move(fn));
    if (heap_.size() > 1) std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest event; -1 when empty.
  Nanos next_time() const { return heap_.empty() ? -1 : heap_.front().time; }

  // Remove the earliest event and return its callback. Returns an empty
  // function if the queue is empty.
  Callback pop(Nanos* time_out);

 private:
  struct Entry {
    Nanos time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dtnsim::sim

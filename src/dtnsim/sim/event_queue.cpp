#include "dtnsim/sim/event_queue.hpp"

#include <algorithm>

namespace dtnsim::sim {

EventQueue::Callback EventQueue::pop(Nanos* time_out) {
  if (heap_.empty()) return {};
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry& top = heap_.back();
  if (time_out) *time_out = top.time;
  Callback fn = std::move(top.fn);
  heap_.pop_back();
  return fn;
}

}  // namespace dtnsim::sim

// Unit tests: discrete-event engine and event queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "dtnsim/sim/engine.hpp"

namespace dtnsim::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  Nanos t = 0;
  while (auto fn = q.pop(&t)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(100, [&order, i] { order.push_back(i); });
  Nanos t = 0;
  while (auto fn = q.pop(&t)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 1);
  Nanos t = 0;
  q.pop(&t);
  EXPECT_EQ(t, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 2);
  q.pop(&t);
  EXPECT_EQ(t, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), -1);
  EXPECT_FALSE(q.pop(&t));
}

TEST(EventQueue, PopOrderMatchesStableSort) {
  // 64k events over 512 distinct times: ~128 ties per time. The heap must
  // pop them exactly as a stable sort by time orders the push sequence.
  constexpr int kEvents = 1 << 16;
  std::vector<Nanos> times(kEvents);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& t : times) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t = static_cast<Nanos>(x % 512);
  }
  EventQueue q;
  std::vector<int> popped;
  popped.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) q.push(times[i], [&popped, i] { popped.push_back(i); });
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kEvents));

  std::vector<int> expected(kEvents);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return times[a] < times[b]; });

  Nanos t = 0, last = 0;
  while (auto fn = q.pop(&t)) {
    EXPECT_GE(t, last);
    last = t;
    fn();
  }
  EXPECT_EQ(popped, expected);
}

TEST(EventQueue, PopMovesNeverCopies) {
  struct Counted {
    int* copies;
    int* calls;
    Counted(int* c, int* n) : copies(c), calls(n) {}
    Counted(const Counted& o) : copies(o.copies), calls(o.calls) { ++*copies; }
    Counted(Counted&&) = default;
    void operator()() const { ++*calls; }
  };
  int copies = 0, calls = 0;
  EventQueue q;
  // Neighbours on both sides, so the heap moves the counted entry while
  // sifting on push and on every earlier pop.
  for (int i = 0; i < 64; ++i) q.push(2 * i, [] {});
  q.push(63, Counted(&copies, &calls));
  for (int i = 0; i < 64; ++i) q.push(2 * i + 1, [] {});
  Nanos t = 0;
  while (auto fn = q.pop(&t)) fn();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(copies, 0);
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine e;
  Nanos seen = -1;
  e.schedule(1000, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 1000);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, ScheduleAtAbsoluteTime) {
  Engine e;
  std::vector<Nanos> times;
  e.schedule_at(500, [&] { times.push_back(e.now()); });
  e.schedule_at(100, [&] { times.push_back(e.now()); });
  e.run();
  EXPECT_EQ(times, (std::vector<Nanos>{100, 500}));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  e.schedule(100, [&] {
    e.schedule(-50, [&] { EXPECT_EQ(e.now(), 100); });
  });
  e.run();
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(20, [&] { ++fired; });
  e.schedule(30, [&] { ++fired; });
  e.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 20);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenIdle) {
  Engine e;
  e.run_until(5000);
  EXPECT_EQ(e.now(), 5000);
}

TEST(Engine, SelfReschedulingChain) {
  Engine e;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) e.schedule(100, tick);
  };
  e.schedule(100, tick);
  e.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, StepExecutesBoundedCount) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) e.schedule(i + 1, [&] { ++fired; });
  EXPECT_EQ(e.step(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.step(10), 2u);
}

TEST(Engine, EventsScheduledInsideCallbacksRun) {
  Engine e;
  bool inner = false;
  e.schedule(10, [&] { e.schedule(10, [&] { inner = true; }); });
  e.run();
  EXPECT_TRUE(inner);
  EXPECT_EQ(e.now(), 20);
}

}  // namespace
}  // namespace dtnsim::sim

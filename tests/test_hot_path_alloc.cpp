// Hot-path allocation budget: an engine event, a fluid round (the copy path
// in 1-RTT rounds, zerocopy in 32-RTT rounds) and a packet-engine event
// allocate nothing. This binary replaces the global operator new to count
// calls; each test compares a short and a long run, so one-off set-up
// allocations cancel and only per-event or per-round ones remain.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/sim/engine.hpp"

namespace {
long g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dtnsim {
namespace {

template <class F>
long news_during(F&& fn) {
  const long before = g_news;
  fn();
  return g_news - before;
}

TEST(HotPath, EngineEventsAllocateNothing) {
  // A self-rescheduling event whose closure (two pointers) fits
  // std::function's local buffer, as the fluid round's [this] closure does.
  struct Tick {
    sim::Engine* engine;
    int* count;
    void operator()() const {
      if (++*count < 100000) engine->schedule(1000, *this);
    }
  };
  sim::Engine e;
  int count = 0;
  e.schedule(1000, Tick{&e, &count});
  EXPECT_EQ(news_during([&] { e.run(); }), 0);
  EXPECT_EQ(count, 100000);
}

struct FluidRun {
  long news = 0;          // allocations made by run(), construction excluded
  double zc_bytes = 0.0;  // bytes the run sent zerocopy
  std::uint64_t rounds = 0;
};

// An 8-flow LAN cell on `tb` with `opts`, run for `seconds`.
FluidRun fluid_run(const harness::Testbed& tb, const flow::FlowOptions& opts,
                   double seconds) {
  flow::TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.streams = 8;
  cfg.flow = opts;
  cfg.duration = units::SimTime::from_seconds(seconds);
  flow::TransferSimulation sim(cfg);
  FluidRun out;
  out.news = news_during([&] {
    const auto res = sim.run();
    out.zc_bytes = res.zc_bytes;
    out.rounds = res.rounds;
  });
  return out;
}

TEST(HotPath, FluidRoundsAllocateNothing) {
  // Table I's 8-flow LAN cell for 1 s and 4 s: 15k more rounds may only
  // grow the 1 s interval series (one vector growth per doubling). At this
  // seed its windows bind and the path drops, so every round spans 1 RTT.
  const auto tb = harness::esnet(kern::KernelVersion::V5_15);
  const FluidRun short_run = fluid_run(tb, {}, 1.0);
  const FluidRun long_run = fluid_run(tb, {}, 4.0);
  EXPECT_EQ(long_run.rounds - short_run.rounds, 15000u);
  EXPECT_LE(long_run.news - short_run.news, 4) << short_run.news << " vs " << long_run.news;
}

TEST(HotPath, ZerocopyRoundsAllocateNothing) {
  // fig10's 8-flow zerocopy cell paced at 20G: every round charges a chunk
  // per flow and ACKs release them, so each flow's in-flight queue must
  // reuse its storage once it reaches its high-water mark. The cell is
  // steady, so the 15k RTTs the long run adds take about 470 rounds of 32.
  const auto tb = harness::esnet(kern::KernelVersion::V6_8);
  flow::FlowOptions zc;
  zc.zerocopy = true;
  zc.fq_rate_bps = units::gbps(20);
  const FluidRun short_run = fluid_run(tb, zc, 1.0);
  const FluidRun long_run = fluid_run(tb, zc, 4.0);
  EXPECT_GT(short_run.zc_bytes, 0.0);
  EXPECT_GT(long_run.zc_bytes, 3.0 * short_run.zc_bytes);
  EXPECT_LT(long_run.rounds - short_run.rounds, 500u);
  EXPECT_LE(long_run.news - short_run.news, 4) << short_run.news << " vs " << long_run.news;
}

TEST(HotPath, PacketEventsAllocateNothing) {
  // Unpaced LAN trains for 10 ms and 40 ms: 4x the segments, NAPI polls and
  // GRO merges, each an event-queue event.
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  std::uint64_t segments[2] = {};
  const auto news = [&](double seconds, std::uint64_t& segs) {
    flow::PacketSimConfig c;
    c.sender = tb.sender;
    c.receiver = tb.receiver;
    c.path = tb.lan();
    c.window_bytes = 64e6;
    c.duration = units::SimTime::from_seconds(seconds);
    return news_during([&] { segs = flow::run_packet_sim(c).segments_sent; });
  };
  const long short_run = news(0.01, segments[0]);
  const long long_run = news(0.04, segments[1]);
  EXPECT_GT(segments[1], 3 * segments[0]);
  EXPECT_LE(long_run - short_run, 4) << short_run << " vs " << long_run;
}

}  // namespace
}  // namespace dtnsim

// Unit tests: fq qdisc, NIC RX model, path.
#include <gtest/gtest.h>

#include "dtnsim/net/nic.hpp"
#include "dtnsim/net/path.hpp"
#include "dtnsim/net/qdisc.hpp"

namespace dtnsim::net {
namespace {

// ---------- fq ----------

TEST(FqQdisc, PacedDeparturesSpacedByRate) {
  FqQdisc fq(100e9);
  fq.set_flow_rate(1, 10e9);  // 10 Gbps
  const double pkt = 9000.0;
  const Nanos gap_expected = static_cast<Nanos>(pkt * 8.0 / 10e9 * 1e9);  // 7.2 us
  Nanos prev = fq.enqueue(1, pkt, 0);
  for (int i = 1; i < 50; ++i) {
    const Nanos d = fq.enqueue(1, pkt, 0);
    EXPECT_EQ(d - prev, gap_expected);
    prev = d;
  }
}

TEST(FqQdisc, UnpacedGoesAtLineRate) {
  FqQdisc fq(100e9);
  const double pkt = 9000.0;
  const Nanos wire = static_cast<Nanos>(pkt * 8.0 / 100e9 * 1e9);  // 720 ns
  const Nanos d0 = fq.enqueue(7, pkt, 0);
  const Nanos d1 = fq.enqueue(7, pkt, 0);
  EXPECT_EQ(d0, 0);
  EXPECT_EQ(d1 - d0, wire);
}

TEST(FqQdisc, FlowsPacedIndependently) {
  // Each flow's inter-departure gap follows its own rate.
  auto gap_for = [](double rate_bps) {
    FqQdisc fq(100e9);
    fq.set_flow_rate(1, rate_bps);
    const Nanos d0 = fq.enqueue(1, 9000, 0);
    return fq.enqueue(1, 9000, 0) - d0;
  };
  EXPECT_GT(gap_for(1e9), gap_for(50e9) * 10);
}

TEST(FqQdisc, NoDeparturesInThePast) {
  FqQdisc fq(100e9);
  fq.set_flow_rate(1, 10e9);
  EXPECT_GE(fq.enqueue(1, 9000, 1000), 1000);
}

// ---------- NIC ----------

TEST(Nic, SpecsMatchTestbeds) {
  EXPECT_DOUBLE_EQ(connectx5_100g().line_rate_bps, 100e9);
  EXPECT_DOUBLE_EQ(connectx7_200g().line_rate_bps, 200e9);
  EXPECT_TRUE(connectx7_200g().hw_gro_capable);
  EXPECT_FALSE(connectx5_100g().hw_gro_capable);
}

TEST(Nic, PacedBelowDrainNoDrops) {
  NicRx rx(connectx5_100g(), 1024, 9000, false);
  RxArrival a;
  a.paced = true;
  a.bytes = 50e9 / 8 * 0.025;  // 50 Gbps over 25 ms
  const auto v = rx.process(a, 0.025, 0.025);
  EXPECT_DOUBLE_EQ(v.dropped_bytes, 0.0);
  EXPECT_DOUBLE_EQ(v.accepted_bytes, a.bytes);
}

TEST(Nic, PacedAboveDrainDrops) {
  NicRx rx(connectx5_100g(), 1024, 9000, false);
  RxArrival a;
  a.paced = true;
  a.bytes = 60e9 / 8 * 0.025;  // above the 52G smooth drain
  const auto v = rx.process(a, 0.025, 0.025);
  EXPECT_GT(v.dropped_bytes, 0.0);
}

TEST(Nic, UnpacedWanToleranceNearDrainBurst) {
  NicRx rx(connectx5_100g(), 1024, 9000, false);
  // 9.2 MB ring at 104 ms adds well under 1 Gbps of credit.
  EXPECT_NEAR(rx.unpaced_tolerable_bps(0.104) / 1e9, 42.4, 0.5);
}

TEST(Nic, UnpacedLanToleranceHuge) {
  NicRx rx(connectx5_100g(), 1024, 9000, false);
  // At LAN RTTs the ring absorbs whole windows: tolerance far above 55G.
  EXPECT_GT(rx.unpaced_tolerable_bps(0.0002), 75e9);
}

TEST(Nic, BiggerRingRaisesTolerance) {
  NicRx small(connectx7_200g(), 1024, 9000, false);
  NicRx big(connectx7_200g(), 8192, 9000, false);
  EXPECT_GT(big.unpaced_tolerable_bps(0.063), small.unpaced_tolerable_bps(0.063));
}

TEST(Nic, FlowControlPausesInsteadOfDropping) {
  NicRx rx(connectx5_100g(), 1024, 9000, true);
  RxArrival a;
  a.paced = true;
  a.bytes = 80e9 / 8 * 0.025;
  const auto v = rx.process(a, 0.025, 0.025);
  EXPECT_DOUBLE_EQ(v.dropped_bytes, 0.0);
  EXPECT_TRUE(v.pause_frames_sent);
  EXPECT_LT(v.accepted_bytes, a.bytes);
}

TEST(Nic, RingClampedToMax) {
  NicRx rx(connectx5_100g(), 1 << 20, 9000, false);
  EXPECT_DOUBLE_EQ(rx.ring_bytes(), 8192.0 * 9000.0);
}

// ---------- path ----------

TEST(Path, DeliversUnderCapacity) {
  PathSpec spec;
  spec.capacity_bps = 100e9;
  Path p(spec);
  Rng rng(1);
  const auto o = p.transit(units::Bytes(50e9 / 8 * 0.01), 0.01, false, 1.0, rng);
  EXPECT_DOUBLE_EQ(o.dropped_bytes, 0.0);
}

TEST(Path, UnpacedOverCapacityDropsShallow) {
  PathSpec spec;
  spec.capacity_bps = 80e9;
  Path p(spec);
  Rng rng(1);
  const double bytes = 120e9 / 8 * 0.01;
  const auto o = p.transit(units::Bytes(bytes), 0.01, false, 1.0, rng);
  EXPECT_GT(o.dropped_bytes, 0.0);
  EXPECT_LT(o.delivered_bytes, bytes);
}

TEST(Path, PacedOverCapacityQueuesCleanly) {
  PathSpec spec;
  spec.capacity_bps = 80e9;
  Path p(spec);
  Rng rng(1);
  const auto o = p.transit(units::Bytes(120e9 / 8 * 0.01), 0.01, true, 1.05, rng);
  EXPECT_DOUBLE_EQ(o.dropped_bytes, 0.0);
  EXPECT_NEAR(o.delivered_bytes, 80e9 / 8 * 0.01, 1.0);
}

TEST(Path, DeepBuffersLoseRarely) {
  PathSpec spec;
  spec.capacity_bps = 98.5e9;
  spec.deep_buffers = true;
  Path p(spec);
  Rng rng(3);
  int loss_ticks = 0;
  const double bytes = 120e9 / 8 * 0.063;
  for (int i = 0; i < 1000; ++i) {
    if (p.transit(units::Bytes(bytes), 0.063, true, 1.05, rng).dropped_bytes > 0) ++loss_ticks;
  }
  EXPECT_GT(loss_ticks, 0);
  EXPECT_LT(loss_ticks, 150);  // rare events, not per-tick certainty
}

TEST(Path, BurstToleranceCutsUnpacedTails) {
  PathSpec spec;
  spec.capacity_bps = 200e9;
  spec.burst_tolerance_bps = 135e9;
  Path p(spec);
  Rng rng(1);
  const auto o = p.transit(units::Bytes(160e9 / 8 * 0.063), 0.063, false, 1.0, rng);
  EXPECT_GT(o.dropped_bytes, 0.0);
}

TEST(Path, BackgroundTrafficReducesCapacity) {
  PathSpec spec;
  spec.capacity_bps = 80e9;
  spec.bg_traffic_bps = 16e9;
  spec.bg_burst_sigma = 0.35;
  Path p(spec);
  Rng rng(1);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) sum += p.available_capacity_bps(rng);
  EXPECT_LT(sum / 1000, 66e9);
  EXPECT_GT(sum / 1000, 55e9);
}

TEST(Path, StrayLossEventsFire) {
  PathSpec spec;
  spec.capacity_bps = 100e9;
  spec.stray_loss_events_per_sec = 0.25;
  Path p(spec);
  Rng rng(9);
  double dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    dropped += p.transit(units::Bytes(10e9 / 8 * 0.063), 0.063, true, 1.05, rng).dropped_bytes;
  }
  EXPECT_GT(dropped, 0.0);
}

}  // namespace
}  // namespace dtnsim::net

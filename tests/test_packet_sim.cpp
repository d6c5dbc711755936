// Packet-level simulation tests: microscopic validation of the fluid
// model's assumptions (pacing spacing, ring overruns, GRO geometry).
#include <gtest/gtest.h>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/harness/testbeds.hpp"

namespace dtnsim::flow {
namespace {

PacketSimConfig base_cfg() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_millis(20);
  return cfg;
}

TEST(PacketSim, PacedDeparturesEvenlySpaced) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  const auto r = run_packet_sim(cfg);
  // 64 KiB super-packets at 10 Gbps: one every 52.4 us, essentially exact.
  const double expected_gap = 65536.0 * 8.0 / 10e9 * 1e9;
  EXPECT_NEAR(r.interdeparture_mean_ns, expected_gap, expected_gap * 0.02);
  EXPECT_LT(r.interdeparture_stddev_ns, expected_gap * 0.05);
}

TEST(PacketSim, UnpacedDeparturesAreTrains) {
  auto cfg = base_cfg();
  cfg.window_bytes = 4e6;
  const auto r = run_packet_sim(cfg);
  // Without pacing, spacing is set by sender CPU prep (about 30 us/skb
  // for the copy path), far below a 10G pacing gap, and bursty.
  EXPECT_LT(r.interdeparture_mean_ns, 40e3);
  EXPECT_GT(r.superpackets_sent, 100u);
}

TEST(PacketSim, AchievedRateMatchesPacing) {
  for (const double pace : {5.0, 10.0, 20.0}) {
    auto cfg = base_cfg();
    cfg.pacing_bps = units::gbps(pace);
    cfg.window_bytes = 256e6;
    const auto r = run_packet_sim(cfg);
    EXPECT_NEAR(units::to_gbps(r.achieved_bps), pace, pace * 0.12) << pace;
  }
}

TEST(PacketSim, WindowLimitsThroughputOnWan) {
  auto cfg = base_cfg();
  cfg.path = harness::amlight_wan(25);
  cfg.window_bytes = 4e6;                // 4 MB over 25 ms ~= 1.28 Gbps
  cfg.duration = units::SimTime::from_millis(500);     // >> RTT so edge effects wash out
  const auto r = run_packet_sim(cfg);
  EXPECT_NEAR(units::to_gbps(r.achieved_bps), 1.28, 0.2);
}

TEST(PacketSim, SlowDrainOverrunsRingOnlyWhenUnpaced) {
  // The receiver's cost model drains one 8960 B segment per ~1.3 us on this
  // testbed (~56 Gbps), well below the line rate. Offer a 64 MB window into
  // a 256-descriptor ring: paced below the drain, nothing overruns; unpaced,
  // the sender's line-rate trains do.
  auto paced = base_cfg();
  paced.zerocopy = true;  // keep the sender's prep time off the critical path
  paced.window_bytes = 64e6;
  paced.pacing_bps = units::gbps(30);  // below drain
  paced.receiver.tuning.ring_descriptors = 256;
  const auto ok = run_packet_sim(paced);
  EXPECT_EQ(ok.segments_dropped, 0u);

  auto unpaced = paced;
  unpaced.pacing_bps = 0.0;  // line-rate trains into the ~56 Gbps drain
  const auto bad = run_packet_sim(unpaced);
  EXPECT_GT(bad.segments_dropped, 0u);
  EXPECT_GE(bad.ring_peak, 256);
}

TEST(PacketSim, BiggerRingAbsorbsTrains) {
  // Each 8 MB window leaves as one line-rate train, faster than the
  // receiver drains it: 128 descriptors overflow where 8192 hold the train.
  auto cfg = base_cfg();
  cfg.zerocopy = true;
  cfg.window_bytes = 8e6;
  cfg.receiver.tuning.ring_descriptors = 128;
  const auto small = run_packet_sim(cfg);
  cfg.receiver.tuning.ring_descriptors = 8192;
  const auto big = run_packet_sim(cfg);
  EXPECT_LT(big.segments_dropped, small.segments_dropped);
}

TEST(PacketSim, GroBuildsExpectedAggregates) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  const auto r = run_packet_sim(cfg);
  ASSERT_GT(r.aggregates, 0u);
  // Aggregates near the 64 KiB GRO ceiling (8 x 8960 B segments).
  EXPECT_GT(r.mean_aggregate_bytes, 60e3);
  EXPECT_LT(r.mean_aggregate_bytes, 75e3);
}

TEST(PacketSim, BigTcpGrowsAggregates) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  for (auto* h : {&cfg.sender, &cfg.receiver}) {
    h->tuning.big_tcp_enabled = true;
    h->tuning.big_tcp_bytes = 150.0 * 1024;
  }
  const auto r = run_packet_sim(cfg);
  EXPECT_GT(r.mean_aggregate_bytes, 120e3);
}

TEST(PacketSim, ZerocopyShrinksTxPrepTime) {
  // A 256 MB window does not fill in 20 ms, so ACKs never gate the sender
  // and its per-skb preparation alone sets how many super-packets leave
  // (about 8.7 us per 64 KiB skb copying vs 4.1 us zerocopy on this host).
  auto copy_cfg = base_cfg();
  copy_cfg.window_bytes = 256e6;
  const auto copy = run_packet_sim(copy_cfg);
  auto zc_cfg = copy_cfg;
  zc_cfg.zerocopy = true;
  const auto zc = run_packet_sim(zc_cfg);
  // Cheaper per-skb prep -> more super-packets emitted in the same horizon.
  EXPECT_GT(zc.superpackets_sent, copy.superpackets_sent * 1.5);
}

TEST(PacketSim, ConservationSegments) {
  auto cfg = base_cfg();
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 16e6;
  const auto r = run_packet_sim(cfg);
  // Everything sent is delivered, dropped, or still in flight at the cut-off
  // (at most one window's worth plus the pending GRO aggregate).
  const double sent_bytes = static_cast<double>(r.superpackets_sent) * 65536.0;
  const double dropped_bytes = static_cast<double>(r.segments_dropped) * 8960.0;
  EXPECT_LE(r.delivered_bytes + dropped_bytes, sent_bytes + 1.0);
  EXPECT_GE(r.delivered_bytes + dropped_bytes,
            sent_bytes - cfg.window_bytes - 70e3);
}

}  // namespace
}  // namespace dtnsim::flow

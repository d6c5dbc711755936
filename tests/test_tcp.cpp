// Unit tests: congestion control (CUBIC, BBR, Reno) and RTT estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "dtnsim/tcp/bbr.hpp"
#include "dtnsim/tcp/cc.hpp"
#include "dtnsim/tcp/cubic.hpp"
#include "dtnsim/tcp/reno.hpp"
#include "dtnsim/tcp/rtt.hpp"

namespace dtnsim::tcp {
namespace {

constexpr double kMss = 8960.0;

TEST(Factory, MakesRequestedAlgorithm) {
  EXPECT_STREQ(make_congestion_control(kern::CongestionAlgo::Cubic, kMss)->name(), "cubic");
  EXPECT_STREQ(make_congestion_control(kern::CongestionAlgo::BbrV1, kMss)->name(), "bbr");
  EXPECT_STREQ(make_congestion_control(kern::CongestionAlgo::BbrV3, kMss)->name(), "bbr3");
  EXPECT_STREQ(make_congestion_control(kern::CongestionAlgo::Reno, kMss)->name(), "reno");
}

TEST(Cubic, StartsAtTenMss) {
  Cubic c(kMss);
  EXPECT_DOUBLE_EQ(c.cwnd_bytes(), 10 * kMss);
  EXPECT_TRUE(c.in_slow_start());
}

TEST(Cubic, SlowStartDoublesPerRtt) {
  Cubic c(kMss);
  const double before = c.cwnd_bytes();
  c.on_ack(0.1, before, 0.1);  // a full window ACKed in one RTT
  EXPECT_NEAR(c.cwnd_bytes(), 2 * before, 1.0);
}

TEST(Cubic, LossExitsSlowStartAndBacksOff) {
  Cubic c(kMss);
  for (int i = 0; i < 10; ++i) c.on_ack(i * 0.1, c.cwnd_bytes(), 0.1);
  const double peak = c.cwnd_bytes();
  c.on_loss(1.0, kMss * 100);
  EXPECT_FALSE(c.in_slow_start());
  EXPECT_NEAR(c.cwnd_bytes(), peak * Cubic::kBeta, peak * 0.01);
}

TEST(Cubic, ConcaveRecoveryTowardWmax) {
  Cubic c(kMss);
  // Get to congestion avoidance with a known w_max.
  for (int i = 0; i < 12; ++i) c.on_ack(i * 0.1, c.cwnd_bytes(), 0.1);
  c.on_loss(1.2, kMss);
  const double w_after_loss = c.cwnd_bytes();
  const double w_max = c.w_max_mss() * kMss;
  // Recovery: the window grows but plateaus near w_max (cubic inflection).
  double t = 1.3, w = w_after_loss;
  for (int i = 0; i < 200; ++i) {
    c.on_ack(t, w, 0.1);
    w = c.cwnd_bytes();
    t += 0.1;
  }
  EXPECT_GT(w, w_after_loss);
  EXPECT_GT(w, w_max * 0.95);
}

TEST(Cubic, FastConvergenceShrinksWmaxOnRepeatLoss) {
  Cubic c(kMss);
  for (int i = 0; i < 12; ++i) c.on_ack(i * 0.1, c.cwnd_bytes(), 0.1);
  c.on_loss(1.2, kMss);
  const double w_max1 = c.w_max_mss();
  c.on_loss(1.3, kMss);  // loss again while below previous w_max
  EXPECT_LT(c.w_max_mss(), w_max1);
}

TEST(Cubic, FloorAtTwoMss) {
  Cubic c(kMss);
  for (int i = 0; i < 50; ++i) c.on_loss(i * 0.01, kMss);
  EXPECT_GE(c.cwnd_bytes(), 2 * kMss);
}

TEST(Reno, AimdShape) {
  Reno r(kMss);
  for (int i = 0; i < 8; ++i) r.on_ack(i * 0.1, r.cwnd_bytes(), 0.1);
  const double peak = r.cwnd_bytes();
  r.on_loss(1.0, kMss);
  EXPECT_NEAR(r.cwnd_bytes(), peak / 2, 1.0);
  EXPECT_FALSE(r.in_slow_start());
  const double w = r.cwnd_bytes();
  r.on_ack(1.1, w, 0.1);  // one RTT of ACKs in CA: +1 MSS
  EXPECT_NEAR(r.cwnd_bytes() - w, kMss, kMss * 0.05);
}

TEST(Bbr, EstimatesBandwidthFromDeliveryRate) {
  Bbr b(Bbr::Version::V1, kMss);
  // Deliver 10 Gbps for a while.
  const double rate = 10e9;
  for (int i = 0; i < 30; ++i) b.on_ack(i * 0.01, rate / 8 * 0.01, 0.01);
  EXPECT_NEAR(b.btl_bw_bps(), rate, rate * 0.05);
  EXPECT_NEAR(b.min_rtt_sec(), 0.01, 1e-9);
}

TEST(Bbr, StartupExitsOnPlateau) {
  Bbr b(Bbr::Version::V1, kMss);
  for (int i = 0; i < 30; ++i) b.on_ack(i * 0.01, 10e9 / 8 * 0.01, 0.01);
  EXPECT_FALSE(b.in_slow_start());  // left STARTUP after bw stopped growing
}

TEST(Bbr, SelfPacedAndCwndIsGainTimesBdp) {
  Bbr b(Bbr::Version::V3, kMss);
  EXPECT_TRUE(b.self_paced());
  for (int i = 0; i < 30; ++i) b.on_ack(i * 0.01, 10e9 / 8 * 0.01, 0.01);
  const double bdp = b.btl_bw_bps() * b.min_rtt_sec() / 8.0;
  EXPECT_NEAR(b.cwnd_bytes(), 2.0 * bdp, bdp * 0.1);
  EXPECT_GT(b.pacing_rate_bps(), 0.0);
}

TEST(Bbr, V1IgnoresLossV3BacksOff) {
  Bbr v1(Bbr::Version::V1, kMss);
  Bbr v3(Bbr::Version::V3, kMss);
  for (auto* b : {&v1, &v3}) {
    for (int i = 0; i < 30; ++i) b->on_ack(i * 0.01, 10e9 / 8 * 0.01, 0.01);
  }
  const double bw1 = v1.btl_bw_bps(), bw3 = v3.btl_bw_bps();
  const double heavy_loss = 10e9 * 0.01;  // far above the 2% BDP threshold
  v1.on_loss(0.5, heavy_loss);
  v3.on_loss(0.5, heavy_loss);
  EXPECT_DOUBLE_EQ(v1.btl_bw_bps(), bw1);  // v1: loss-blind
  EXPECT_LT(v3.btl_bw_bps(), bw3);         // v3: backs off
}

TEST(Bbr, RampFasterThanCubic) {
  // Paper §IV-F: "BBRv1/BBRv3 both ramp up faster than CUBIC" on WAN.
  Bbr bbr(Bbr::Version::V1, kMss);
  Cubic cubic(kMss);
  const double rtt = 0.104;
  double t = 0;
  // Feed both the same ACK stream shape for 10 rounds.
  for (int i = 0; i < 10; ++i) {
    const double acked_bbr = bbr.cwnd_bytes();
    const double acked_cubic = cubic.cwnd_bytes();
    bbr.on_ack(t, acked_bbr, rtt);
    cubic.on_ack(t, acked_cubic, rtt);
    t += rtt;
  }
  EXPECT_GT(bbr.cwnd_bytes(), cubic.cwnd_bytes());
}

TEST(Rtt, SmoothedEstimate) {
  RttEstimator e;
  EXPECT_FALSE(e.has_sample());
  e.add_sample(0.1);
  EXPECT_DOUBLE_EQ(e.srtt_sec(), 0.1);
  for (int i = 0; i < 100; ++i) e.add_sample(0.2);
  EXPECT_NEAR(e.srtt_sec(), 0.2, 0.001);
  EXPECT_DOUBLE_EQ(e.min_rtt_sec(), 0.1);
}

TEST(Rtt, RtoFloored) {
  RttEstimator e;
  e.add_sample(0.001);
  EXPECT_GE(e.rto_sec(), 0.2);  // Linux 200 ms floor
  EXPECT_DOUBLE_EQ(RttEstimator{}.rto_sec(), 1.0);
}

TEST(Rtt, ConstantPathNeverGoesSubnormal) {
  // A constant path RTT: srtt converges onto it and rttvar decays toward 0.
  // It must reach exactly 0 without ever passing through a subnormal.
  RttEstimator e;
  for (int i = 0; i < 10000; ++i) {
    e.add_sample(200e-6);
    const int cls = std::fpclassify(e.rttvar_sec());
    ASSERT_TRUE(cls == FP_ZERO || cls == FP_NORMAL)
        << "sample " << i << ": rttvar " << e.rttvar_sec();
  }
  EXPECT_EQ(e.rttvar_sec(), 0.0);
  EXPECT_DOUBLE_EQ(e.srtt_sec(), 200e-6);
}

TEST(Rtt, IgnoresNonPositive) {
  RttEstimator e;
  e.add_sample(-1.0);
  e.add_sample(0.0);
  EXPECT_FALSE(e.has_sample());
}

}  // namespace
}  // namespace dtnsim::tcp

// Unit + property tests: MSG_ZEROCOPY optmem accounting (paper Fig. 9).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "dtnsim/kern/zc_socket.hpp"
#include "dtnsim/util/rng.hpp"

namespace dtnsim::kern {
namespace {

constexpr double kGso = 65536.0;

TEST(ZcSocket, FullZcWhenOptmemAmple) {
  ZcTxSocket s{units::Bytes(1048576.0)};
  const auto plan = s.plan_send(units::Bytes(10 * kGso), units::Bytes(kGso));
  EXPECT_DOUBLE_EQ(plan.zc_bytes, 10 * kGso);
  EXPECT_DOUBLE_EQ(plan.fallback_bytes, 0.0);
  EXPECT_DOUBLE_EQ(s.optmem_used(), 10 * kZcChargePerSuperPkt);
}

TEST(ZcSocket, FallbackWhenOptmemExhausted) {
  // Default optmem (20 KiB) covers 128 in-flight super-packets = 8 MiB.
  ZcTxSocket s{units::Bytes(20480.0)};
  const double window = 100e6;  // a WAN window
  const auto plan = s.plan_send(units::Bytes(window), units::Bytes(kGso));
  EXPECT_NEAR(plan.zc_bytes, 20480.0 / kZcChargePerSuperPkt * kGso, 1.0);
  EXPECT_NEAR(plan.fallback_bytes, window - plan.zc_bytes, 1.0);
  EXPECT_NEAR(s.optmem_available(), 0.0, 1e-6);
}

TEST(ZcSocket, AckReleasesChargesFifo) {
  ZcTxSocket s{units::Bytes(1048576.0)};
  s.plan_send(units::Bytes(2 * kGso), units::Bytes(kGso));  // two separate sends -> two chunks
  s.plan_send(units::Bytes(2 * kGso), units::Bytes(kGso));
  const double used = s.optmem_used();
  s.on_acked(units::Bytes(2 * kGso));
  EXPECT_NEAR(s.optmem_used(), used / 2, 1e-6);
  EXPECT_EQ(s.completions(), 1u);  // first chunk fully released
  s.on_acked(units::Bytes(2 * kGso));
  EXPECT_NEAR(s.optmem_used(), 0.0, 1e-6);
  EXPECT_EQ(s.completions(), 2u);
}

TEST(ZcSocket, PartialAckSplitsChunk) {
  ZcTxSocket s{units::Bytes(1048576.0)};
  s.plan_send(units::Bytes(kGso), units::Bytes(kGso));
  s.on_acked(units::Bytes(kGso / 4));
  EXPECT_NEAR(s.inflight_zc_bytes(), kGso * 0.75, 1.0);
  EXPECT_NEAR(s.optmem_used(), kZcChargePerSuperPkt * 0.75, 1e-6);
}

TEST(ZcSocket, RingReleasesFifoAcrossWrapAndGrowth) {
  // The in-flight chunks live in a ring that wraps and doubles. Bursts of
  // sends grow it, ACK runs move its head round, and a std::deque replaying
  // the same chunks must release them in the same order, charge for charge.
  ZcTxSocket s{units::Bytes(1e12)};
  struct Chunk {
    double bytes, charge;
  };
  std::deque<Chunk> ref;
  double ref_used = 0.0;
  std::uint64_t ref_completions = 0;
  Rng rng(7);
  for (int step = 0; step < 3000; ++step) {
    const int sends = (step / 40) % 2 == 0 ? 3 : 1;
    for (int i = 0; i < sends; ++i) {
      const auto plan = s.plan_send(units::Bytes(rng.uniform(1e3, 1e5)), units::Bytes(kGso));
      const double charge = plan.zc_bytes * (kZcChargePerSuperPkt / kGso);
      ref.push_back({plan.zc_bytes, charge});
      ref_used += charge;
    }
    double remaining = rng.uniform(0.0, 2.5e5);
    s.on_acked(units::Bytes(remaining));
    while (remaining > 0 && !ref.empty()) {
      Chunk& front = ref.front();
      if (front.bytes <= remaining + 1e-9) {
        remaining -= front.bytes;
        ref_used -= front.charge;
        ++ref_completions;
        ref.pop_front();
      } else {
        const double released = front.charge * (remaining / front.bytes);
        ref_used -= released;
        front.bytes -= remaining;
        front.charge -= released;
        remaining = 0;
      }
    }
    ref_used = std::max(ref_used, 0.0);
    ASSERT_EQ(s.completions(), ref_completions) << "step " << step;
    ASSERT_EQ(s.optmem_used(), ref_used) << "step " << step;
  }
  EXPECT_GT(ref_completions, 1000u);
}

TEST(ZcSocket, OverAckIsSafe) {
  ZcTxSocket s{units::Bytes(1048576.0)};
  s.plan_send(units::Bytes(kGso), units::Bytes(kGso));
  s.on_acked(units::Bytes(100 * kGso));  // ACK covers copied bytes too
  EXPECT_DOUBLE_EQ(s.optmem_used(), 0.0);
  EXPECT_DOUBLE_EQ(s.inflight_zc_bytes(), 0.0);
}

TEST(ZcSocket, PreviewDoesNotCharge) {
  ZcTxSocket s{units::Bytes(20480.0)};
  const auto p1 = s.preview_send(units::Bytes(100e6), units::Bytes(kGso));
  const auto p2 = s.preview_send(units::Bytes(100e6), units::Bytes(kGso));
  EXPECT_DOUBLE_EQ(p1.zc_bytes, p2.zc_bytes);
  EXPECT_DOUBLE_EQ(s.optmem_used(), 0.0);
  // Committing matches the preview.
  const auto real = s.plan_send(units::Bytes(100e6), units::Bytes(kGso));
  EXPECT_DOUBLE_EQ(real.zc_bytes, p1.zc_bytes);
}

TEST(ZcSocket, SteadyStateWindowEqualsOptmemDerivedLimit) {
  // One-RTT pipeline (as the transfer engine runs it): charge a round's
  // sends, then the round's ACKs release them. The sustained zerocopy bytes
  // per round converge to optmem_max / charge * gso — the Fig. 9 mechanism.
  ZcTxSocket s{units::Bytes(1048576.0)};
  const double round = 500e6;  // demand far above the limit
  double zc_round = 0;
  for (int i = 0; i < 20; ++i) {
    const auto plan = s.plan_send(units::Bytes(round), units::Bytes(kGso));
    zc_round = plan.zc_bytes;
    s.on_acked(units::Bytes(round));  // the whole round (zc + copied) is ACKed within an RTT
  }
  const double expected_window = 1048576.0 / kZcChargePerSuperPkt * kGso;  // ~429 MB
  EXPECT_NEAR(zc_round, expected_window, expected_window * 0.01);
  // The copied remainder is what the sender pays CPU for: Fig. 9's story.
  EXPECT_NEAR(s.total_fallback_bytes() / 20, round - expected_window,
              expected_window * 0.02);
}

TEST(ZcSocket, BiggerOptmemBiggerWindow) {
  for (const double optmem : {20480.0, 1048576.0, 3405376.0}) {
    ZcTxSocket s{units::Bytes(optmem)};
    const auto plan = s.plan_send(units::Bytes(2e9), units::Bytes(kGso));
    EXPECT_NEAR(plan.zc_bytes, optmem / kZcChargePerSuperPkt * kGso,
                plan.zc_bytes * 0.01 + 1.0);
  }
}

TEST(ZcSocket, ResetClearsState) {
  ZcTxSocket s{units::Bytes(1048576.0)};
  s.plan_send(units::Bytes(10 * kGso), units::Bytes(kGso));
  s.reset();
  EXPECT_DOUBLE_EQ(s.optmem_used(), 0.0);
  EXPECT_DOUBLE_EQ(s.inflight_zc_bytes(), 0.0);
}

TEST(ZcSocket, LifetimeCountersAccumulate) {
  ZcTxSocket s{units::Bytes(20480.0)};
  s.plan_send(units::Bytes(100e6), units::Bytes(kGso));
  EXPECT_GT(s.total_zc_bytes(), 0.0);
  EXPECT_GT(s.total_fallback_bytes(), 0.0);
  EXPECT_NEAR(s.total_zc_bytes() + s.total_fallback_bytes(), 100e6, 1.0);
}

// Property: under arbitrary interleavings of sends and acks, optmem never
// goes negative, never exceeds the limit, and accounting stays consistent.
TEST(ZcSocketProperty, RandomInterleavingsStayConsistent) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const double optmem = rng.uniform(4096.0, 4e6);
    ZcTxSocket s{units::Bytes(optmem)};
    double inflight = 0.0;
    for (int step = 0; step < 200; ++step) {
      if (rng.bernoulli(0.6)) {
        const double bytes = rng.uniform(1.0, 50e6);
        const auto plan = s.plan_send(units::Bytes(bytes), units::Bytes(kGso));
        EXPECT_NEAR(plan.zc_bytes + plan.fallback_bytes, bytes, 1e-6);
        inflight += plan.zc_bytes;
      } else {
        const double ack = rng.uniform(0.0, inflight * 1.5 + 1.0);
        s.on_acked(units::Bytes(ack));
        inflight = std::max(inflight - ack, 0.0);
      }
      EXPECT_GE(s.optmem_used(), -1e-6);
      EXPECT_LE(s.optmem_used(), optmem + 1e-6);
      EXPECT_NEAR(s.inflight_zc_bytes(), inflight, inflight * 1e-9 + 1e-3);
    }
  }
}

}  // namespace
}  // namespace dtnsim::kern

// Parameterized property tests: invariants that must hold across the whole
// configuration space, swept with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <tuple>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim {
namespace {

flow::TransferConfig base_config(const harness::Testbed& tb, const net::PathSpec& path) {
  flow::TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = path;
  cfg.duration = units::SimTime::from_seconds(8);
  cfg.seed = 17;
  return cfg;
}

// ---------------------------------------------------------------- sweep 1
// Across (testbed, path, streams, pacing, zerocopy): conservation and
// sanity invariants of a full transfer.

struct SweepParam {
  bool esnet;
  int path_index;
  int streams;
  double pace_gbps;
  bool zerocopy;
};

class TransferInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TransferInvariants, HoldsEverywhere) {
  const auto p = GetParam();
  const auto tb = p.esnet ? harness::esnet() : harness::amlight();
  ASSERT_LT(static_cast<std::size_t>(p.path_index), tb.paths.size());
  auto cfg = base_config(tb, tb.paths[static_cast<std::size_t>(p.path_index)]);
  cfg.streams = p.streams;
  cfg.flow.fq_rate_bps = units::gbps(p.pace_gbps);
  cfg.flow.zerocopy = p.zerocopy;
  const auto res = flow::run_transfer(cfg);

  // Throughput is positive and below the NIC line rate.
  EXPECT_GT(res.throughput_bps, 0.0);
  EXPECT_LE(res.throughput_bps, tb.sender.nic.line_rate_bps * 1.001);

  // Pacing is an upper bound per stream.
  if (p.pace_gbps > 0) {
    for (double f : res.per_flow_bps) {
      EXPECT_LE(units::to_gbps(f), p.pace_gbps * 1.02);
    }
  }

  // Per-flow rates sum to the total.
  double sum = 0;
  for (double f : res.per_flow_bps) sum += f;
  EXPECT_NEAR(sum, res.throughput_bps, res.throughput_bps * 1e-6 + 1.0);

  // Counters are non-negative and utilizations bounded.
  EXPECT_GE(res.retransmit_segments, 0.0);
  EXPECT_GE(res.dropped_bytes_nic, 0.0);
  EXPECT_GE(res.dropped_bytes_path, 0.0);
  EXPECT_LE(res.sender_cpu.app_util, 1.0 + 1e-9);
  EXPECT_LE(res.receiver_cpu.app_util, 1.0 + 1e-9);

  // Zerocopy accounting only reports bytes when requested.
  if (!p.zerocopy) {
    EXPECT_DOUBLE_EQ(res.zc_bytes, 0.0);
    EXPECT_DOUBLE_EQ(res.zc_fallback_bytes, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, TransferInvariants,
    ::testing::Values(
        SweepParam{false, 0, 1, 0, false}, SweepParam{false, 0, 1, 50, true},
        SweepParam{false, 1, 1, 0, false}, SweepParam{false, 1, 1, 50, true},
        SweepParam{false, 2, 1, 0, true}, SweepParam{false, 3, 8, 9, true},
        SweepParam{false, 3, 8, 0, false}, SweepParam{true, 0, 1, 0, false},
        SweepParam{true, 0, 8, 25, false}, SweepParam{true, 1, 8, 15, false},
        SweepParam{true, 1, 8, 0, true}, SweepParam{true, 1, 1, 40, true}));

// ---------------------------------------------------------------- sweep 2
// Pacing monotonicity: deeper per-flow pacing never yields more throughput,
// and the achieved rate never exceeds streams x pace.

class PacingMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(PacingMonotonic, ThroughputBoundedByPace) {
  const int streams = GetParam();
  const auto tb = harness::esnet();
  double prev = 1e18;
  for (const double pace : {25.0, 20.0, 15.0, 10.0, 5.0}) {
    auto cfg = base_config(tb, tb.lan());
    cfg.streams = streams;
    cfg.flow.fq_rate_bps = units::gbps(pace);
    const auto res = flow::run_transfer(cfg);
    EXPECT_LE(units::to_gbps(res.throughput_bps), pace * streams * 1.02);
    EXPECT_LE(units::to_gbps(res.throughput_bps), prev * 1.05);
    prev = units::to_gbps(res.throughput_bps);
  }
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, PacingMonotonic, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------- sweep 3
// optmem monotonicity: more optmem never reduces zerocopy throughput and
// never increases the fallback ratio, across RTTs.

class OptmemMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(OptmemMonotonic, MoreOptmemNeverWorse) {
  const int rtt_ms = GetParam();
  double prev_tput = 0.0;
  double prev_fallback = 2.0;
  for (const double om : {20480.0, 262144.0, 1048576.0, 3405376.0}) {
    auto spec = harness::TestSpec::on(harness::amlight(), "WAN " + std::to_string(rtt_ms) + "ms",
                                      {.duration_sec = 10, .fq_rate_bps = 50e9, .zerocopy = true});
    for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.sysctl.optmem_max = om;
    spec.repeats = 2;
    const auto r = harness::run_test(spec);
    EXPECT_GE(r.avg_gbps, prev_tput - 1.5) << "optmem " << om;
    EXPECT_LE(r.zc_fallback_ratio, prev_fallback + 0.02) << "optmem " << om;
    prev_tput = r.avg_gbps;
    prev_fallback = r.zc_fallback_ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Rtts, OptmemMonotonic, ::testing::Values(25, 54, 104));

// ---------------------------------------------------------------- sweep 4
// Kernel monotonicity: newer kernels never regress, on either vendor,
// paced or not.

class KernelMonotonic : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(KernelMonotonic, NewerKernelNeverSlower) {
  const auto [esnet_tb, paced] = GetParam();
  double prev = 0;
  for (const auto k :
       {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5, kern::KernelVersion::V6_8}) {
    auto spec = harness::TestSpec::on(esnet_tb ? harness::esnet(k) : harness::amlight(k), "LAN",
                                      {.duration_sec = 10, .fq_rate_bps = paced ? 30e9 : 0.0});
    spec.repeats = 2;
    const auto r = harness::run_test(spec);
    EXPECT_GE(r.avg_gbps, prev - 0.8) << kern::kernel_version_name(k);
    prev = r.avg_gbps;
  }
}

INSTANTIATE_TEST_SUITE_P(VendorsAndPacing, KernelMonotonic,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

// ---------------------------------------------------------------- sweep 5
// MTU: 9000 always beats 1500 (per-packet cost multiplication).

class MtuSweep : public ::testing::TestWithParam<bool> {};

TEST_P(MtuSweep, JumboFramesWin) {
  const bool zc = GetParam();
  const auto at_mtu = [zc](double mtu) {
    auto spec = harness::TestSpec::on(harness::esnet(), "LAN", {.duration_sec = 8, .zerocopy = zc});
    for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.mtu_bytes = mtu;
    spec.repeats = 2;
    return harness::run_test(spec);
  };
  const auto jumbo = at_mtu(9000);
  const auto std_mtu = at_mtu(1500);
  EXPECT_GT(jumbo.avg_gbps, std_mtu.avg_gbps);
}

INSTANTIATE_TEST_SUITE_P(CopyAndZc, MtuSweep, ::testing::Bool());

// ---------------------------------------------------------------- sweep 6
// Congestion algorithms: all complete, none wildly off CUBIC on a clean
// single stream (paper §IV-F), BBR retransmits at least as much.

class CcSweep : public ::testing::TestWithParam<kern::CongestionAlgo> {};

TEST_P(CcSweep, ComparableToReferenceCubic) {
  const auto algo = GetParam();
  auto spec = harness::TestSpec::on(
      harness::esnet(), "WAN 63ms",
      {.duration_sec = 15, .fq_rate_bps = 30e9, .zerocopy = true, .congestion = algo});
  spec.repeats = 2;
  const auto r = harness::run_test(spec);
  EXPECT_GT(r.avg_gbps, 15.0);
  EXPECT_LE(r.avg_gbps, 31.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, CcSweep,
                         ::testing::Values(kern::CongestionAlgo::Cubic,
                                           kern::CongestionAlgo::BbrV1,
                                           kern::CongestionAlgo::BbrV3,
                                           kern::CongestionAlgo::Reno));

}  // namespace
}  // namespace dtnsim

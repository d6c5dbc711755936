// Integration tests: feature interactions the paper calls out explicitly —
// BIG TCP vs MSG_ZEROCOPY frag contention, irqbalance variance, VM tuning,
// hardware GRO, and the advisor-measured tuning deltas.
#include <gtest/gtest.h>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim {
namespace {

// 15 s x 3 repeats of `iperf` on the testbed's `path`.
harness::TestResult quick(const harness::Testbed& tb, app::IperfOptions iperf = {},
                          const std::string& path = "LAN") {
  iperf.duration_sec = 15;
  auto spec = harness::TestSpec::on(tb, path, iperf);
  spec.repeats = 3;
  return harness::run_test(spec);
}

// The testbed with BIG TCP on at 180 KiB on both hosts.
harness::Testbed with_big_tcp(harness::Testbed tb) {
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.big_tcp_enabled = true;
    h->tuning.big_tcp_bytes = 180 * 1024;
  }
  return tb;
}

// Zerocopy with --skip-rx-copy: the sender-limited configuration.
constexpr app::IperfOptions kZcSkipRx{.zerocopy = true, .skip_rx_copy = true};

TEST(Features, BigTcpPlusZerocopyNoopOnStockKernel) {
  // §II-C: "BIG TCP and zerocopy cannot be used simultaneously without a
  // custom built kernel" — on stock MAX_SKB_FRAGS=17 the zerocopy frag
  // limit clamps the super-packet, so enabling BIG TCP changes nothing.
  const auto zc = quick(harness::esnet(), kZcSkipRx);
  const auto zc_big = quick(with_big_tcp(harness::esnet()), kZcSkipRx);
  EXPECT_NEAR(zc_big.avg_gbps, zc.avg_gbps, zc.avg_gbps * 0.02);
}

TEST(Features, Frags45UnlocksTheCombination) {
  auto tb = harness::esnet();
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->kernel = kern::custom_kernel_with_frags(h->kernel, 45);
  }
  const auto stock = quick(with_big_tcp(harness::esnet()), kZcSkipRx);
  const auto custom = quick(with_big_tcp(tb), kZcSkipRx);
  // §V-C preliminary result: substantial gains once the frag limit lifts.
  EXPECT_GT(custom.avg_gbps, stock.avg_gbps * 1.2);
}

TEST(Features, IrqbalanceBlowsUpVariance) {
  const auto run = [](const harness::Testbed& tb) {
    auto spec = harness::TestSpec::on(tb, "LAN", {.duration_sec = 15});
    spec.repeats = 12;
    return harness::run_test(spec);
  };
  auto irqbalance = harness::amlight();
  for (auto* h : {&irqbalance.sender, &irqbalance.receiver}) {
    h->tuning.irqbalance_disabled = false;
  }
  const auto pinned = run(harness::amlight());
  const auto balanced = run(irqbalance);
  // §III-A: 20-55 Gbps run-to-run on the same hardware.
  EXPECT_GT(balanced.stdev_gbps, pinned.stdev_gbps * 2.5);
  EXPECT_LT(balanced.min_gbps, 35.0);
  EXPECT_GT(balanced.max_gbps, 45.0);
}

TEST(Features, UntunedVmFarSlowerThanTunedVm) {
  auto tuned = harness::amlight_vm(kern::KernelVersion::V5_10);
  auto untuned = tuned;
  host::VmConfig bad;
  bad.pci_passthrough = false;
  bad.vcpu_pinned = false;
  bad.host_iommu_pt = false;
  untuned.sender.virt_factor = host::virtualization_factor(bad);
  untuned.receiver.virt_factor = host::virtualization_factor(bad);
  const auto a = quick(tuned);
  const auto b = quick(untuned);
  EXPECT_GT(a.avg_gbps, b.avg_gbps * 1.8);
}

TEST(Features, HwGroNeedsKernelAndNicAtEngineLevel) {
  // Enabling the knob without kernel 6.11 + CX-7 is inert.
  auto tb = harness::amlight(kern::KernelVersion::V6_8);  // CX-5, 6.8
  const auto off = quick(tb, {.zerocopy = true});
  tb.receiver.tuning.hw_gro_enabled = true;
  const auto on = quick(tb, {.zerocopy = true});
  EXPECT_NEAR(on.avg_gbps, off.avg_gbps, off.avg_gbps * 0.02);
}

TEST(Features, HwGroHelpsMostAtSmallMtu) {
  auto tb = harness::amlight(kern::KernelVersion::V6_11);
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->nic = net::connectx7_200g();
    h->nic.line_rate_bps = 100e9;
    h->nic.drain_smooth_bps = 52e9;
    h->nic.drain_burst_bps = 42e9;
  }
  // Zerocopy at the given MTU, hardware GRO on the receiver or not.
  const auto zc = [&tb](double mtu, bool hw_gro) {
    auto t = tb;
    for (auto* h : {&t.sender, &t.receiver}) h->tuning.mtu_bytes = mtu;
    t.receiver.tuning.hw_gro_enabled = hw_gro;
    return quick(t, {.zerocopy = true});
  };
  const auto off15 = zc(1500, false);
  const auto on15 = zc(1500, true);
  const auto off9k = zc(9000, false);
  const auto on9k = zc(9000, true);
  const double gain15 = on15.avg_gbps / off15.avg_gbps;
  const double gain9k = on9k.avg_gbps / off9k.avg_gbps;
  EXPECT_GT(gain15, 1.8);   // paper: ~160% at 1500 B (24 -> 62 Gbps)
  // paper: "33% improvement (62 Gbps vs 65 Gbps)" — the quoted bar values
  // are themselves only +5%, and here the AmLight path ceiling (~64 G)
  // caps the relieved receiver, landing between those two readings.
  EXPECT_GT(gain9k, 1.08);
  EXPECT_GT(gain15, gain9k * 1.3);  // the small-MTU effect dominates
}

TEST(Features, PacingAbove32GNeedsPatchedIperf) {
  // §V-A: "pacing single flows above 32 Gbps ... requires a recent patch".
  app::IperfOptions o;
  o.zerocopy = true;
  o.fq_rate_bps = units::gbps(50);
  o.duration_sec = 15;
  const auto gbps = [&o](const app::IperfVersion& version) {
    auto spec = harness::TestSpec::on(harness::amlight(), "WAN 25ms",
                                      app::resolve_options(o, version).options);
    spec.repeats = 3;
    return harness::run_test(spec).avg_gbps;
  };
  EXPECT_NEAR(gbps(app::IperfVersion::patched_3_17()), 49.0, 3.0);
  EXPECT_LT(gbps(app::IperfVersion::stock_3_16()), 33.5);  // clamped to the 32G uint limit
}

TEST(Features, NoMetricsSaveIrrelevantHere) {
  // tcp_no_metrics_save prevents cross-run cwnd caching; runs in dtnsim are
  // independent by construction, so flipping it must not change results —
  // a guard that the knob exists but has no accidental coupling.
  auto tb = harness::esnet();
  const auto a = quick(tb);
  tb.sender.tuning.sysctl.tcp_no_metrics_save = false;
  const auto b = quick(tb);
  EXPECT_DOUBLE_EQ(a.avg_gbps, b.avg_gbps);
}

TEST(Features, AdvisorLadderMonotone) {
  // Each §V recommendation, applied cumulatively to a stock host, never
  // hurts and in aggregate transforms the transfer.
  auto tb = harness::esnet(kern::KernelVersion::V5_15);
  tb.sender.tuning = host::TuningConfig::stock();
  tb.receiver.tuning = host::TuningConfig::stock();
  const auto path = "WAN 63ms";

  std::vector<double> ladder;
  auto measure = [&] {
    ladder.push_back(quick(tb, {}, path).avg_gbps);
  };
  measure();  // stock
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.sysctl = kern::SysctlConfig::fasterdata_tuned();
    h->tuning.mtu_bytes = 9000;
  }
  measure();
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.irqbalance_disabled = true;
    h->tuning.performance_governor = true;
    h->tuning.smt_off = true;
    h->tuning.iommu_passthrough = true;
  }
  measure();
  tb.sender.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  tb.receiver.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  measure();

  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i], ladder[i - 1] * 0.97) << "step " << i;
  }
  EXPECT_GT(ladder.back(), ladder.front() * 20.0);  // stock WAN is crippled
}

}  // namespace
}  // namespace dtnsim

// The calibration contract: docs/MODEL.md derives specific numbers from the
// cost model; these tests pin the code to the documented derivation so a
// constant change that silently invalidates the documentation fails CI.
#include <gtest/gtest.h>

#include "dtnsim/cpu/cost_model.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/kern/version.hpp"
#include "dtnsim/kern/zc_socket.hpp"
#include "dtnsim/net/nic.hpp"

namespace dtnsim {
namespace {

using cpu::CostModel;
using cpu::CostModelOptions;
using cpu::RxPathConfig;
using cpu::TxPathConfig;

// MODEL.md §2: receive cost per byte at MTU 9000, GRO 64K.
TEST(CalibrationContract, ReceiverCyclesPerByte) {
  const CostModel intel(cpu::intel_xeon_6346(), CostModelOptions{});
  const CostModel amd(cpu::amd_epyc_73f3(), CostModelOptions{});
  RxPathConfig rx;  // defaults: 64K GRO, MTU 9000, copy
  EXPECT_NEAR(intel.rx_app_price(rx).per_byte, 0.514, 0.005);
  EXPECT_NEAR(amd.rx_app_price(rx).per_byte, 0.764, 0.005);
}

// MODEL.md §2: the implied single-core receive ceilings (the 55/42 anchors).
TEST(CalibrationContract, ReceiverCeilings) {
  const CostModel intel(cpu::intel_xeon_6346(), CostModelOptions{});
  const CostModel amd(cpu::amd_epyc_73f3(), CostModelOptions{});
  RxPathConfig rx;
  const double intel_gbps = 3.6e9 / intel.rx_app_price(rx).per_byte * 8.0 / 1e9;
  const double amd_gbps = 4.0e9 / amd.rx_app_price(rx).per_byte * 8.0 / 1e9;
  EXPECT_NEAR(intel_gbps, 56.0, 1.0);  // paper: ~55
  EXPECT_NEAR(amd_gbps, 41.9, 1.0);    // paper: ~42
}

// MODEL.md §2: BIG TCP at 150K aggregates buys ~16% on the receive path.
TEST(CalibrationContract, BigTcpReceiverGain) {
  const CostModel intel(cpu::intel_xeon_6346(), CostModelOptions{});
  RxPathConfig stock;
  RxPathConfig big;
  big.gro_bytes = 150.0 * 1024.0;
  EXPECT_NEAR(intel.rx_app_price(stock).per_byte / intel.rx_app_price(big).per_byte, 1.16,
              0.02);
}

// MODEL.md §2: zerocopy send ~0.22 cyc/B -> ~150 Gbps ceiling on Intel.
TEST(CalibrationContract, ZerocopySenderCeiling) {
  const CostModel intel(cpu::intel_xeon_6346(), CostModelOptions{});
  TxPathConfig zc;
  zc.zc_fraction = 1.0;
  const double cyc = intel.tx_app_cyc_per_byte(zc);
  EXPECT_NEAR(cyc, 0.22, 0.02);
  EXPECT_NEAR(3.6e9 / cyc * 8.0 / 1e9, 132.0, 20.0);
}

// MODEL.md §2: WAN cache-pressure ceilings (~37 Intel / ~23 AMD).
TEST(CalibrationContract, WanSenderCeilings) {
  const CostModel intel(cpu::intel_xeon_6346(), CostModelOptions{});
  const CostModel amd(cpu::amd_epyc_73f3(), CostModelOptions{});
  TxPathConfig tx;
  tx.cache_mult = intel.cache_pressure_mult(480e6);  // ~0.5 GB in flight
  const double intel_gbps = 3.6e9 / intel.tx_app_cyc_per_byte(tx) * 8.0 / 1e9;
  tx.cache_mult = amd.cache_pressure_mult(180e6);
  const double amd_gbps = 4.0e9 / amd.tx_app_cyc_per_byte(tx) * 8.0 / 1e9;
  EXPECT_NEAR(intel_gbps, 37.0, 2.5);
  EXPECT_NEAR(amd_gbps, 23.0, 2.5);
}

// MODEL.md §3: zerocopy window per optmem value.
TEST(CalibrationContract, OptmemWindows) {
  const double per_pkt = kern::kZcChargePerSuperPkt;
  EXPECT_NEAR(20480.0 / per_pkt * 65536.0 / 1e6, 8.4, 0.1);        // 8.4 MB
  EXPECT_NEAR(1048576.0 / per_pkt * 65536.0 / 1e6, 429.5, 1.0);    // 429 MB
  EXPECT_NEAR(3405376.0 / per_pkt * 65536.0 / 1e9, 1.39, 0.02);    // 1.4 GB
  // 1 MB at 104 ms supports ~33 Gbps of pure zerocopy.
  EXPECT_NEAR(429.5e6 / 0.104 * 8.0 / 1e9, 33.0, 1.0);
}

// MODEL.md §4: the stack-factor table.
TEST(CalibrationContract, StackFactorTable) {
  const struct {
    kern::KernelVersion v;
    double intel, amd;
  } rows[] = {{kern::KernelVersion::V5_10, 1.30, 1.35},
              {kern::KernelVersion::V5_15, 1.27, 1.31},
              {kern::KernelVersion::V6_5, 1.08, 1.17},
              {kern::KernelVersion::V6_8, 1.00, 1.00},
              {kern::KernelVersion::V6_11, 0.97, 0.97}};
  for (const auto& r : rows) {
    const auto p = kern::kernel_profile(r.v);
    EXPECT_DOUBLE_EQ(p.stack_factor_intel, r.intel) << p.name;
    EXPECT_DOUBLE_EQ(p.stack_factor_amd, r.amd) << p.name;
  }
}

// MODEL.md §5: NIC drain rates and the pacing choices derived from them.
TEST(CalibrationContract, NicDrainRates) {
  const auto cx5 = net::connectx5_100g();
  const auto cx7 = net::connectx7_200g();
  // The paper paces at 50 G (AmLight) and 40 G (ESnet): just below drain.
  EXPECT_GT(cx5.drain_smooth_bps, 50e9);
  EXPECT_LT(cx5.drain_smooth_bps, 56e9);
  EXPECT_GT(cx7.drain_smooth_bps, 40e9);
  EXPECT_LT(cx7.drain_smooth_bps, 46e9);
  EXPECT_LT(cx7.drain_burst_bps, cx5.drain_burst_bps);  // AMD hurts more
}

// MODEL.md §6: testbed path constants the loss regimes hinge on.
TEST(CalibrationContract, PathConstants) {
  EXPECT_DOUBLE_EQ(harness::amlight_wan(104).capacity_bps, 80e9);
  EXPECT_DOUBLE_EQ(harness::amlight_wan(25).bg_traffic_bps, 16e9);
  EXPECT_DOUBLE_EQ(harness::esnet_wan().burst_tolerance_bps, 135e9);
  EXPECT_DOUBLE_EQ(harness::esnet_lan().burst_tolerance_bps, 175e9);
  EXPECT_TRUE(harness::esnet_production_path().deep_buffers);
}

// MODEL.md §2: memory passes (copy vs zerocopy) and the Table-I ceiling.
TEST(CalibrationContract, MemoryPassCeiling) {
  CostModelOptions k515;
  k515.stack_factor = 1.31;
  const CostModel amd(cpu::amd_epyc_73f3(), k515);
  RxPathConfig rx;
  const double passes = amd.rx_mem_passes(rx);
  EXPECT_NEAR(passes, 2.91, 0.01);
  // 60 GB/s of stack memory bandwidth / 2.91 passes = ~165 Gbps: Table I.
  const double ceiling_gbps = cpu::amd_epyc_73f3().stack_mem_bw_bytes / passes * 8 / 1e9;
  EXPECT_NEAR(ceiling_gbps, 165.0, 2.0);
}

}  // namespace
}  // namespace dtnsim

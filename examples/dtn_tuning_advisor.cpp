// Example: audit a host configuration with the TuningAdvisor and measure
// what each recommendation is worth.
//
// Starts from a completely stock Ubuntu host on a 63 ms WAN path, applies
// the paper's recommendations one at a time, and shows the throughput
// ladder — the practical §V "how to tune a DTN" walkthrough.
//
//   $ ./dtn_tuning_advisor
#include <cstdio>

#include "dtnsim/core/dtnsim.hpp"

using namespace dtnsim;

namespace {

double measure(const harness::Testbed& tb, bool zerocopy, double pace_gbps) {
  auto spec = harness::TestSpec::on(
      tb, "WAN 63ms",
      {.duration_sec = 30, .fq_rate_bps = pace_gbps * 1e9, .zerocopy = zerocopy});
  spec.repeats = 5;
  return harness::run_test(spec).avg_gbps;
}

}  // namespace

int main() {
  // A stock host: default sysctls, irqbalance on, powersave governor,
  // 1500 MTU, strict IOMMU, fq_codel.
  auto tb = harness::esnet(kern::KernelVersion::V5_15);
  tb.sender.tuning = host::TuningConfig::stock();
  tb.receiver.tuning = host::TuningConfig::stock();

  std::printf("=== TuningAdvisor audit of the stock host ===\n\n%s\n",
              advise(tb.sender, tb.path_named("WAN 63ms"), UseCase::SingleFlowBenchmark,
                     tb.link_flow_control)
                  .to_string()
                  .c_str());

  Table ladder({"Step", "Applied change", "WAN 63ms throughput"});
  auto row = [&](const char* step, const char* change, double gbps) {
    ladder.add_row({step, change, strfmt("%.2f Gbps", gbps)});
  };

  row("0", "stock host, default iperf3", measure(tb, false, 0));

  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.sysctl = kern::SysctlConfig::fasterdata_tuned();
  }
  row("1", "+ fasterdata sysctls (buffers, fq, optmem)", measure(tb, false, 0));

  for (auto* h : {&tb.sender, &tb.receiver}) h->tuning.mtu_bytes = 9000;
  row("2", "+ MTU 9000", measure(tb, false, 0));

  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.irqbalance_disabled = true;
    h->tuning.performance_governor = true;
    h->tuning.smt_off = true;
  }
  row("3", "+ IRQ/app core pinning, performance governor, SMT off",
      measure(tb, false, 0));

  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->tuning.iommu_passthrough = true;
    h->tuning.ring_descriptors = 8192;
  }
  row("4", "+ iommu=pt, rings 8192 (AMD)", measure(tb, false, 0));

  tb.sender.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  tb.receiver.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  row("5", "+ kernel 5.15 -> 6.8", measure(tb, false, 0));

  row("6", "+ MSG_ZEROCOPY + pacing 40G (patched iperf3)", measure(tb, true, 40));

  std::printf("=== Measured tuning ladder ===\n\n%s\n", ladder.to_ascii().c_str());

  std::printf("Advisor pacing suggestions (paper §V-B):\n");
  std::printf("  100G DTN feeding 10G clients : %.0f Gbps/flow\n",
              recommended_pacing(units::Rate::from_gbps(100), units::Rate::from_gbps(10)).gbps());
  std::printf("  100G DTN to 100G DTNs        : %.0f Gbps/flow\n",
              recommended_pacing(units::Rate::from_gbps(100), units::Rate::from_gbps(100)).gbps());
  return 0;
}

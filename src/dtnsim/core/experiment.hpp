// Fluent experiment builder over the test harness.
#pragma once

#include <string>

#include "dtnsim/harness/runner.hpp"
#include "dtnsim/units/units.hpp"

namespace dtnsim {

class Experiment {
 public:
  explicit Experiment(harness::Testbed testbed);

  Experiment& path(const std::string& path_name);
  Experiment& streams(int n);
  Experiment& zerocopy(bool on = true);
  Experiment& skip_rx_copy(bool on = true);
  // Per-stream fq pacing rate; a zero rate disables pacing.
  Experiment& pacing(units::Rate rate);
  Experiment& congestion(kern::CongestionAlgo algo);
  Experiment& kernel(kern::KernelVersion version);
  Experiment& optmem_max(units::Bytes limit);
  Experiment& big_tcp(bool on,
                      units::Bytes size = units::Bytes(host::TuningConfig{}.big_tcp_bytes));
  Experiment& hw_gro(bool on = true);
  Experiment& mtu(units::Bytes bytes);
  Experiment& ring(int descriptors);
  Experiment& iommu_passthrough(bool on);
  Experiment& irqbalance(bool enabled);
  Experiment& flow_control(bool on);
  Experiment& duration(units::SimTime length);
  Experiment& repeats(int n);
  Experiment& seed(std::uint64_t seed);
  Experiment& label(std::string name);
  // Attach per-interval probes + trace recording to every repeat; the
  // series/trace land on the TestResult (see obs/telemetry.hpp).
  Experiment& telemetry(obs::TelemetryConfig cfg);
  Experiment& telemetry(bool on = true);
  // Kernel-eye snapshots (`dtnsim-ss`): record an end-of-run tcp_info/NIC/
  // qdisc report on repeat 0. Implies telemetry(true).
  Experiment& ss(bool on = true);
  // Periodic snapshots every `interval` of simulated time plus the final
  // one — `dtnsim-ss --watch`. Implies ss(true).
  Experiment& ss_watch(units::SimTime interval);
  // Exact per-stage cycle attribution (`dtnsim-perf`): record an end-of-run
  // PerfReport on repeat 0. Implies telemetry(true).
  Experiment& perf(bool on = true);
  // Periodic attribution samples every `interval` of simulated time plus
  // the final one — `dtnsim-perf --record`. Implies perf(true).
  Experiment& perf_watch(units::SimTime interval);
  // Mid-run fault/condition timeline (`--scenario FILE`): link impairments,
  // NIC/qdisc/sysctl retunes and flow churn fire at scenario::Timeline
  // times while the transfer runs (see docs/SCENARIO.md).
  Experiment& scenario(scenario::Timeline timeline);
  // Bundle the run into a report::RunRecord on the TestResult (`--record-out`,
  // docs/REPORT.md). Implies telemetry + ss + perf.
  Experiment& record(bool on = true);

  // The spec this builder will run (inspectable before running).
  harness::TestSpec spec() const;
  harness::TestResult run() const;

 private:
  harness::Testbed testbed_;
  std::string path_name_;
  app::IperfOptions iperf_;
  int repeats_ = 10;
  std::uint64_t seed_ = 0x5eed;
  std::string label_;
  obs::TelemetryConfig telemetry_;
  dtnsim::scenario::Timeline scenario_;
  bool record_ = false;
};

}  // namespace dtnsim

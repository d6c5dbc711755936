// Example: build a testbed from scratch with the low-level API.
//
// Everything the built-in AmLight/ESnet testbeds do can be composed by
// hand: pick CPUs, a kernel, a NIC, tunings, and a path, then run the
// iperf3 options the patched tool would run through the harness.
//
//   $ ./custom_testbed
#include <cstdio>

#include "dtnsim/core/dtnsim.hpp"

using namespace dtnsim;

int main() {
  // A hypothetical campus DTN pair: single-socket AMD, ConnectX-7 at 200G,
  // Ubuntu 24.04 (kernel 6.8), tuned per fasterdata, 17 ms of RTT between
  // campus and a national lab.
  host::HostConfig dtn;
  dtn.name = "campus-dtn";
  dtn.cpu = cpu::amd_epyc_73f3();
  dtn.cpu.sockets = 1;
  dtn.cpu.numa_nodes = 1;
  dtn.kernel = kern::kernel_profile(kern::KernelVersion::V6_8);
  dtn.nic = net::connectx7_200g();
  dtn.tuning = host::TuningConfig::dtn_tuned();
  dtn.tuning.ring_descriptors = 8192;

  net::PathSpec path;
  path.name = "campus-lab 17ms";
  path.rtt = units::millis(17);
  path.capacity_bps = 100e9;  // the campus uplink
  path.hops = 6;
  path.bg_traffic_bps = 8e9;  // shared with campus traffic
  path.bg_burst_sigma = 0.4;
  path.burst_tolerance_bps = 70e9;

  // What iperf3 v3.17 with patches #1690/#1728 runs for these options; the
  // stock 3.16 tool would drop zerocopy.
  app::IperfOptions opts;
  opts.parallel = 4;
  opts.duration_sec = 30;
  opts.zerocopy = true;
  opts.fq_rate_bps = units::gbps(20);
  std::printf("stock iperf3 3.16 would warn: %s\n\n",
              app::resolve_options(opts, app::IperfVersion::stock_3_16()).warnings.c_str());

  harness::TestSpec spec;
  spec.name = "campus-dtn -> lab";
  spec.sender = dtn;
  spec.receiver = dtn;
  spec.path = path;
  spec.iperf = app::resolve_options(opts, app::IperfVersion::patched_3_17()).options;
  spec.repeats = 3;
  const auto report = harness::run_test(spec);
  std::printf("%s: %.1f ± %.1f Gbps, %.0f retransmits, snd CPU %.0f%%, rcv CPU %.0f%%\n",
              report.name.c_str(), report.avg_gbps, report.stdev_gbps, report.avg_retransmits,
              report.snd_cpu_pct, report.rcv_cpu_pct);
  std::printf("Per-stream range: %.1f-%.1f Gbps\n\n", report.flow_min_gbps,
              report.flow_max_gbps);

  // And ask the advisor whether this host is ready for production use.
  std::printf("Advisor on this configuration:\n%s",
              advise(dtn, path, UseCase::ParallelStreamDtn, false).to_string().c_str());

  // What would the same transfer look like without the uplink bottleneck?
  harness::TestSpec clean = spec;
  clean.path.capacity_bps = 200e9;
  clean.path.bg_traffic_bps = 0;
  clean.path.burst_tolerance_bps = 150e9;
  const auto clean_report = harness::run_test(clean);
  std::printf("\nSame hosts on a clean 200G path: %.1f Gbps (vs %.1f on the uplink)\n",
              clean_report.avg_gbps, report.avg_gbps);
  return 0;
}

// Quickstart: reproduce the paper's headline single-stream result.
//
// Runs four configurations of a single TCP stream on the AmLight testbed's
// 104 ms WAN path (kernel 6.8): default iperf3, zerocopy alone, zerocopy
// with 50 Gbps pacing, and BIG TCP — then prints the paper-style comparison.
//
//   $ ./quickstart
#include <cstdio>

#include "dtnsim/core/dtnsim.hpp"

int main() {
  using namespace dtnsim;

  const auto tb = harness::amlight(kern::KernelVersion::V6_8);

  struct Config {
    const char* label;
    bool zerocopy;
    double pace_gbps;
    bool big_tcp;
  };
  const Config configs[] = {
      {"default", false, 0.0, false},
      {"zerocopy", true, 0.0, false},
      {"zerocopy + pacing 50G", true, 50.0, false},
      {"BIG TCP (150K)", false, 0.0, true},
  };

  Table table({"Configuration", "Throughput", "stddev", "Retransmits", "Sender CPU"});
  for (const auto& c : configs) {
    auto spec = harness::TestSpec::on(
        tb, "WAN 104ms",
        {.duration_sec = 20, .fq_rate_bps = c.pace_gbps * 1e9, .zerocopy = c.zerocopy});
    spec.repeats = 5;
    for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.big_tcp_enabled = c.big_tcp;
    const auto result = harness::run_test(spec);
    table.add_row({c.label, strfmt("%.1f Gbps", result.avg_gbps),
                   strfmt("%.1f", result.stdev_gbps),
                   strfmt("%.0f", result.avg_retransmits),
                   strfmt("%.0f%%", result.snd_cpu_pct)});
  }

  std::printf("Single stream, AmLight testbed, 104 ms WAN path, kernel 6.8\n\n%s\n",
              table.to_ascii().c_str());
  std::printf("Expected shape (paper Fig. 5): zerocopy alone does not help;\n"
              "zerocopy + pacing reaches the 50G pacing rate (~35%% over default);\n"
              "BIG TCP gives a smaller (<=16%%) improvement.\n");
  return 0;
}

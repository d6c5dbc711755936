// Example: plan pacing for a production parallel-stream DTN.
//
// Globus/FTS-style movers run many flows in parallel; the operational
// question is what --fq-rate (or tc ceiling) to configure. This example
// sweeps flows x pacing over a flow-control-capable production path and
// prints the throughput / retransmit / fairness trade-off grid, then picks
// the configuration the paper's §V-B guidance would pick.
//
//   $ ./parallel_stream_planner
#include <cstdio>

#include "dtnsim/core/dtnsim.hpp"

using namespace dtnsim;

int main() {
  const auto tb = harness::esnet_production(kern::KernelVersion::V6_8);

  Table grid({"Flows", "Pace/flow", "Attempted", "Throughput", "Retr",
              "Per-flow range"});
  struct Best {
    double score = -1;
    int flows = 0;
    double pace = 0;
  } best;

  for (const int flows : {4, 8, 16}) {
    for (const double pace : {5.0, 10.0, 15.0, 25.0}) {
      auto spec = harness::TestSpec::on(tb, "production 63ms",
                                        {.parallel = flows,
                                         .duration_sec = 30,
                                         .fq_rate_bps = pace * 1e9,
                                         .zerocopy = true});
      spec.repeats = 5;
      const auto r = harness::run_test(spec);
      grid.add_row({strfmt("%d", flows), strfmt("%.0fG", pace),
                    strfmt("%.0fG", flows * pace), strfmt("%.1f Gbps", r.avg_gbps),
                    strfmt("%.0f", r.avg_retransmits),
                    strfmt("%.1f-%.1f", r.flow_min_gbps, r.flow_max_gbps)});
      // Score: throughput, penalized by retransmits and unfairness.
      const double fairness = r.flow_max_gbps > 0 ? r.flow_min_gbps / r.flow_max_gbps : 0;
      const double score =
          r.avg_gbps * fairness / (1.0 + r.avg_retransmits / 5000.0);
      if (score > best.score) best = {score, flows, pace};
    }
    grid.add_separator();
  }
  std::printf("%s\n", grid.to_ascii().c_str());
  std::printf("Planner pick: %d flows paced at %.0f Gbps each "
              "(best throughput x fairness / retransmit trade-off).\n",
              best.flows, best.pace);
  std::printf("Paper guidance (§V-B): pace so flows do not interfere; with 802.3x\n"
              "flow control pacing mostly buys fairness and fewer retransmits.\n");
  return 0;
}

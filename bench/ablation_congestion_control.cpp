// Ablation (§IV-F): congestion control algorithms.
//
// Paper findings (not plotted there, summarized in text): single-stream
// throughput is not significantly affected by the CCA on these clean
// testbeds; retransmit counts are higher with BBR (especially BBRv1); BBR
// ramps up faster on the WAN; and parallel BBR flows benefit strongly from
// fq pacing, otherwise they interfere and back off.
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main() {
  print_header("Ablation: congestion control", "CUBIC vs BBRv1 vs BBRv3 (ESnet, kernel 6.8)",
               "single stream WAN + 8 paced/unpaced streams, 60 s x 10");

  const auto tb = harness::esnet(kern::KernelVersion::V6_8);
  const kern::CongestionAlgo algos[] = {kern::CongestionAlgo::Cubic,
                                        kern::CongestionAlgo::BbrV1,
                                        kern::CongestionAlgo::BbrV3};

  Table single({"Algorithm", "1 stream WAN", "Retr", "Ramp (first 5s avg)"});
  for (const auto a : algos) {
    const auto r = harness::run_test(harness::TestSpec::on(tb, "WAN 63ms", {.congestion = a}));
    // Ramp-up: rerun one seed and look at the first seconds.
    flow::TransferConfig cfg;
    cfg.sender = tb.sender;
    cfg.receiver = tb.receiver;
    cfg.path = tb.path_named("WAN 63ms");
    cfg.flow.congestion = a;
    cfg.duration = units::SimTime::from_seconds(10);
    cfg.seed = 11;
    const auto one = flow::run_transfer(cfg);
    double ramp = 0;
    const std::size_t n = std::min<std::size_t>(5, one.interval_bps.size());
    for (std::size_t i = 0; i < n; ++i) ramp += units::to_gbps(one.interval_bps[i]);
    single.add_row({kern::congestion_name(a), gbps_pm(r), count(r.avg_retransmits),
                    strfmt("%.1f Gbps", n ? ramp / static_cast<double>(n) : 0.0)});
  }
  std::printf("%s\n", single.to_ascii().c_str());

  Table multi({"Algorithm", "8 flows unpaced WAN", "Retr", "8 flows paced 15G", "Retr"});
  for (const auto a : algos) {
    const auto un = harness::run_test(
        harness::TestSpec::on(tb, "WAN 63ms", {.parallel = 8, .congestion = a}));
    const auto paced = harness::run_test(harness::TestSpec::on(
        tb, "WAN 63ms", {.parallel = 8, .fq_rate_bps = 15e9, .congestion = a}));
    multi.add_row({kern::congestion_name(a), gbps_pm(un), count(un.avg_retransmits),
                   gbps_pm(paced), count(paced.avg_retransmits)});
  }
  std::printf("%s\n", multi.to_ascii().c_str());
  std::printf("Paper shape: comparable throughput across CCAs; BBR retransmits\n"
              "higher (v1 worst); BBR ramps faster; fq pacing stabilizes parallel\n"
              "BBR flows.\n");
  return 0;
}

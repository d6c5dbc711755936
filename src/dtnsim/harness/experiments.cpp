#include "dtnsim/harness/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::harness {
namespace {

using app::IperfOptions;
using Column = double report::RunSummary::*;

constexpr Column kGbps = &report::RunSummary::avg_gbps;
constexpr Column kStdev = &report::RunSummary::stdev_gbps;
constexpr Column kMin = &report::RunSummary::min_gbps;
constexpr Column kMax = &report::RunSummary::max_gbps;
constexpr Column kRetr = &report::RunSummary::avg_retransmits;
constexpr Column kFlowMin = &report::RunSummary::flow_min_gbps;
constexpr Column kFlowMax = &report::RunSummary::flow_max_gbps;
constexpr Column kTxCpu = &report::RunSummary::snd_cpu_pct;
constexpr Column kRxCpu = &report::RunSummary::rcv_cpu_pct;
constexpr Column kFallback = &report::RunSummary::zc_fallback_ratio;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNoPaper = std::numeric_limits<double>::quiet_NaN();

// `col` of cell `of` lies in [lo, hi].
Claim value(std::string what, std::string of, Column col, double lo, double hi,
            double paper = kNoPaper) {
  return {std::move(what), std::move(of), "", col, lo, hi, paper};
}

// `col` of cell `of` over the same column of cell `over` lies in [lo, hi].
Claim ratio(std::string what, std::string of, std::string over, Column col, double lo,
            double hi, double paper = kNoPaper) {
  return {std::move(what), std::move(of), std::move(over), col, lo, hi, paper};
}

IperfOptions iperf(int parallel, double pace_gbps, bool zc = false,
                   bool skip_rx = false) {
  IperfOptions o;
  o.parallel = parallel;
  o.fq_rate_bps = pace_gbps * 1e9;
  o.zerocopy = zc;
  o.skip_rx_copy = skip_rx;
  return o;
}

TestSpec with_optmem(TestSpec spec, double bytes) {
  spec.sender.tuning.sysctl.optmem_max = bytes;
  spec.receiver.tuning.sysctl.optmem_max = bytes;
  return spec;
}

TestSpec with_big_tcp(TestSpec spec) {
  spec.sender.tuning.big_tcp_enabled = true;
  spec.receiver.tuning.big_tcp_enabled = true;
  return spec;
}

std::vector<TestSpec> fig4_specs() {
  std::vector<TestSpec> out;
  for (const bool vm : {false, true}) {
    const auto tb = vm ? amlight_vm(kern::KernelVersion::V5_10)
                       : amlight_baremetal(kern::KernelVersion::V5_10);
    for (const bool zcp : {false, true}) {
      for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
        auto o = iperf(1, zcp ? 50 : 0, zcp);
        out.push_back(TestSpec::on(tb, p,
                                   o, strfmt("%s %s %s", vm ? "vm" : "baremetal",
                                             zcp ? "zc+pace50" : "default", p)));
      }
    }
  }
  return out;
}

std::vector<Claim> fig4_claims() {
  std::vector<Claim> out;
  for (const char* c : {"default", "zc+pace50"}) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      out.push_back(ratio("the tuned VM stays within 5% of bare metal",
                          strfmt("vm %s %s", c, p), strfmt("baremetal %s %s", c, p), kGbps,
                          0.95, 1.05));
    }
  }
  return out;
}

std::vector<TestSpec> fig5_specs() {
  std::vector<TestSpec> out;
  const auto tb = amlight(kern::KernelVersion::V6_8);
  struct C {
    const char* label;
    bool zc;
    double pace;
    bool big;
  };
  for (const C c : {C{"default", false, 0, false}, C{"zerocopy", true, 0, false},
                    C{"zc+pace50", true, 50, false}, C{"bigtcp150k", false, 0, true}}) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      auto spec = TestSpec::on(tb, p, iperf(1, c.pace, c.zc),
                               strfmt("%s %s", c.label, p));
      if (c.big) spec = with_big_tcp(spec);
      out.push_back(spec);
    }
  }
  return out;
}

std::vector<Claim> fig5_claims() {
  std::vector<Claim> out = {
      value("default LAN near the paper's 55 Gbps", "default LAN", kGbps, 51, 59, 55),
      ratio("default WAN falls well below the LAN", "default WAN 104ms", "default LAN",
            kGbps, 0, 0.74),
      ratio("BIG TCP adds up to 16% on the LAN", "bigtcp150k LAN", "default LAN", kGbps,
            1.08, 1.22, 1.16),
  };
  for (const char* p : {"WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
    const std::string def = strfmt("default %s", p);
    out.push_back(ratio("zerocopy alone does not help", strfmt("zerocopy %s", p), def,
                        kGbps, 0.85, 1.05));
    out.push_back(ratio("zerocopy + 50G pacing gains up to 35% on the WAN",
                        strfmt("zc+pace50 %s", p), def, kGbps, 1.25, 1.5, 1.35));
    out.push_back(value("zerocopy + pacing holds the 50G pacing rate",
                        strfmt("zc+pace50 %s", p), kGbps, 46, 50));
  }
  return out;
}

std::vector<TestSpec> fig6_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V6_8);
  struct C {
    const char* label;
    bool zc;
    double pace;
  };
  for (const C c : {C{"default", false, 0}, C{"zerocopy", true, 0},
                    C{"zc+pace40", true, 40}}) {
    for (const char* p : {"LAN", "WAN 63ms"}) {
      out.push_back(TestSpec::on(tb, p, iperf(1, c.pace, c.zc),
                                 strfmt("%s %s", c.label, p)));
    }
  }
  return out;
}

std::vector<Claim> fig6_claims() {
  return {
      value("default LAN near the paper's 42 Gbps", "default LAN", kGbps, 38.5, 45.5, 42),
      ratio("zerocopy + 40G pacing recovers the WAN (~+85%)", "zc+pace40 WAN 63ms",
            "default WAN 63ms", kGbps, 1.55, 2.0, 1.85),
      ratio("... matching the default LAN", "zc+pace40 WAN 63ms", "default LAN", kGbps,
            0.9, 1.1),
      ratio("... and the paced LAN", "zc+pace40 WAN 63ms", "zc+pace40 LAN", kGbps, 0.95,
            1.0),
  };
}

std::vector<TestSpec> fig7_specs() {
  std::vector<TestSpec> out;
  const auto tb = amlight(kern::KernelVersion::V6_5);
  for (const bool zcp : {false, true}) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      auto spec = TestSpec::on(tb, p, iperf(1, zcp ? 50 : 0, zcp),
                               strfmt("%s %s", zcp ? "zc+pace50" : "default", p));
      if (zcp) spec = with_optmem(spec, 3405376);
      out.push_back(spec);
    }
  }
  return out;
}

std::vector<Claim> fig7_claims() {
  std::vector<Claim> out = {
      value("default LAN is receiver-bound (RX cores pegged)", "default LAN", kRxCpu, 110,
            kInf),
      value("zc+pace50: the receiver becomes the bottleneck", "zc+pace50 WAN 104ms", kRxCpu,
            100, kInf),
      ratio("zc+pace50: throughput is the same on every path", "zc+pace50 WAN 104ms",
            "zc+pace50 LAN", kGbps, 0.9, 1.0),
  };
  for (const char* p : {"WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
    out.push_back(value("default WAN is sender-bound (TX cores pegged)",
                        strfmt("default %s", p), kTxCpu, 90, kInf));
  }
  for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
    out.push_back(ratio("zerocopy + pacing cuts sender CPU dramatically",
                        strfmt("zc+pace50 %s", p), strfmt("default %s", p), kTxCpu, 0, 0.6));
  }
  return out;
}

std::vector<TestSpec> fig8_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V6_8);
  for (const bool zcp : {false, true}) {
    for (const char* p : {"LAN", "WAN 63ms"}) {
      auto spec = TestSpec::on(tb, p, iperf(1, zcp ? 40 : 0, zcp),
                               strfmt("%s %s", zcp ? "zc+pace40" : "default", p));
      if (zcp) spec = with_optmem(spec, 3405376);
      out.push_back(spec);
    }
  }
  return out;
}

std::vector<Claim> fig8_claims() {
  return {
      ratio("default WAN runs ~40% below the LAN on AMD", "default WAN 63ms", "default LAN",
            kGbps, 0.45, 0.7, 0.6),
      value("default WAN is sender-bound (TX cores pegged)", "default WAN 63ms", kTxCpu, 95,
            kInf),
      ratio("zerocopy + 40G pacing cuts sender CPU", "zc+pace40 WAN 63ms", "default WAN 63ms",
            kTxCpu, 0, 0.5),
  };
}

std::vector<TestSpec> fig9_specs() {
  std::vector<TestSpec> out;
  const auto tb = amlight(kern::KernelVersion::V6_5);
  for (const double om : {20480.0, 1048576.0, 3405376.0}) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      out.push_back(with_optmem(
          TestSpec::on(tb, p, iperf(1, 50, true),
                       strfmt("optmem %.0fK %s", om / 1024.0, p)),
          om));
    }
  }
  return out;
}

// The knee: 20 KB starves every WAN path, 1 MB covers 54 ms but loads the
// sender at 104 ms, and 3.25 MB covers every path.
std::vector<Claim> fig9_claims() {
  return {
      value("20 KB cripples the WAN: far below the 50G pacing", "optmem 20K WAN 25ms", kGbps,
            0, 37.5),
      value("20 KB: the sender is completely CPU-limited", "optmem 20K WAN 25ms", kTxCpu, 95,
            kInf),
      value("20 KB still suffices on the LAN", "optmem 20K LAN", kGbps, 44, 50),
      value("20 KB: nearly every zerocopy byte falls back to a copy at 104 ms",
            "optmem 20K WAN 104ms", kFallback, 0.9, 1.0),
      ratio("more optmem never hurts at 104 ms: 1 MB over 20 KB", "optmem 1024K WAN 104ms",
            "optmem 20K WAN 104ms", kGbps, 1.0, kInf),
      ratio("... 3.25 MB over 1 MB", "optmem 3326K WAN 104ms", "optmem 1024K WAN 104ms", kGbps,
            0.98, kInf),
      value("knee: 1 MB leaves the 54 ms sender unloaded", "optmem 1024K WAN 54ms", kTxCpu, 0,
            60),
      ratio("knee: at 1 MB sender CPU jumps from 54 to 104 ms", "optmem 1024K WAN 104ms",
            "optmem 1024K WAN 54ms", kTxCpu, 1.5, kInf),
      ratio("3.25 MB cuts sender CPU further at 104 ms", "optmem 3326K WAN 104ms",
            "optmem 1024K WAN 104ms", kTxCpu, 0, 0.75),
      value("3.25 MB covers the 104 ms path", "optmem 3326K WAN 104ms", kGbps, 43, 50, 50),
      value("3.25 MB: no fallback at 104 ms", "optmem 3326K WAN 104ms", kFallback, 0, 0.01),
  };
}

std::vector<TestSpec> fig10_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V6_8);
  for (const double pace : {0.0, 25.0, 20.0, 15.0}) {
    for (const char* p : {"LAN", "WAN 63ms"}) {
      out.push_back(TestSpec::on(tb, p, iperf(8, pace, true),
                                 strfmt("8x zc pace%.0f %s", pace, p)));
    }
  }
  return out;
}

std::vector<Claim> fig10_claims() {
  std::vector<Claim> out = {
      value("25 G/flow: nearly the 200G maximum on the LAN", "8x zc pace25 LAN", kGbps, 175,
            200),
      ratio("stddev smallest at 15 G/flow", "8x zc pace15 LAN", "8x zc pace25 LAN", kStdev, 0,
            1.0),
  };
  for (const double pace : {20.0, 15.0}) {
    for (const char* p : {"LAN", "WAN 63ms"}) {
      const double max_tput = 8 * pace;
      out.push_back(value(strfmt("tracks Max Tput = 8 x %.0f G", pace),
                          strfmt("8x zc pace%.0f %s", pace, p), kGbps, 0.96 * max_tput,
                          max_tput));
    }
  }
  return out;
}

std::vector<TestSpec> fig11_specs() {
  std::vector<TestSpec> out;
  const auto tb = amlight(kern::KernelVersion::V6_8);
  struct C {
    const char* label;
    bool zc;
    double pace;
  };
  for (const C c : {C{"default", false, 0}, C{"zc-unpaced", true, 0},
                    C{"zc-pace10", true, 10}, C{"zc-pace9", true, 9}}) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      out.push_back(TestSpec::on(tb, p, iperf(8, c.pace, c.zc),
                                 strfmt("%s %s", c.label, p)));
    }
  }
  return out;
}

std::vector<Claim> fig11_claims() {
  return {
      value("default baseline near the paper's 62 Gbps on the LAN", "default LAN", kGbps, 54,
            70, 62),
      ratio("the baseline decays with latency", "default WAN 104ms", "default LAN", kGbps, 0,
            0.9, 50.0 / 62.0),
      value("... toward the paper's 50 Gbps at 104 ms", "default WAN 104ms", kGbps, 42, kInf,
            50),
      ratio("unpaced zerocopy falls short of the paced maximum on the busy WAN",
            "zc-unpaced WAN 54ms", "zc-pace9 WAN 54ms", kGbps, 0, 0.9),
      value("... and retransmits there", "zc-unpaced WAN 54ms", kRetr, 1000, kInf),
      value("9 G/flow pacing is loss-free on the busy WAN", "zc-pace9 WAN 54ms", kRetr, 0, 100),
      ratio("9 G/flow is steadier than 10 G/flow", "zc-pace9 WAN 54ms", "zc-pace10 WAN 54ms",
            kStdev, 0, 1.0),
  };
}

std::vector<TestSpec> table1_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V5_15);
  for (const double pace : {0.0, 25.0, 20.0, 15.0}) {
    out.push_back(TestSpec::on(tb, "LAN", iperf(8, pace),
                               pace > 0 ? strfmt("%.0fG/stream", pace) : "unpaced"));
  }
  return out;
}

std::vector<Claim> table1_claims() {
  return {
      value("unpaced near the paper's 166 Gbps", "unpaced", kGbps, 156, 176, 166),
      ratio("25 G/stream matches unpaced", "25G/stream", "unpaced", kGbps, 0.95, 1.05, 1.0),
      ratio("25 G/stream beats 20 G/stream", "25G/stream", "20G/stream", kGbps, 1.02, 1.2,
            166.0 / 147.0),
      ratio("20 G/stream beats 15 G/stream", "20G/stream", "15G/stream", kGbps, 1.1, 1.4,
            147.0 / 118.0),
      value("15 G/stream near 118 Gbps", "15G/stream", kGbps, 114, 122, 118),
      value("15 G/stream is rock stable", "15G/stream", kStdev, 0, 0.5, 0.1),
  };
}

std::vector<TestSpec> table2_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V5_15);
  for (const double pace : {0.0, 25.0, 20.0, 15.0}) {
    out.push_back(TestSpec::on(tb, "WAN 63ms", iperf(8, pace),
                               pace > 0 ? strfmt("%.0fG/stream", pace) : "unpaced"));
  }
  return out;
}

// Flows interfere whenever the total attempted exceeds ~120 Gbps.
std::vector<Claim> table2_claims() {
  return {
      value("unpaced near the paper's 127 Gbps", "unpaced", kGbps, 117, 137, 127),
      value("unpaced retransmits heavily", "unpaced", kRetr, 15000, kInf, 73000),
      ratio("25 G/stream pacing cuts retransmits", "unpaced", "25G/stream", kRetr, 3.5, kInf,
            73.0 / 22.0),
      value("retransmits persist at 200 G attempted", "25G/stream", kRetr, 1000, kInf, 22000),
      value("... and at 160 G attempted", "20G/stream", kRetr, 1000, kInf, 8000),
      value("retransmits nearly vanish at 120 G attempted", "15G/stream", kRetr, 0, 100, 4000),
      ratio("moderate pacing beats unpaced", "25G/stream", "unpaced", kGbps, 1.02, 1.2,
            136.0 / 127.0),
      value("15 G/stream near 115 Gbps", "15G/stream", kGbps, 109, 121, 115),
  };
}

std::vector<TestSpec> table3_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet_production(kern::KernelVersion::V5_15);
  for (const double pace : {0.0, 15.0, 12.0, 10.0}) {
    out.push_back(TestSpec::on(tb, "production 63ms", iperf(8, pace),
                               pace > 0 ? strfmt("%.0fG/stream", pace) : "unpaced"));
  }
  return out;
}

// With 802.3x, pacing leaves throughput alone until it undershoots the path
// (8 x 10 = 80) and narrows the end-of-run per-flow range to exactly 10-10.
std::vector<Claim> table3_claims() {
  return {
      value("unpaced near the paper's 98 Gbps", "unpaced", kGbps, 91, 101, 98),
      value("15 G/stream: throughput unchanged", "15G/stream", kGbps, 91, 101, 98),
      value("12 G/stream near 93 Gbps", "12G/stream", kGbps, 89, 97, 93),
      value("10 G/stream undershoots to 79 Gbps", "10G/stream", kGbps, 76, 82, 79),
      ratio("pacing cuts retransmits", "unpaced", "10G/stream", kRetr, 2, kInf, 29.0),
      value("unpaced per-flow range 9-16: slowest flow", "unpaced", kFlowMin, 7, 10.5, 9),
      value("unpaced per-flow range 9-16: fastest flow", "unpaced", kFlowMax, 14, 17, 16),
      value("15 G/stream range 10-13: slowest flow", "15G/stream", kFlowMin, 10, 12, 10),
      value("15 G/stream range 10-13: fastest flow", "15G/stream", kFlowMax, 11.5, 13.5, 13),
      value("12 G/stream range 11-12: slowest flow", "12G/stream", kFlowMin, 11, 12, 11),
      value("12 G/stream range 11-12: fastest flow", "12G/stream", kFlowMax, 11.5, 12.5, 12),
      value("10 G/stream range 10-10: slowest flow", "10G/stream", kFlowMin, 9.4, 10.6, 10),
      value("10 G/stream range 10-10: fastest flow", "10G/stream", kFlowMax, 9.4, 10.6, 10),
  };
}

std::vector<TestSpec> fig12_specs() {
  std::vector<TestSpec> out;
  for (const auto k :
       {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5, kern::KernelVersion::V6_8}) {
    const auto tb = esnet(k);
    for (const char* p : {"LAN", "WAN 63ms"}) {
      out.push_back(TestSpec::on(tb, p, iperf(1, 0),
                                 strfmt("kernel %s %s", kern::kernel_version_name(k), p)));
    }
  }
  return out;
}

std::vector<Claim> fig12_claims() {
  return {
      ratio("6.5 over 5.15: +12% on the LAN", "kernel 6.5 LAN", "kernel 5.15 LAN", kGbps, 1.07,
            1.17, 1.12),
      ratio("6.8 over 6.5: +17% on the LAN", "kernel 6.8 LAN", "kernel 6.5 LAN", kGbps, 1.12,
            1.22, 1.17),
      ratio("6.8 over 5.15: over 30% on the LAN", "kernel 6.8 LAN", "kernel 5.15 LAN", kGbps,
            1.28, 1.40, 1.30),
  };
}

std::vector<TestSpec> fig13_specs() {
  std::vector<TestSpec> out;
  for (const auto k :
       {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5, kern::KernelVersion::V6_8}) {
    const auto tb = amlight(k);
    out.push_back(TestSpec::on(tb, "LAN", iperf(1, 0),
                               strfmt("kernel %s LAN default", kern::kernel_version_name(k))));
    out.push_back(with_optmem(
        TestSpec::on(tb, "WAN 25ms", iperf(1, 50, true, true),
                     strfmt("kernel %s WAN zc+pace50", kern::kernel_version_name(k))),
        3405376));
  }
  return out;
}

std::vector<Claim> fig13_claims() {
  return {
      ratio("6.8 over 5.15: +27% on the LAN", "kernel 6.8 LAN default",
            "kernel 5.15 LAN default", kGbps, 1.21, 1.33, 1.27),
      value("WAN pinned at the 50G pacing", "kernel 5.15 WAN zc+pace50", kGbps, 46, 50, 50),
      ratio("... the same on 6.5", "kernel 6.5 WAN zc+pace50", "kernel 5.15 WAN zc+pace50",
            kGbps, 0.97, 1.03, 1.0),
      ratio("... and on 6.8", "kernel 6.8 WAN zc+pace50", "kernel 5.15 WAN zc+pace50", kGbps,
            0.97, 1.03, 1.0),
  };
}

std::vector<TestSpec> ablation_iommu_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V5_15);
  for (const bool pt : {false, true}) {
    auto spec = TestSpec::on(tb, "LAN", iperf(8, 25, true),
                             pt ? "iommu=pt" : "iommu strict");
    spec.sender.tuning.iommu_passthrough = pt;
    spec.receiver.tuning.iommu_passthrough = pt;
    out.push_back(spec);
  }
  return out;
}

std::vector<Claim> ablation_iommu_claims() {
  return {
      value("strict mapping caps aggregate DMA far below the NIC", "iommu strict", kGbps, 50,
            90, 80),
      value("iommu=pt lifts 8 streams", "iommu=pt", kGbps, 150, 190, 181),
      ratio("iommu=pt over strict", "iommu=pt", "iommu strict", kGbps, 2.0, 3.0, 181.0 / 80.0),
  };
}

std::vector<TestSpec> ablation_affinity_specs() {
  std::vector<TestSpec> out;
  const auto tb = amlight(kern::KernelVersion::V6_8);
  for (const bool balanced : {true, false}) {
    auto spec = TestSpec::on(tb, "LAN", iperf(1, 0),
                             balanced ? "irqbalance" : "pinned");
    spec.sender.tuning.irqbalance_disabled = !balanced;
    spec.receiver.tuning.irqbalance_disabled = !balanced;
    spec.repeats = 24;
    out.push_back(spec);
  }
  return out;
}

std::vector<Claim> ablation_affinity_claims() {
  return {
      value("irqbalance: the slowest run near 20 Gbps", "irqbalance", kMin, 15, 30, 20),
      value("irqbalance: the fastest run near 55 Gbps", "irqbalance", kMax, 50, 60, 55),
      ratio("pinning tightens the run-to-run spread", "irqbalance", "pinned", kStdev, 2.5,
            kInf),
      value("pinned: every run above 45 Gbps", "pinned", kMin, 45, kInf),
  };
}

std::vector<TestSpec> ablation_ring_specs() {
  std::vector<TestSpec> out;
  for (const bool amd : {true, false}) {
    const auto tb = amd ? esnet() : amlight();
    const char* path = amd ? "WAN 63ms" : "WAN 54ms";
    for (const int ring : {1024, 8192}) {
      auto spec = TestSpec::on(tb, path, iperf(1, 0, true),
                               strfmt("%s ring%d", amd ? "amd" : "intel", ring));
      spec.sender.tuning.ring_descriptors = ring;
      spec.receiver.tuning.ring_descriptors = ring;
      out.push_back(spec);
    }
  }
  return out;
}

std::vector<Claim> ablation_ring_claims() {
  return {
      ratio("ring 8192 helps AMD", "amd ring8192", "amd ring1024", kGbps, 1.1, 1.4),
      ratio("... not Intel", "intel ring8192", "intel ring1024", kGbps, 0.97, 1.05),
  };
}

std::vector<TestSpec> ablation_cc_specs() {
  std::vector<TestSpec> out;
  const auto tb = esnet(kern::KernelVersion::V6_8);
  for (const auto algo : {kern::CongestionAlgo::Cubic, kern::CongestionAlgo::BbrV1,
                          kern::CongestionAlgo::BbrV3}) {
    for (const double pace : {0.0, 15.0}) {
      auto o = iperf(8, pace);
      o.congestion = algo;
      out.push_back(TestSpec::on(tb, "WAN 63ms", o,
                                 strfmt("%s %s", kern::congestion_name(algo),
                                        pace > 0 ? "pace15" : "unpaced")));
    }
  }
  return out;
}

std::vector<Claim> ablation_cc_claims() {
  return {
      ratio("BBRv1 retransmits more than CUBIC", "bbr unpaced", "cubic unpaced", kRetr, 2,
            kInf),
      ratio("BBRv3 retransmits more than CUBIC", "bbr3 unpaced", "cubic unpaced", kRetr, 2,
            kInf),
      ratio("BBRv1 retransmits the most", "bbr unpaced", "bbr3 unpaced", kRetr, 1.2, kInf),
      value("pacing stabilizes parallel BBRv1", "bbr pace15", kRetr, 0, 100),
      value("... and BBRv3", "bbr3 pace15", kRetr, 0, 100),
      ratio("paced BBR matches paced CUBIC", "bbr pace15", "cubic pace15", kGbps, 0.9, 1.05),
  };
}

}  // namespace

const std::vector<ExperimentDef>& experiment_registry() {
  static const std::vector<ExperimentDef> registry = {
      {"fig4", "Bare metal vs tuned VM (Intel, kernel 5.10)", fig4_specs, fig4_claims()},
      {"fig5", "Single stream, AmLight Intel, kernel 6.8", fig5_specs, fig5_claims()},
      {"fig6", "Single stream, ESnet AMD, kernel 6.8", fig6_specs, fig6_claims()},
      {"fig7", "CPU utilization vs latency, Intel, kernel 6.5", fig7_specs, fig7_claims()},
      {"fig8", "CPU utilization, AMD", fig8_specs, fig8_claims()},
      {"fig9", "optmem_max sweep, Intel 6.5, zc+pace50", fig9_specs, fig9_claims()},
      {"fig10", "8 flows zc+pacing sweep, ESnet 6.8", fig10_specs, fig10_claims()},
      {"fig11", "8 flows, AmLight 6.8, bg traffic", fig11_specs, fig11_claims()},
      {"table1", "ESnet LAN 8 flows, 5.15, no FC", table1_specs, table1_claims()},
      {"table2", "ESnet WAN 8 flows, 5.15, no FC", table2_specs, table2_claims()},
      {"table3", "Production DTNs with 802.3x, 63ms", table3_specs, table3_claims()},
      {"fig12", "Kernel versions, ESnet AMD", fig12_specs, fig12_claims()},
      {"fig13", "Kernel versions, AmLight Intel", fig13_specs, fig13_claims()},
      {"ablation_iommu", "iommu=pt vs strict, 8 streams, 5.15", ablation_iommu_specs,
       ablation_iommu_claims()},
      {"ablation_affinity", "irqbalance vs pinned cores", ablation_affinity_specs,
       ablation_affinity_claims()},
      {"ablation_ring", "ring 1024 vs 8192", ablation_ring_specs, ablation_ring_claims()},
      {"ablation_cc", "CUBIC vs BBRv1/BBRv3, 8 flows WAN", ablation_cc_specs,
       ablation_cc_claims()},
  };
  return registry;
}

const ExperimentDef* find_experiment(const std::string& id) {
  for (const auto& def : experiment_registry()) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

const char* column_name(Column column) {
  report::RunSummary s;
  const char* name = "?";
  const auto visit = [&](const char* key, auto& field, auto...) {
    if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>, double>) {
      if (&field == &(s.*column)) name = key;
    }
  };
  fields(visit, s);
  return name;
}

std::vector<ClaimResult> check_claims(const std::vector<Claim>& claims,
                                      const std::vector<TestResult>& results) {
  const auto cell = [&](const std::string& label) -> const TestResult* {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const TestResult& r) { return r.name == label; });
    return it == results.end() ? nullptr : &*it;
  };
  std::vector<ClaimResult> out;
  out.reserve(claims.size());
  for (const Claim& c : claims) {
    const TestResult* of = cell(c.of);
    const TestResult* over = c.over.empty() ? nullptr : cell(c.over);
    double measured = std::numeric_limits<double>::quiet_NaN();
    if (of && c.over.empty()) {
      measured = of->*c.column;
    } else if (of && over && over->*c.column != 0.0) {
      measured = of->*c.column / over->*c.column;
    }
    out.push_back({&c, measured, c.lo <= measured && measured <= c.hi});
  }
  return out;
}

std::string format_claim(const ClaimResult& result) {
  const Claim& c = *result.claim;
  const auto num = [](double v) { return strfmt(std::fabs(v) >= 1000 ? "%.0f" : "%.4g", v); };
  std::string line = strfmt("%s  %s: %s %s", result.pass ? "PASS" : "FAIL", c.what.c_str(),
                            column_name(c.column), c.of.c_str());
  if (!c.over.empty()) line += " / " + c.over;
  line += strfmt(" = %s, band [%g, %g]", num(result.measured).c_str(), c.lo, c.hi);
  if (!std::isnan(c.paper)) line += ", paper " + num(c.paper);
  return line;
}

bool ExperimentRun::passed() const {
  return std::all_of(claims.begin(), claims.end(),
                     [](const ClaimResult& c) { return c.pass; });
}

ExperimentRun run_experiment(const ExperimentDef& def, double duration_sec, int repeats,
                             const obs::TelemetryConfig& telemetry) {
  ExperimentRun run;
  run.specs = def.specs();
  for (auto& spec : run.specs) {
    spec.iperf.duration_sec = duration_sec;
    if (spec.repeats == 10) spec.repeats = repeats;  // keep explicit overrides
    if (telemetry.enabled) spec.telemetry = telemetry;
  }
  run.results = run_tests(run.specs, 0);
  run.claims = check_claims(def.claims, run.results);
  return run;
}

}  // namespace dtnsim::harness

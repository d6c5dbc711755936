// Ablation (§III-D): iommu=pt.
//
// Paper: "setting iommu=pt increased 8-stream throughput from 80 Gbps to
// 181 Gbps on the ESnet AMD hosts running the 5.15 kernel". Strict IOMMU
// mode pays a map/unmap + IOTLB penalty on every DMA and serializes on the
// mapping lock, which becomes an aggregate ceiling well below the NIC rate.
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main() {
  print_header("Ablation: IOMMU", "iommu=pt vs strict mapping (ESnet AMD, kernel 5.15)",
               "8 streams, zerocopy + pacing 25G, LAN, 60 s x 10");

  const auto tb = harness::esnet(kern::KernelVersion::V5_15);
  Table table({"Boot parameter", "Config", "Throughput", "stdev"});
  double strict_tput = 0, pt_tput = 0;
  for (const bool pt : {false, true}) {
    for (const bool zc : {false, true}) {
      auto spec =
          harness::TestSpec::on(tb, "LAN", {.parallel = 8, .fq_rate_bps = 25e9, .zerocopy = zc});
      for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.iommu_passthrough = pt;
      const auto r = harness::run_test(spec);
      table.add_row({pt ? "iommu=pt" : "strict (default)",
                     zc ? "zerocopy+pace 25G" : "pace 25G", gbps(r.avg_gbps),
                     strfmt("%.1f", r.stdev_gbps)});
      if (zc) (pt ? pt_tput : strict_tput) = r.avg_gbps;
    }
    table.add_separator();
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("Shape check vs paper: strict ~%.0f Gbps -> pt ~%.0f Gbps\n"
              "(paper: 80 -> 181 Gbps; the pt ceiling here is the memory-bandwidth\n"
              "limit of the copy/zerocopy mix rather than the NIC).\n",
              strict_tput, pt_tput);
  return 0;
}

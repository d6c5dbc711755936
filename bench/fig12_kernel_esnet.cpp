// Fig. 12: Kernel version results on the ESnet testbed (AMD host, single
// stream). Paper: 6.5 is ~12% faster than 5.15 and 6.8 ~17% faster than
// 6.5, over 30% total.
//
// Ported to the sweep campaign engine: the kernels x paths grid is declared
// once, cells run on the shared pool (at most --jobs N threads; defaults to
// serial), and a result cache directory (--cache DIR) makes re-runs free.
// Cells come back in grid order — kernels slowest axis, paths fastest — so
// row k, column p is cells[k * paths + p].
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main(int argc, char** argv) {
  print_header("Figure 12", "Kernel versions 5.15 / 6.5 / 6.8 (ESnet AMD, single stream)",
               "default iperf3 settings, LAN + WAN 63 ms, 60 s x 10");

  sweep::GridSpec grid;
  grid.name = "fig12";
  grid.testbed = "esnet";
  grid.kernels = {kern::KernelVersion::V5_15, kern::KernelVersion::V6_5,
                  kern::KernelVersion::V6_8};
  grid.paths = {"LAN", "WAN 63ms"};
  grid.duration_sec = 60;
  grid.repeats = 10;

  sweep::CampaignOptions run = parse_bench_campaign_flags(argc, argv);
  const auto report = sweep::run_campaign(grid, run);

  Table table({"Kernel", "LAN", "WAN 63ms"});
  double lan[3] = {0, 0, 0};
  for (std::size_t k = 0; k < grid.kernels.size(); ++k) {
    std::vector<std::string> row{kern::kernel_version_name(grid.kernels[k])};
    for (std::size_t p = 0; p < grid.paths.size(); ++p) {
      const auto& r = report.cells[k * grid.paths.size() + p].result;
      row.push_back(gbps_pm(r));
      if (p == 0) lan[k] = r.avg_gbps;
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("%s\n", campaign_summary(report).c_str());
  std::printf("Shape checks vs paper (LAN):\n");
  std::printf("  6.5 over 5.15 : %+.0f%%  (paper: ~12%%)\n", (lan[1] / lan[0] - 1) * 100);
  std::printf("  6.8 over 6.5  : %+.0f%%  (paper: ~17%%)\n", (lan[2] / lan[1] - 1) * 100);
  std::printf("  6.8 over 5.15 : %+.0f%%  (paper: >30%%)\n", (lan[2] / lan[0] - 1) * 100);
  return 0;
}

// Fig. 13: Kernel version results on the AmLight testbed (Intel host,
// single stream).
//
// Paper: LAN gains are similar but less dramatic than AMD (6.8 is ~27%
// faster than 5.15); single-stream WAN results are identical across
// kernels because all are pinned at the 50 Gbps pacing rate required to
// protect the receiving host. (The WAN runs here use zerocopy + 50G pacing
// with --skip-rx-copy, the sender-focused configuration; see EXPERIMENTS.md.)
//
// The LAN and WAN 25 ms columns and the claims are the registry's fig13
// entry, so they print what `dtnsim-repro fig13` prints. The registry lacks
// the WAN 104 ms column: its WAN cells, unchanged but for the path.
#include "bench_common.hpp"
#include "dtnsim/harness/experiments.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main() {
  print_header("Figure 13", "Kernel versions 5.15 / 6.5 / 6.8 (AmLight Intel, single stream)",
               "LAN: default; WAN: zerocopy + pacing 50G + skip-rx-copy, 60 s x 10");

  const auto run = harness::run_experiment(*harness::find_experiment("fig13"), 60, 10);
  std::vector<harness::TestSpec> wan104;
  for (auto spec : run.specs) {
    if (spec.path.name != "WAN 25ms") continue;
    spec.path = harness::amlight(spec.sender.kernel.version).path_named("WAN 104ms");
    wan104.push_back(std::move(spec));
  }
  const auto wan104_results = harness::run_tests(wan104, 0);

  // The registry lists each kernel's LAN cell, then its WAN 25 ms cell.
  Table table({"Kernel", "LAN (default)", "WAN 25ms (zc+pace50)", "WAN 104ms (zc+pace50)"});
  for (std::size_t k = 0; k < wan104.size(); ++k) {
    table.add_row({wan104[k].sender.kernel.name, gbps_pm(run.results[2 * k]),
                   gbps_pm(run.results[2 * k + 1]), gbps_pm(wan104_results[k])});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  for (const auto& claim : run.claims) {
    std::printf("  %s\n", harness::format_claim(claim).c_str());
  }
  return run.passed() ? 0 : 1;
}

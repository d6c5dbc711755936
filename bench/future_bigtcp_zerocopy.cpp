// Future work (§V-C): BIG TCP + MSG_ZEROCOPY on a custom kernel with
// MAX_SKB_FRAGS=45.
//
// On stock kernels the two features fight over SKB frags: zerocopy pins one
// 4 KiB page per frag, so MAX_SKB_FRAGS=17 caps zerocopy super-packets near
// 64 KiB regardless of gso_max. Rebuilding with 45 frags lifts that to
// ~180 KiB, letting zerocopy enjoy BIG TCP's per-packet amortization. The
// paper saw up to 65% in preliminary (and admittedly inconsistent) tests.
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main() {
  print_header("Future work: BIG TCP + zerocopy",
               "stock MAX_SKB_FRAGS=17 vs custom 45 (ESnet AMD, kernel 6.8)",
               "single stream LAN, zerocopy, --skip-rx-copy (sender-limited), 60 s x 10");

  auto stock = harness::esnet(kern::KernelVersion::V6_8);
  auto custom = stock;
  custom.sender.kernel = kern::custom_kernel_with_frags(custom.sender.kernel, 45);
  custom.receiver.kernel = kern::custom_kernel_with_frags(custom.receiver.kernel, 45);

  // Show the SKB geometry first — the mechanism the whole experiment hinges on.
  const auto caps17 = kern::skb_caps(stock.sender.kernel, true, units::Bytes(180.0 * 1024));
  const auto caps45 = kern::skb_caps(custom.sender.kernel, true, units::Bytes(180.0 * 1024));
  std::printf("Effective zerocopy super-packet: stock %s, frags45 %s\n\n",
              units::format_bytes(kern::effective_gso_bytes(caps17, true, units::Bytes(9000))).c_str(),
              units::format_bytes(kern::effective_gso_bytes(caps45, true, units::Bytes(9000))).c_str());

  Table table({"Kernel", "BIG TCP", "Throughput", "TX Cores"});
  double base = 0, best = 0, base_cpu = 0, best_cpu = 0;
  struct Row {
    const harness::Testbed* tb;
    bool big;
    const char* label;
  };
  const Row rows[] = {{&stock, false, "6.8 stock"},
                      {&stock, true, "6.8 stock"},
                      {&custom, true, "6.8 MAX_SKB_FRAGS=45"}};
  for (const auto& row : rows) {
    auto spec = harness::TestSpec::on(*row.tb, "LAN", {.zerocopy = true, .skip_rx_copy = true});
    for (auto* h : {&spec.sender, &spec.receiver}) {
      h->tuning.big_tcp_enabled = row.big;
      h->tuning.big_tcp_bytes = 180.0 * 1024;
    }
    const auto r = harness::run_test(spec);
    table.add_row({row.label, row.big ? "180K" : "off", gbps_pm(r), pct(r.snd_cpu_pct)});
    if (!row.big) {
      base = r.avg_gbps;
      base_cpu = r.snd_cpu_pct;
    }
    if (row.tb == &custom) {
      best = r.avg_gbps;
      best_cpu = r.snd_cpu_pct;
    }
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("Shape check vs paper: stacking the features on the custom kernel\n"
              "gains %+.0f%% throughput / %+.0f%% sender CPU (paper: up to +65%%,\n"
              "preliminary and inconsistent; stock-kernel BIG TCP+zc is a no-op\n"
              "because the frag limit clamps the zerocopy super-packet).\n",
              (best / base - 1) * 100, (best_cpu / base_cpu - 1) * 100);
  return 0;
}

// Future work (§V-C): hardware GRO (SHAMPO) on ConnectX-7 with Linux 6.11.
//
// Paper's preliminary numbers on Intel hosts: ~33% single-stream gain with
// a 9000 B MTU and a dramatic ~160% gain with a 1500 B MTU (24 -> 62 Gbps),
// because header-data split removes the per-packet receive work that small
// MTUs multiply.
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main() {
  print_header("Future work: hardware GRO",
               "ConnectX-7 SHAMPO + header-data split (Intel host, kernel 6.11)",
               "single stream LAN, MTU {9000, 1500}, hw-gro {off, on}, 60 s x 10");

  // Intel hosts re-equipped with ConnectX-7 and the 6.11 kernel. The CX-7
  // drain constants in connectx7_200g() are calibrated for the AMD hosts;
  // on the Intel hosts the kernel path drains like the CX-5 numbers.
  auto tb = harness::amlight(kern::KernelVersion::V6_11);
  for (auto* h : {&tb.sender, &tb.receiver}) {
    h->nic = net::connectx7_200g();
    h->nic.line_rate_bps = 100e9;  // ports still connected at 100G
    h->nic.drain_smooth_bps = 52e9;
    h->nic.drain_burst_bps = 42e9;
  }

  // Zerocopy senders keep the sender off the critical path so the receive-
  // side effect is visible (the paper's tests are receiver-focused).
  Table table({"MTU", "HW GRO", "Throughput", "RX Cores"});
  double base9k = 0, hw9k = 0, base15 = 0, hw15 = 0;
  for (const double mtu : {9000.0, 1500.0}) {
    for (const bool hw : {false, true}) {
      auto spec = harness::TestSpec::on(tb, "LAN", {.zerocopy = true});
      for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.mtu_bytes = mtu;
      spec.receiver.tuning.hw_gro_enabled = hw;
      const auto r = harness::run_test(spec);
      table.add_row({strfmt("%.0f", mtu), hw ? "on" : "off", gbps_pm(r),
                     pct(r.rcv_cpu_pct)});
      if (mtu > 2000) (hw ? hw9k : base9k) = r.avg_gbps;
      else (hw ? hw15 : base15) = r.avg_gbps;
    }
    table.add_separator();
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("Shape checks vs paper:\n");
  std::printf("  9000 B gain : %+.0f%%  (paper text: '33%% (62 vs 65 Gbps)' — the\n"
              "                quoted bars are themselves only +5%%; here the\n"
              "                relieved receiver runs into the ~64G path ceiling)\n",
              (hw9k / base9k - 1) * 100);
  std::printf("  1500 B gain : %+.0f%%  (paper: ~160%%, 24 -> 62 Gbps)\n",
              (hw15 / base15 - 1) * 100);
  return 0;
}

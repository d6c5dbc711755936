// Fluid-vs-packet divergence: the bottleneck-attribution report.
//
// The fluid TransferSimulation and the SKB-granular packet engine model the
// same transfer at different scales. This bench runs both engines over the
// same scenarios — paced vs unpaced on LAN and WAN geometries — through one
// shared obs::Telemetry per scenario, then prints flow::divergence_report
// and *fails* when a scenario leaves its calibrated band.
//
// The bands encode which fluid abstractions are trusted at which scale:
//   - paced runs must agree tightly on throughput (pacing is the one knob
//     both engines implement mechanically),
//   - window-limited WAN runs agree once slow-start amortizes,
//   - unpaced LAN runs are *expected* to diverge (the fluid model books
//     per-byte CPU cost against a round, the packet engine serializes
//     per-skb prep), so their band is wide — but still bounded: a blowup
//     beyond it means one of the engines regressed.
// Exits non-zero on any violation, loudly naming the metric and the band.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dtnsim/flow/divergence.hpp"
#include "dtnsim/flow/packet_sim.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

namespace {

struct Scenario {
  std::string name;
  harness::Testbed tb;
  net::PathSpec path;
  double pacing_bps = 0.0;
  double window_bytes = 64e6;     // packet engine's fixed window
  double wmem_max = 0.0;          // fluid: override tcp_wmem_max when > 0
  double fluid_seconds = 10.0;
  double packet_seconds = 0.05;
  // Calibrated ceilings for rel_diff per metric (1.0 = 100%).
  double band_bps = 0.15;
  double band_agg = 0.35;
};

// A scenario's report, and the events its packet pass executed: the
// engine's own work, which no band checks.
struct Outcome {
  flow::DivergenceReport report;
  std::uint64_t packet_events = 0;
};

Outcome run_scenario(const Scenario& sc) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.probe_interval = units::seconds(1);
  obs::Telemetry tel(tcfg);

  // Fluid pass: one stream, long horizon so slow-start amortizes.
  flow::TransferConfig fcfg;
  fcfg.sender = sc.tb.sender;
  fcfg.receiver = sc.tb.receiver;
  fcfg.path = sc.path;
  fcfg.streams = 1;
  fcfg.flow.fq_rate_bps = sc.pacing_bps;
  fcfg.duration = units::SimTime::from_seconds(sc.fluid_seconds);
  fcfg.telemetry = &tel;
  if (sc.wmem_max > 0) {
    fcfg.sender.tuning.sysctl.wmem_max = sc.wmem_max;
    fcfg.sender.tuning.sysctl.tcp_wmem_max = sc.wmem_max;
  }
  flow::run_transfer(fcfg);

  // Packet pass: same hosts/path/pacing, SKB granularity, short horizon.
  flow::PacketSimConfig pcfg;
  pcfg.sender = sc.tb.sender;
  pcfg.receiver = sc.tb.receiver;
  pcfg.path = sc.path;
  pcfg.pacing_bps = sc.pacing_bps;
  pcfg.window_bytes = sc.window_bytes;
  pcfg.duration = units::SimTime::from_seconds(sc.packet_seconds);
  pcfg.telemetry = &tel;
  const auto packet = flow::run_packet_sim(pcfg);

  return {flow::divergence_report(sc.name, tel.registry(),
                                  units::SimTime::from_seconds(sc.fluid_seconds),
                                  units::SimTime::from_seconds(sc.packet_seconds)),
          packet.events};
}

}  // namespace

int main() {
  print_header("Divergence", "fluid vs packet engine, shared telemetry",
               "paced/unpaced x LAN/WAN; calibrated rel-diff bands");

  const auto lan_tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  const auto wan_tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);

  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "lan paced 10G";
    s.tb = lan_tb;
    s.path = lan_tb.lan();
    s.pacing_bps = units::gbps(10);
    scenarios.push_back(s);
  }
  {
    // Unpaced LAN: the engines bottleneck differently by design (fluid
    // books CPU per round; packet serializes per-skb prep and overruns the
    // ring), so the band is wider — measured ~14% plus ring-drop asymmetry.
    Scenario s;
    s.name = "lan unpaced";
    s.tb = lan_tb;
    s.path = lan_tb.lan();
    s.band_bps = 0.35;
    scenarios.push_back(s);
  }
  {
    Scenario s;
    s.name = "wan paced 5G";
    s.tb = wan_tb;
    s.path = harness::amlight_wan(25);
    s.pacing_bps = units::gbps(5);
    s.fluid_seconds = 20.0;  // slow-start is a bigger fraction on WAN
    s.packet_seconds = 0.5;
    s.band_bps = 0.25;
    scenarios.push_back(s);
  }
  {
    // Window-limited WAN: 4 MB of usable send window over 25 ms ~ 1.28 Gbps
    // in both engines (fluid usable window = tcp_wmem_max / 2).
    Scenario s;
    s.name = "wan window-limited";
    s.tb = wan_tb;
    s.path = harness::amlight_wan(25);
    s.window_bytes = 4e6;
    s.wmem_max = 8e6;
    s.fluid_seconds = 20.0;
    s.packet_seconds = 0.5;
    s.band_bps = 0.30;
    scenarios.push_back(s);
  }

  int violations = 0;
  for (const auto& sc : scenarios) {
    const Outcome out = run_scenario(sc);
    const flow::DivergenceReport& rep = out.report;
    std::printf("%s", rep.to_string().c_str());
    std::printf("  packet engine events: %llu\n",
                static_cast<unsigned long long>(out.packet_events));

    const auto check = [&](const char* metric, double band) {
      const auto* e = rep.find(metric);
      if (!e) return;
      if (e->rel_diff() > band) {
        std::printf("  ** VIOLATION: %s rel diff %.1f%% exceeds band %.0f%%\n",
                    metric, e->rel_diff() * 100.0, band * 100.0);
        ++violations;
      }
    };
    check("achieved_bps", sc.band_bps);
    check("aggregate_bytes", sc.band_agg);
    std::printf("\n");
  }

  if (violations > 0) {
    std::printf("%d divergence violation(s): a fluid abstraction broke at\n"
                "packet scale (or an engine regressed). See bands above.\n",
                violations);
    return 1;
  }
  std::printf("All scenarios inside their calibrated bands.\n");
  return 0;
}

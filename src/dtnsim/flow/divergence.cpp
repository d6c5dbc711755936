#include "dtnsim/flow/divergence.hpp"

#include <algorithm>
#include <cmath>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::flow {
namespace {

double safe_rate(double bytes, double seconds) {
  return seconds > 0.0 ? bytes * 8.0 / seconds : 0.0;
}

double safe_frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double DivergenceEntry::rel_diff() const {
  const double scale = std::max(std::fabs(fluid), std::fabs(packet));
  if (scale <= 0.0) return 0.0;
  return std::fabs(packet - fluid) / scale;
}

double DivergenceReport::worst_rel_diff() const {
  double worst = 0.0;
  for (const auto& e : entries) worst = std::max(worst, e.rel_diff());
  return worst;
}

const DivergenceEntry* DivergenceReport::find(const std::string& metric) const {
  for (const auto& e : entries) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

std::string DivergenceReport::to_string() const {
  std::string out = strfmt("divergence [%s]\n", scenario.c_str());
  out += strfmt("  %-16s %14s %14s %8s\n", "metric", "fluid", "packet", "rel");
  for (const auto& e : entries) {
    out += strfmt("  %-16s %14.4g %14.4g %7.1f%%\n", e.metric.c_str(), e.fluid,
                  e.packet, e.rel_diff() * 100.0);
  }
  return out;
}

DivergenceReport divergence_report(const std::string& scenario,
                                   const obs::Registry& reg,
                                   units::SimTime fluid_horizon,
                                   units::SimTime packet_horizon) {
  const double fluid_seconds = fluid_horizon.seconds();
  const double packet_seconds = packet_horizon.seconds();
  DivergenceReport rep;
  rep.scenario = scenario;

  // Throughput: each engine's delivered bytes over its own horizon.
  const double fluid_delivered = reg.value_of(obs::kFluidMetrics.delivered_bytes);
  const double pkt_delivered = reg.value_of(obs::kPacketMetrics.delivered_bytes);
  rep.entries.push_back({"achieved_bps", safe_rate(fluid_delivered, fluid_seconds),
                         safe_rate(pkt_delivered, packet_seconds)});

  // Drop fraction: lost bytes over offered (delivered + lost) bytes. The
  // fluid model loses bytes at the NIC ring and on the path; the packet
  // model only at the ring — path drops there are zero by construction.
  const double fluid_lost =
      reg.value_of("nic.rx_dropped_bytes") + reg.value_of("path.dropped_bytes");
  const double pkt_lost = reg.value_of("pkt.dropped_bytes");
  rep.entries.push_back({"drop_frac",
                         safe_frac(fluid_lost, fluid_delivered + fluid_lost),
                         safe_frac(pkt_lost, pkt_delivered + pkt_lost)});

  // GRO aggregate size: fluid exports the per-tick aggregate estimate as a
  // gauge; the packet engine's histogram is event-weighted so its mean is
  // the mean aggregate size (value_of of a histogram returns the mean).
  rep.entries.push_back({"aggregate_bytes",
                         reg.value_of(obs::kFluidMetrics.gro_aggregate_bytes),
                         reg.value_of(obs::kPacketMetrics.gro_aggregate_bytes)});

  return rep;
}

}  // namespace dtnsim::flow

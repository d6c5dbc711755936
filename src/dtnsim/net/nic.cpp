#include "dtnsim/net/nic.hpp"

#include <algorithm>

namespace dtnsim::net {
namespace {

// Fraction of the ring that is realistically available to absorb one flow's
// trains (descriptors are shared across queues and replenished in batches).
constexpr double kRingCreditFactor = 0.5;

}  // namespace

NicSpec connectx5_100g() {
  NicSpec s;
  s.model = "Nvidia ConnectX-5 (100G)";
  s.line_rate_bps = 100e9;
  s.default_ring_descriptors = 1024;
  s.max_ring_descriptors = 8192;
  s.hw_gro_capable = false;
  s.drain_smooth_bps = 52e9;  // pacing at 50G is loss-free (paper §IV-A)
  s.drain_burst_bps = 42e9;
  return s;
}

NicSpec connectx7_200g() {
  NicSpec s;
  s.model = "Nvidia ConnectX-7 (200G)";
  s.line_rate_bps = 200e9;
  s.default_ring_descriptors = 1024;
  s.max_ring_descriptors = 8192;
  s.hw_gro_capable = true;
  s.drain_smooth_bps = 43e9;  // ESnet pacing choice: 40G per flow
  s.drain_burst_bps = 25e9;   // AMD hosts suffer more under trains
  return s;
}

NicSpec connectx7_400g() {
  NicSpec s = connectx7_200g();
  s.model = "Nvidia ConnectX-7 (400G)";
  s.line_rate_bps = 400e9;
  return s;
}

NicRx::NicRx(const NicSpec& spec, int ring_descriptors, double mtu_bytes,
             bool flow_control_enabled)
    : spec_(spec),
      ring_bytes_(static_cast<double>(std::clamp(ring_descriptors, 64,
                                                 spec.max_ring_descriptors)) *
                  mtu_bytes),
      flow_control_(flow_control_enabled) {}

double NicRx::unpaced_tolerable_bps(double rtt_sec) const {
  // Ring credit: bursts can overfill the drain as long as the backlog fits
  // in the ring once per round-trip's worth of trains.
  const double credit_bps =
      ring_bytes_ * 8.0 / std::max(rtt_sec, 1e-3) * kRingCreditFactor;
  return spec_.drain_burst_bps + credit_bps;
}

RxRound NicRx::round(bool paced, double dt_sec, double rtt_sec) const {
  RxRound r;
  r.dt_sec = dt_sec;
  r.tolerable_bps = paced ? paced_tolerable_bps() : unpaced_tolerable_bps(rtt_sec);
  r.drain_bytes = (paced ? spec_.drain_smooth_bps : spec_.drain_burst_bps) / 8.0 * dt_sec;
  r.usable_ring = ring_bytes_ * kRingCreditFactor;
  r.flow_control = flow_control_;
  return r;
}

}  // namespace dtnsim::net

// NIC model: line rate, RX ring, drain asymmetry, pause frames, HW GRO.
//
// The receive-side drop mechanics the paper keeps returning to live here.
// Two drain rates capture the burst/smooth asymmetry:
//   - drain_smooth_bps: per-flow kernel-path throughput under paced, evenly
//     spaced arrivals (GRO batches well, caches stay warm). The paper picks
//     its pacing rates (50 G AmLight, 40 G ESnet) just below this.
//   - drain_burst_bps: sustainable rate while back-to-back line-rate trains
//     slam the ring (IOTLB/cache thrash, app cannot drain between trains).
//     WAN paths build longer trains (paper §II-D), so unpaced WAN flows
//     equilibrate against this plus whatever the ring can absorb.
// IEEE 802.3x pause frames convert would-be drops into backpressure.
#pragma once

#include <algorithm>
#include <string>

#include "dtnsim/util/fields.hpp"
#include "dtnsim/util/units.hpp"

namespace dtnsim::net {

struct NicSpec {
  std::string model = "generic-100g";
  double line_rate_bps = 100e9;
  int default_ring_descriptors = 1024;
  int max_ring_descriptors = 8192;
  bool hw_gro_capable = false;  // ConnectX-7 SHAMPO (Linux 6.11+)
  // Per-flow kernel drain ceilings (see file comment).
  double drain_smooth_bps = 52e9;
  double drain_burst_bps = 42e9;
};

template <class V>
constexpr void fields(V& v, NicSpec& n) {
  v("model", n.model, wire::unkeyed);
  v("line_rate_bps", n.line_rate_bps);
  v("default_ring", n.default_ring_descriptors);
  v("max_ring", n.max_ring_descriptors);
  v("hw_gro_capable", n.hw_gro_capable);
  v("drain_smooth_bps", n.drain_smooth_bps);
  v("drain_burst_bps", n.drain_burst_bps);
}
static_assert(wire::field_count<NicSpec>() == wire::member_count<NicSpec>());

// AmLight hosts: Nvidia ConnectX-5, 100G, fw 16.35.3502.
NicSpec connectx5_100g();
// ESnet testbed hosts: Nvidia ConnectX-7 at 200G.
NicSpec connectx7_200g();
// Future-work projection hardware.
NicSpec connectx7_400g();

struct RxArrival {
  double bytes = 0.0;       // payload arriving this tick
  bool paced = false;       // sender paced through fq
  double train_bytes = 0.0; // contiguous line-rate train size (unpaced)
};

struct RxVerdict {
  double accepted_bytes = 0.0;
  double dropped_bytes = 0.0;
  bool pause_frames_sent = false;
  // Modeled peak ring occupancy during the tick, as a fraction of ring
  // capacity in [0, 1]. 1.0 means the backlog hit the ring limit (drops or
  // pause frames follow). Exported by the observability probe.
  double ring_occupancy_frac = 0.0;
};

// The terms of a tick's verdict that the NIC, the tick length, the RTT and
// the pacing fix; only the arriving bytes vary per flow. A fluid run
// computes them once per configuration (NicRx::round) and judges each flow's
// round with NicRx::verdict, the one implementation process() also uses.
struct RxRound {
  double dt_sec = 0.0;
  double tolerable_bps = 0.0;  // highest arrival rate accepted without loss
  double drain_bytes = 0.0;    // what the kernel drains in one tick
  double usable_ring = 0.0;    // ring bytes one flow's trains can fill
  bool flow_control = false;   // 802.3x: pause instead of dropping
};

class NicRx {
 public:
  NicRx(const NicSpec& spec, int ring_descriptors, double mtu_bytes,
        bool flow_control_enabled);

  // Evaluate one tick of arrivals for one flow. `dt_sec` is the tick length;
  // `rtt_sec` scales how much ring credit a window's worth of trains can use.
  // Pure: the verdict depends on the arguments and the NIC's config only.
  RxVerdict process(const RxArrival& arrival, double dt_sec, double rtt_sec) const {
    return verdict(arrival.bytes, round(arrival.paced, dt_sec, rtt_sec));
  }

  // process()'s per-tick terms for paced or unpaced arrivals.
  RxRound round(bool paced, double dt_sec, double rtt_sec) const;

  // The verdict on `bytes` arriving in one tick of `r`.
  static RxVerdict verdict(double bytes, const RxRound& r) {
    RxVerdict v;
    if (bytes <= 0 || r.dt_sec <= 0) return v;

    const double rate_bps = bytes * 8.0 / r.dt_sec;
    // Peak backlog the ring sees this tick: what arrives beyond the smooth
    // drain piles up in descriptors until it overflows the usable credit.
    const double backlog = std::max(bytes - r.drain_bytes, 0.0);
    v.ring_occupancy_frac =
        r.usable_ring > 0 ? std::min(backlog / r.usable_ring, 1.0) : 0.0;

    if (rate_bps <= r.tolerable_bps) {
      v.accepted_bytes = bytes;
      return v;
    }

    const double excess_bytes = (rate_bps - r.tolerable_bps) / 8.0 * r.dt_sec;
    if (r.flow_control) {
      // 802.3x: the NIC pauses the link instead of dropping; upstream buffers
      // (switch) absorb and the sender is throttled by backpressure.
      v.accepted_bytes = bytes - excess_bytes;
      v.pause_frames_sent = true;
      return v;
    }

    v.dropped_bytes = std::min(excess_bytes * kDropSeverity, bytes);
    v.accepted_bytes = bytes - v.dropped_bytes;
    return v;
  }

  // Highest *unpaced* arrival rate that avoids drops at this RTT.
  double unpaced_tolerable_bps(double rtt_sec) const;
  // Highest paced rate that avoids drops (RTT-independent).
  double paced_tolerable_bps() const { return spec_.drain_smooth_bps; }

  double ring_bytes() const { return ring_bytes_; }
  const NicSpec& spec() const { return spec_; }
  bool flow_control() const { return flow_control_; }

 private:
  // Fraction of the overflow excess that actually becomes drops within a
  // tick (trains and replenishment interleave; not every excess byte dies).
  static constexpr double kDropSeverity = 0.5;

  NicSpec spec_;
  double ring_bytes_;
  bool flow_control_;
};

}  // namespace dtnsim::net

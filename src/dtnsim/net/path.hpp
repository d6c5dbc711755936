// Network path: RTT, capacity, hops, background traffic, burst tolerance.
//
// The AmLight testbed offers a LAN plus real WAN paths at 25, 54 and 104 ms
// RTT (WAN testing capped at 80 Gbps to protect production traffic, which
// averaged ~16 Gbps during the experiments). The ESnet testbed offers LAN
// and WAN at 200G; the production-DTN pair sits 63 ms apart. Background
// traffic microbursts add the loss noise AmLight's unpaced WAN tests show.
#pragma once

#include <string>

#include "dtnsim/util/fields.hpp"
#include "dtnsim/util/rng.hpp"
#include "dtnsim/util/units.hpp"

namespace dtnsim::net {

struct PathSpec {
  std::string name = "LAN";
  Nanos rtt = units::micros(200);
  double capacity_bps = 100e9;       // policy or port limit on test traffic
  int hops = 1;
  double bg_traffic_bps = 0.0;       // mean competing production traffic
  double bg_burst_sigma = 0.0;       // lognormal sigma of bg microbursts
  // Aggregate unpaced rate above which the path itself (switch buffers along
  // the way) starts cutting burst tails. Infinite for clean local paths.
  double burst_tolerance_bps = 1e18;
  // Deep-buffered backbone (production ESnet): congestion queues instead of
  // cutting tails; losses become rare stochastic tail-drop events.
  bool deep_buffers = false;
  // Mean rate of background micro-loss events per second (competing
  // production traffic occasionally clipping a train), 0 for clean paths.
  double stray_loss_events_per_sec = 0.0;

  double rtt_sec() const { return units::to_seconds(rtt); }
  bool is_wan() const { return rtt >= units::millis(5); }
};

// The display name is cosmetic; the RTT is keyed in integer nanoseconds.
template <class V>
constexpr void fields(V& v, PathSpec& p) {
  v("name", p.name, wire::unkeyed);
  v("rtt_ns", p.rtt);
  v("capacity_bps", p.capacity_bps);
  v("hops", p.hops);
  v("bg_traffic_bps", p.bg_traffic_bps);
  v("bg_burst_sigma", p.bg_burst_sigma);
  v("burst_tolerance_bps", p.burst_tolerance_bps);
  v("deep_buffers", p.deep_buffers);
  v("stray_loss_events_per_sec", p.stray_loss_events_per_sec);
}
static_assert(wire::field_count<PathSpec>() == wire::member_count<PathSpec>());

class Path {
 public:
  explicit Path(const PathSpec& spec) : spec_(spec) {}

  const PathSpec& spec() const { return spec_; }
  // Mid-run respec (scenario events: capacity caps, added RTT, surges).
  // Path is stateless apart from the spec, so a swap takes effect on the
  // next transit() with no other bookkeeping.
  void set_spec(const PathSpec& spec) { spec_ = spec; }

  // Capacity left for test traffic this tick after background microbursts.
  double available_capacity_bps(Rng& rng) const;

  struct Outcome {
    double delivered_bytes = 0.0;
    double dropped_bytes = 0.0;
  };
  // Aggregate tick of test traffic across the path. `smoothness` (>= 1)
  // raises the effective burst tolerance: 1.0 for unpaced trains, ~1.05 for
  // fq-paced traffic, ~1.2 for zerocopy+fq (no copy jitter perturbing the
  // pacing schedule). Unpaced bursts beyond tolerance lose their tails.
  Outcome transit(units::Bytes offered, double dt_sec, bool paced, double smoothness,
                  Rng& rng) const;

 private:
  PathSpec spec_;
};

}  // namespace dtnsim::net

#include "dtnsim/net/qdisc.hpp"

#include <algorithm>

namespace dtnsim::net {

void FqQdisc::set_flow_rate(int flow, double rate_bps) {
  flows_[flow].rate_bps = std::max(rate_bps, 0.0);
}

Nanos FqQdisc::enqueue(int flow, double bytes, Nanos now) {
  FlowState& st = flows_[flow];
  counters_.sent_bytes += bytes;

  // Link serialization applies regardless of pacing.
  const auto wire_ns = static_cast<Nanos>(bytes * 8.0 / line_rate_bps_ * 1e9);
  Nanos depart = std::max(now, link_free_at_);

  if (st.rate_bps > 0.0) {
    const Nanos link_depart = depart;
    depart = std::max(depart, st.next_departure);
    if (depart > link_depart) {
      // Pacing, not the link, held this packet back: fq's "throttled" stat.
      ++counters_.throttled;
      counters_.pacing_delay += depart - link_depart;
    }
    const auto pace_ns = static_cast<Nanos>(bytes * 8.0 / st.rate_bps * 1e9);
    st.next_departure = depart + pace_ns;
  }
  link_free_at_ = depart + wire_ns;
  return depart;
}

}  // namespace dtnsim::net

// fq queueing discipline with per-flow pacing.
//
// The paper's tuning replaces Ubuntu's default fq_codel with fq because fq
// implements per-flow pacing (`iperf3 --fq-rate`, SO_MAX_PACING_RATE).
// FqQdisc is exact at packet level (departure timestamps) and is the packet
// engine's sender qdisc (flow/packet_sim). The fluid engine never runs it:
// each round it caps a flow's bytes at its pacing rate itself and marks the
// traffic "smooth" so the receiver NIC sees paced arrivals instead of
// line-rate trains. fq_codel exists only as kern::QdiscKind::FqCodel, the
// untuned default under which pacing is inert.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dtnsim/units/units.hpp"

namespace dtnsim::net {

// Packet-level fq: per-flow token timing, earliest-departure-first.
class FqQdisc {
 public:
  explicit FqQdisc(double line_rate_bps) : line_rate_bps_(line_rate_bps) {}

  // `tc -s qdisc show dev ... fq`-style statistics. `throttled` counts
  // enqueues that pacing (not link serialization) pushed into the future —
  // fq's "throttled" flows stat; pacing_delay accumulates how far.
  struct Counters {
    double sent_bytes = 0.0;
    std::uint64_t throttled = 0;
    Nanos pacing_delay = 0;
  };

  // 0 disables pacing for the flow (line-rate bursts).
  void set_flow_rate(int flow, double rate_bps);

  // Enqueue `bytes` for `flow` at time `now`; returns the departure time fq
  // schedules (never before now, spaced by the flow's pacing rate, and never
  // faster than the link).
  Nanos enqueue(int flow, double bytes, Nanos now);

  const Counters& counters() const { return counters_; }

 private:
  struct FlowState {
    double rate_bps = 0.0;
    Nanos next_departure = 0;
  };

  double line_rate_bps_;
  Nanos link_free_at_ = 0;
  std::unordered_map<int, FlowState> flows_;
  Counters counters_;
};

}  // namespace dtnsim::net

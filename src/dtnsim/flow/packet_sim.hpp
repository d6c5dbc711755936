// Packet-level (SKB-granularity) simulation.
//
// The main TransferSimulation clocks fluid RTT rounds for 60-second runs;
// this engine simulates every GSO super-packet, wire segment, ring slot,
// NAPI poll and GRO merge as discrete events. It is intentionally limited
// to one flow and short horizons (default 50 ms) — its job is to *validate*
// the fluid model's assumptions at microscopic scale:
//   - fq pacing emits evenly spaced super-packets; unpaced windows leave as
//     line-rate trains,
//   - unpaced trains overrun a slow-draining RX ring while the same rate,
//     paced, survives,
//   - GRO builds aggregates of the expected size,
//   - achieved throughput equals min(pacing, window/RTT, drain).
// Sender and receiver CPU times per super-packet and per segment come from
// the hosts' cost models. tests/test_packet_sim.cpp and the packet cases of
// the obs, scenario and digest tests run it directly; bench/packet_divergence
// compares it with the fluid engine, and the selfperf `packet` workload
// times it on that bench's geometries.
#pragma once

#include <cstdint>
#include <vector>

#include "dtnsim/host/host.hpp"
#include "dtnsim/net/path.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/util/stats.hpp"

namespace dtnsim::flow {

struct PacketSimConfig {
  host::HostConfig sender;
  host::HostConfig receiver;
  net::PathSpec path;
  double pacing_bps = 0.0;      // 0 = unpaced (line-rate trains)
  bool zerocopy = false;
  double window_bytes = 8e6;    // fixed window; no congestion control here
  units::SimTime duration = units::SimTime::from_millis(50);
  // Mid-run fault/condition timeline (scenario::Timeline). Empty = no hook
  // installed (bit-identical to a scenario-less build). The packet engine
  // supports the subset of event kinds with an SKB-level counterpart: loss /
  // reorder bursts, link flap, added RTT, ring resize, pacing retune and IRQ
  // drain degradation; everything else is logged applied=false.
  scenario::Timeline scenario;
  // Seed for scenario jitter only — the engine itself stays deterministic.
  std::uint64_t seed = 1;
  // Optional, non-owning observability sink. When set (and enabled), the run
  // registers the pkt.* metric family, emits spans/instants into the trace,
  // and opens a sampler session on its engine — the same Telemetry a fluid
  // run of the scenario used, so the two engines export comparable series
  // (see flow/divergence.hpp). Default probe cadence (1 s) exceeds the
  // default 50 ms horizon; pass a sub-millisecond probe_interval to get a
  // packet-granular series.
  obs::Telemetry* telemetry = nullptr;
};

struct PacketSimResult {
  std::uint64_t superpackets_sent = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_dropped = 0;   // RX ring overruns
  std::uint64_t segments_lost_path = 0; // scenario loss bursts / link-down
  std::uint64_t aggregates = 0;
  double delivered_bytes = 0.0;
  double achieved_bps = 0.0;
  double mean_aggregate_bytes = 0.0;
  // Inter-departure spacing of super-packets at the sender qdisc.
  double interdeparture_mean_ns = 0.0;
  double interdeparture_stddev_ns = 0.0;
  int ring_peak = 0;                    // max descriptors in use
  // What the scenario runtime fired (empty when no timeline was configured).
  scenario::EventLog scenario_log;
};

PacketSimResult run_packet_sim(const PacketSimConfig& cfg);

}  // namespace dtnsim::flow

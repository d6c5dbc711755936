// Kernel-eye socket/NIC/qdisc snapshots: the simulator's `ss -i`,
// `ethtool -S` and `tc -s qdisc`.
//
// The paper's entire diagnostic method is Linux's introspection surface —
// tcp_info per socket, NIC counters per device, qdisc stats per interface.
// This header defines plain-data snapshot structs mirroring the fields the
// model can honestly populate, text formatters shaped like the real tools'
// output, and a JSON round-trip (dtnsim-ss --json, a RunRecord's ss_log).
// obs::Sampler (sampler.hpp) takes the reports on the simulation clock and
// mirrors headline fields into the shared Registry/trace sinks.
//
// Layering: obs sits below net/tcp/kern, so these structs carry copies of
// engine state. An SsReport is also the fluid engine's accumulator: with ss
// on, its tick writes the per-round counters (bytes sent, send and delivery
// rates, NIC and qdisc counters) into one with a socket per flow, and its ss
// view copies that and fills in the rest from the flows at sample time. The
// packet engine's view builds a report from counters it keeps anyway.
// Nothing here touches model behaviour — the views only read.
#pragma once

#include <string>
#include <vector>

#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/util/fields.hpp"

namespace dtnsim::obs {

// One socket's `ss -i` / tcp_info view. Fields map 1:1 onto struct tcp_info
// members where a counterpart exists (docs/OBSERVABILITY.md has the table);
// zerocopy/optmem fields extend it the way `ss --memory` + the MSG_ZEROCOPY
// error-queue counters would on a real DTN.
struct TcpInfoSnapshot {
  int flow = 0;
  std::string ca_name = "cubic";        // tcpi_ca_state's algorithm name
  bool in_slow_start = false;           // snd_cwnd < snd_ssthresh
  double mss_bytes = 0.0;               // tcpi_snd_mss
  double snd_cwnd_bytes = 0.0;          // tcpi_snd_cwnd * mss
  double snd_ssthresh_bytes = 0.0;      // tcpi_snd_ssthresh * mss (0: BBR)
  double rtt_sec = 0.0;                 // tcpi_rtt
  double rttvar_sec = 0.0;              // tcpi_rttvar
  double min_rtt_sec = 0.0;             // tcpi_min_rtt
  double pacing_rate_bps = 0.0;         // tcpi_pacing_rate
  double delivery_rate_bps = 0.0;       // tcpi_delivery_rate
  bool delivery_rate_app_limited = false;  // tcpi_delivery_rate_app_limited
  double send_rate_bps = 0.0;           // ss's computed "send" figure
  double bytes_sent = 0.0;              // tcpi_bytes_sent (wire, cumulative)
  double bytes_acked = 0.0;             // tcpi_bytes_acked
  double bytes_retrans = 0.0;           // tcpi_bytes_retrans
  double segs_retrans = 0.0;            // tcpi_total_retrans
  double notsent_bytes = 0.0;           // tcpi_notsent_bytes
  double rcv_space_bytes = 0.0;         // tcpi_rcv_space (advertised headroom)
  // Receiver-side estimates — observable once loss/reorder events (scenario
  // timelines, retransmitted holes) make the receive path interesting.
  double rcv_rtt_sec = 0.0;             // tcpi_rcv_rtt (receiver's estimate)
  double rcv_ooopack = 0.0;             // tcpi_rcv_ooopack (out-of-order segs)
  // MSG_ZEROCOPY accounting (the Fig. 9 knee lives here).
  double optmem_used_bytes = 0.0;       // in-flight ubuf_info charges
  double optmem_max_bytes = 0.0;        // net.core.optmem_max
  double optmem_hiwater_bytes = 0.0;    // lifetime peak charge
  double zc_sent_bytes = 0.0;           // pinned sends (no copy)
  double zc_copied_bytes = 0.0;         // SO_EE_CODE_ZEROCOPY_COPIED fallbacks
  double zc_copied_sends = 0.0;         // sends that (partially) fell back
};

// `ethtool -S`-style device counters (receiver NIC). Cumulative since run
// start, except the high-water gauge.
struct NicCountersSnapshot {
  std::string device;                   // NicSpec model name
  double rx_bytes = 0.0;                // accepted into the host
  double rx_dropped_bytes = 0.0;        // rx_out_of_buffer payload
  double rx_dropped_events = 0.0;       // ticks/bursts with ring overrun
  double rx_ring_hiwater_frac = 0.0;    // peak ring fill in [0, 1]
  double tx_pause_frames = 0.0;         // 802.3x pause sent (rx -> tx side)
  double rx_pause_frames = 0.0;         // pause observed by the sender
  double hw_gro_coalesced = 0.0;        // SHAMPO-merged aggregates
};

// `tc -s qdisc`-style counters for the sender's root qdisc.
struct QdiscCountersSnapshot {
  std::string kind = "fq";              // fq | fq_codel
  double sent_bytes = 0.0;
  double throttled = 0.0;               // pacing held traffic back
  double pacing_delay_sec = 0.0;        // cumulative pacing-induced delay
  double drops = 0.0;                   // fq_codel sojourn drops
  double backlog_bytes = 0.0;           // enqueued, not yet departed
};

// One dtnsim-ss sample: everything an operator would pull at time `ts`.
struct SsReport {
  Nanos ts = 0;
  std::string engine;                   // "fluid" | "packet"
  std::string label;                    // test/cell name (merged dumps)
  std::vector<TcpInfoSnapshot> sockets;
  NicCountersSnapshot nic;
  QdiscCountersSnapshot qdisc;

  double total_bytes_acked() const;
  double total_delivery_rate_bps() const;
};

// ---- text renderers (shaped like the real tools' output) -----------------
std::string format_tcp_info(const TcpInfoSnapshot& s);
std::string format_ethtool(const NicCountersSnapshot& s);
std::string format_tc(const QdiscCountersSnapshot& s);
// Full report: per-socket blocks + NIC + qdisc sections.
std::string format_ss(const SsReport& r);
// Side-by-side comparison of two reports (`dtnsim-ss --diff sick.json
// tuned.json`): one row per headline field with the B-A delta, so a "sick"
// and a "tuned" recording of the same scenario can be read in one table.
std::string format_ss_diff(const SsReport& a, const SsReport& b);

// ---- JSON round-trip (dtnsim-ss --json, RunRecord::ss_log) ----------------
// One key list per struct (util/fields.hpp) drives both directions.
template <class V>
constexpr void fields(V& v, TcpInfoSnapshot& s) {
  v("flow", s.flow);
  v("ca_name", s.ca_name);
  v("in_slow_start", s.in_slow_start);
  v("mss_bytes", s.mss_bytes);
  v("snd_cwnd_bytes", s.snd_cwnd_bytes);
  v("snd_ssthresh_bytes", s.snd_ssthresh_bytes);
  v("rtt_sec", s.rtt_sec);
  v("rttvar_sec", s.rttvar_sec);
  v("min_rtt_sec", s.min_rtt_sec);
  v("pacing_rate_bps", s.pacing_rate_bps);
  v("delivery_rate_bps", s.delivery_rate_bps);
  v("delivery_rate_app_limited", s.delivery_rate_app_limited);
  v("send_rate_bps", s.send_rate_bps);
  v("bytes_sent", s.bytes_sent);
  v("bytes_acked", s.bytes_acked);
  v("bytes_retrans", s.bytes_retrans);
  v("segs_retrans", s.segs_retrans);
  v("notsent_bytes", s.notsent_bytes);
  v("rcv_space_bytes", s.rcv_space_bytes);
  v("rcv_rtt_sec", s.rcv_rtt_sec);
  v("rcv_ooopack", s.rcv_ooopack);
  v("optmem_used_bytes", s.optmem_used_bytes);
  v("optmem_max_bytes", s.optmem_max_bytes);
  v("optmem_hiwater_bytes", s.optmem_hiwater_bytes);
  v("zc_sent_bytes", s.zc_sent_bytes);
  v("zc_copied_bytes", s.zc_copied_bytes);
  v("zc_copied_sends", s.zc_copied_sends);
}
static_assert(wire::field_count<TcpInfoSnapshot>() == wire::member_count<TcpInfoSnapshot>());

template <class V>
constexpr void fields(V& v, NicCountersSnapshot& n) {
  v("device", n.device);
  v("rx_bytes", n.rx_bytes);
  v("rx_dropped_bytes", n.rx_dropped_bytes);
  v("rx_dropped_events", n.rx_dropped_events);
  v("rx_ring_hiwater_frac", n.rx_ring_hiwater_frac);
  v("tx_pause_frames", n.tx_pause_frames);
  v("rx_pause_frames", n.rx_pause_frames);
  v("hw_gro_coalesced", n.hw_gro_coalesced);
}
static_assert(wire::field_count<NicCountersSnapshot>() ==
              wire::member_count<NicCountersSnapshot>());

template <class V>
constexpr void fields(V& v, QdiscCountersSnapshot& q) {
  v("kind", q.kind);
  v("sent_bytes", q.sent_bytes);
  v("throttled", q.throttled);
  v("pacing_delay_sec", q.pacing_delay_sec);
  v("drops", q.drops);
  v("backlog_bytes", q.backlog_bytes);
}
static_assert(wire::field_count<QdiscCountersSnapshot>() ==
              wire::member_count<QdiscCountersSnapshot>());

template <class V>
constexpr void fields(V& v, SsReport& r) {
  v("ts_sec", wire::seconds(r.ts));
  v("engine", r.engine);
  v("label", r.label);
  v("sockets", r.sockets);
  v("nic", r.nic);
  v("qdisc", r.qdisc);
}
static_assert(wire::field_count<SsReport>() == wire::member_count<SsReport>());

// A watch log as one document: {"snapshots": [...]}.
struct SsLog {
  std::vector<SsReport>& snapshots;
};
template <class V>
void fields(V& v, SsLog& log) {
  v("snapshots", log.snapshots);
}

Json to_json(const TcpInfoSnapshot& s);
Json ss_log_to_json(const std::vector<SsReport>& log);

// A snapshot's summed bytes_acked must equal what the run's probe-facing
// delivered-bytes counter (`counter`, the engine's EngineMetrics row) gained
// since `baseline`, its value when the run began; the sampler checks every
// ss sample. Throws std::logic_error on divergence — the two surfaces
// reporting different totals would mean the "ss view" and the "iperf3 view"
// of one run disagree.
void cross_check_delivered(const SsReport& report, const Registry& registry,
                           const std::string& counter, double baseline);

}  // namespace dtnsim::obs

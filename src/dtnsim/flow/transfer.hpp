// TransferSimulation: one memory-to-memory transfer, end to end.
//
// This is the engine that couples every substrate. Flows are clocked in
// rounds of 1 to 32 RTTs (a power of two) on the discrete-event engine (a
// round grows while the transfer is steady; see docs/MODEL.md section 1);
// within a round the sender's achievable bytes are the minimum of
//   window (cwnd, receiver window, wmem) / pacing (fq-rate, BBR) /
//   app-core CPU / IRQ-core CPU / NIC line rate / memory bandwidth / DMA cap,
// the burst then crosses the path (background traffic, burst-tolerance
// trimming), hits the receiver NIC (ring-overflow drops or pause frames) and
// the receiver's CPU (socket backlog -> advertised window), and the ACK
// feedback updates congestion control and zerocopy optmem charges.
//
// With a Telemetry attached, each round also updates the run's metrics, and
// with ss or perf on it accumulates straight into an obs::SsReport (one
// socket per flow) and an obs::PerfReport (one cycle row per flow), which
// the sampler's views copy at each sample.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "dtnsim/host/host.hpp"
#include "dtnsim/kern/zc_socket.hpp"
#include "dtnsim/net/path.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/tcp/cc.hpp"
#include "dtnsim/tcp/rtt.hpp"
#include "dtnsim/util/rng.hpp"
#include "dtnsim/util/stats.hpp"

namespace dtnsim::sim {
class Engine;
}

namespace dtnsim::flow {

struct FlowOptions {
  bool zerocopy = false;      // iperf3 --zerocopy=z (MSG_ZEROCOPY)
  bool skip_rx_copy = false;  // iperf3 --skip-rx-copy (MSG_TRUNC)
  double fq_rate_bps = 0.0;   // iperf3 --fq-rate, 0 = unpaced
  kern::CongestionAlgo congestion = kern::CongestionAlgo::Cubic;
};

struct TransferConfig {
  host::HostConfig sender;
  host::HostConfig receiver;
  net::PathSpec path;
  int streams = 1;                     // iperf3 -P
  FlowOptions flow;
  bool link_flow_control = false;      // IEEE 802.3x on the receiver's link
  units::SimTime duration = units::SimTime::from_seconds(60);
  std::uint64_t seed = 1;
  // Optional, non-owning observability sink. When set, the run registers
  // its metrics there, opens a sampler session on its engine, and records
  // trace events; when null the cost is one branch per tick.
  obs::Telemetry* telemetry = nullptr;
  // Optional mid-run event timeline. When empty the hook costs one branch
  // per tick and the run is bit-identical to a build without the scenario
  // subsystem (the wants_ss()/wants_perf() zero-cost pattern).
  scenario::Timeline scenario;
};

struct CpuUtilization {
  // Fractions of one core (app) / of the IRQ pool; cores_pct is the Fig. 7/8
  // "TX/RX Cores" metric (iperf3 + IRQ cores, in percent, can exceed 100).
  double app_util = 0.0;
  double irq_util = 0.0;
  double cores_pct = 0.0;
};

struct TransferResult {
  double duration_sec = 0.0;
  double throughput_bps = 0.0;            // aggregate goodput
  std::vector<double> per_flow_bps;
  double retransmit_segments = 0.0;
  CpuUtilization sender_cpu;
  CpuUtilization receiver_cpu;
  double zc_bytes = 0.0;
  double zc_fallback_bytes = 0.0;
  std::vector<double> interval_bps;       // 1-second interval series
  // Diagnostics
  double dropped_bytes_nic = 0.0;
  double dropped_bytes_path = 0.0;
  bool pause_frames_seen = false;
  // Events crossed during the run (empty when no scenario was attached).
  scenario::EventLog scenario_log;
  // Rounds the run executed: the simulator's work, not simulated output
  // (PacketSimResult::events is the packet engine's count).
  std::uint64_t rounds = 0;
};

class TransferSimulation {
 public:
  explicit TransferSimulation(TransferConfig cfg);

  TransferResult run();

 private:
  struct FlowState {
    std::unique_ptr<tcp::CongestionControl> cc;
    kern::ZcTxSocket zc_socket{units::Bytes(0.0)};
    tcp::RttEstimator rtt;
    double inflight_bytes = 0.0;
    double rcv_backlog_bytes = 0.0;
    double delivered_bytes = 0.0;
    double retransmit_segments = 0.0;
    double share_jitter = 1.0;
    // Persistent per-flow bias for the run (hash placement, NUMA luck):
    // per-flow averages differ across a whole run, not just per tick.
    double static_bias = 1.0;
    // EWMA of the bytes sent per RTT ~= sustained in-flight data; drives the
    // sender's cache-pressure multiplier.
    double prev_sent_bytes = 0.0;
    // Scratch, valid within one tick:
    double planned_bytes = 0.0;
    double zc_planned = 0.0;
    double fb_planned = 0.0;
    double sent_bytes = 0.0;
    double arrived_bytes = 0.0;
    double lost_bytes = 0.0;
    bool rwnd_bound = false;  // the receive window alone set the send
    // The round's app-core TX price; its stage split is written only with
    // perf on.
    obs::StagePrice tx_app{};
  };

  // Metric handles and trace edge-detection state, built only when a
  // Telemetry sink is attached (see setup_telemetry).
  struct Instruments {
    // tcp (flow 0 is the representative stream for window dynamics)
    obs::Gauge* cwnd = nullptr;
    obs::Gauge* ssthresh = nullptr;
    obs::Gauge* pacing_rate = nullptr;
    obs::Gauge* srtt = nullptr;
    obs::Gauge* slow_start = nullptr;
    obs::Counter* retx = nullptr;
    obs::TimeWeightedHistogram* cwnd_hist = nullptr;
    // zerocopy (summed across flows' sockets)
    obs::Gauge* optmem_used = nullptr;
    obs::Gauge* optmem_max = nullptr;
    obs::Counter* zc_bytes = nullptr;
    obs::Counter* fb_bytes = nullptr;
    obs::Counter* fb_events = nullptr;
    obs::TimeWeightedHistogram* optmem_frac_hist = nullptr;
    // net
    obs::Gauge* ring_occupancy = nullptr;
    obs::Counter* nic_drops = nullptr;
    obs::Counter* pause_ticks = nullptr;
    obs::Counter* path_drops = nullptr;
    obs::Gauge* trim_frac = nullptr;
    // flow / cpu
    obs::Gauge* goodput = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Gauge* gro_agg = nullptr;
    obs::Gauge* sent_rate = nullptr;
    obs::Gauge* rcv_backlog = nullptr;
    // Per-flow tracks: one labeled instance per stream ("tcp.cwnd_bytes
    // {flow=3}"), registered in flow-index order for stable columns.
    std::vector<obs::Gauge*> flow_cwnd;
    std::vector<obs::Gauge*> flow_goodput;
    std::vector<obs::Counter*> flow_retx;
    // Per-flow skew (Table III "Range" as a time series).
    obs::Gauge* flow_bps_min = nullptr;
    obs::Gauge* flow_bps_max = nullptr;
    obs::Gauge* flow_bps_range = nullptr;
    obs::Gauge* snd_app = nullptr;
    obs::Gauge* snd_irq = nullptr;
    obs::Gauge* rcv_app = nullptr;
    obs::Gauge* rcv_irq = nullptr;
    obs::Gauge* limit_code = nullptr;
    obs::Counter* limit_ticks[8] = {};  // indexed by RoundLimit
    // scenario.* family — registered only when a scenario is attached so
    // scenario-free telemetry runs keep their probe columns unchanged.
    obs::Counter* scn_events = nullptr;
    obs::Gauge* scn_active_flows = nullptr;
    // Trace edge detection (the limit's edge is the run's last_limit_)
    bool in_fallback = false;
    bool in_trim = false;
    bool pause_active = false;
    bool flow0_slow_start = true;
    // The ss and perf accumulators, allocated only when the Telemetry wants
    // ss or perf, so a plain telemetry run makes no snapshot or attribution
    // updates. The tick writes its per-round counters into them; the views
    // handed to the sampler copy them and fill in what they read from the
    // flows at sample time.
    std::unique_ptr<obs::SsReport> ss;
    std::unique_ptr<obs::PerfReport> perf;
  };

  // Everything a round reads that only the run's configuration and the
  // round's length determine: window caps, SKB geometry, per-round
  // CPU/memory/line/DMA budgets, the geometry-only prices (the terms of the
  // app-core TX price, tx_app, and the other three core groups' prices,
  // each with its stage split), and the receiver NIC's verdict terms for
  // paced and unpaced rounds (tolerable rate, drain per round, usable ring).
  // refresh_round() is the only writer: it runs before the first round and
  // again only when apply_scenario() crosses a boundary, never per round.
  // It fills one entry per round span (rc_[k] for 2^k RTTs): the budgets,
  // caps and NIC terms scale with the round's length, the rest is shared.
  struct RoundConsts {
    double dt_sec = 0.0;  // round length: 2^k base rounds of dt_sec_
    double rtt = 0.0;     // path RTT, floored at 1 us
    double mss = 0.0;
    bool zc_req = false;   // MSG_ZEROCOPY requested and supported
    double fq_rate = 0.0;  // fq pacing rate; 0 unless the qdisc is fq
    double mtu = 0.0;
    double gso = 0.0;
    double gro = 0.0;
    double snd_wnd_max = 0.0;
    double rcv_wnd_max = 0.0;
    // Per-round budgets: app budgets are per flow, IRQ budgets pooled.
    double snd_app_budget = 0.0;
    double rcv_app_budget = 0.0;
    double snd_irq_budget = 0.0;
    double rcv_irq_budget = 0.0;  // scenario IRQ degradation applied
    double snd_mem_budget = 0.0;
    double line_bytes = 0.0;
    double snd_dma_bytes = 0.0;
    // Sender per-byte prices that depend on geometry only; a flow's app-core
    // price is tx_app.per_byte() of its zerocopy split and cache pressure.
    cpu::TxAppPrice tx_app{};
    obs::StagePrice tx_irq{};
    double tx_mem_passes = 0.0;
    // Receiver per-byte prices and the caps they imply.
    obs::StagePrice rx_app{};
    obs::StagePrice rx_irq{};
    double rx_app_cap = 0.0;   // bytes one flow's app core drains per round
    double rx_host_cap = 0.0;  // bytes the receiver's IRQ/DMA/memory accept
    double md_floor = 0.0;     // loss that triggers a multiplicative decrease
    // The receiver NIC's per-round verdict terms (net::NicRx::round).
    net::RxRound nic_paced{};
    net::RxRound nic_unpaced{};
  };

  void refresh_round();
  void schedule_round();
  // Picks the span of the round that starts at now_ns (span_) and returns
  // false when no round fits before the run ends.
  bool plan_round(Nanos now_ns);
  // One round of 2^span_ RTTs.
  void tick(double now_sec);
  // Crosses scenario boundaries up to now_sec, re-applies the folded
  // overlay onto cfg_/path_ and rebuilds rc_ from them, so a mutation lands
  // on this round. Called only when a scenario is attached (scn_ non-null).
  void apply_scenario(double now_sec);
  // The width of a one-RTT round's jitter draws (see tick).
  double jitter_sigma() const;
  double mss() const;
  void setup_telemetry(sim::Engine& engine);
  // dtnsim-ss's payload: the ss accumulator plus each flow's tcp_info state
  // (window, RTT, zerocopy socket counters) and the qdisc kind as they
  // stand. Called only while an ss-enabled Telemetry is attached; pure read.
  obs::SsReport build_ss_report() const;

  TransferConfig cfg_;
  host::Host sender_;
  host::Host receiver_;
  net::Path path_;
  Rng rng_;

  std::vector<FlowState> flows_;
  // The base round: one RTT, floored at 200 us, fixed for the run. A round
  // spans 2^span_ base rounds (1 to 32 RTTs, at most 6.4 ms): span_ doubles
  // after a steady round (no loss, no flow bound by cwnd or wmem, none bound
  // by a receive window off its fixed point, zerocopy charges with headroom,
  // the same binding constraint) and drops to 1 RTT otherwise. Only
  // simulation state sets it, never the telemetry.
  double dt_sec_ = 0.0;
  Nanos tick_ns_ = 0;
  int span_ = 0;         // the span of the round being run
  int span_earned_ = 0;  // the span the doubling rule allows next
  int span_max_ = 0;     // the span cap for this run's base round
  std::array<RoundConsts, 6> rc_;  // rc_[k]: a round of 2^k RTTs
  cpu::PlacementQuality snd_quality_;
  cpu::PlacementQuality rcv_quality_;
  std::unique_ptr<cpu::CostModel> snd_cost_;
  std::unique_ptr<cpu::CostModel> rcv_cost_;

  // Accumulated utilization (cycle-weighted across the run).
  RunningStats snd_app_util_, snd_irq_util_, rcv_app_util_, rcv_irq_util_;
  double total_delivered_ = 0.0;
  double total_retx_ = 0.0;
  double dropped_nic_ = 0.0;
  double dropped_path_ = 0.0;
  bool pause_seen_ = false;
  double last_trim_frac_ = 0.0;  // path contention level, feeds jitter width
  double run_efficiency_ = 1.0;  // per-run host efficiency (cache/NUMA luck)
  std::vector<double> interval_bps_;
  double interval_accum_bytes_ = 0.0;
  double interval_elapsed_ = 0.0;
  std::uint64_t rounds_ = 0;
  obs::RoundLimit last_limit_ = obs::RoundLimit::None;  // last round's binding constraint

  obs::Telemetry* tel_ = nullptr;           // == cfg_.telemetry during run()
  std::unique_ptr<Instruments> instr_;
  sim::Engine* engine_ = nullptr;           // valid during run()

  // Scenario state, allocated only when cfg_.scenario is non-empty. The
  // base_* copies are the t=0 configuration the Effects overlay folds onto;
  // the scn_* caches mirror the overlay fields that refresh_round() and the
  // tick read.
  std::unique_ptr<scenario::Runtime> scn_;
  net::PathSpec scn_base_path_;
  int scn_base_ring_ = 0;
  bool scn_base_lfc_ = false;
  kern::QdiscKind scn_base_qdisc_ = kern::QdiscKind::FqCodel;
  double scn_base_fq_rate_ = 0.0;
  double scn_base_optmem_ = 0.0;
  double scn_loss_frac_ = 0.0;
  double scn_reorder_frac_ = 0.0;
  double scn_irq_mult_ = 1.0;
  int scn_active_flows_ = 0;
};

// Convenience one-shot runner.
TransferResult run_transfer(const TransferConfig& cfg);

}  // namespace dtnsim::flow

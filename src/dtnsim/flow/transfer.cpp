#include "dtnsim/flow/transfer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "dtnsim/kern/gro.hpp"
#include "dtnsim/kern/gso.hpp"
#include "dtnsim/sim/engine.hpp"
#include "dtnsim/util/log.hpp"

namespace dtnsim::flow {
namespace {

// Fluid tick floor: LAN RTTs below this are clocked at 200 us base rounds.
constexpr double kMinTickSec = 200e-6;
// A round spans 2^span base rounds, span <= kMaxSpan, and never more than
// 32 floor ticks (6.4 ms), so WAN rounds (25 ms and up) always span one RTT.
constexpr int kMaxSpan = 5;
constexpr double kMaxRoundSec = 32 * kMinTickSec;
// A receive-window-bound flow is at its fixed point when its backlog ends
// a round where it began, to this fraction of the receive buffer: rounds of
// different spans leave the same backlog an ulp or so apart.
constexpr double kBacklogRoundoff = 1e-12;
// Multiplicative jitter persistence (OU-like) and magnitudes. Unpaced flows
// contend chaotically (paper: 5-30 Gbps per-flow spread); paced flows are
// nearly uniform.
constexpr double kJitterRho = 0.9;
constexpr double kJitterSigmaUnpaced = 0.30;
constexpr double kJitterSigmaPaced = 0.045;
// Cache-pressure EWMA over the bytes sent per RTT.
constexpr double kEwmaKeep = 0.7;
constexpr double kEwmaNew = 0.3;

// What one round of `rtts` base rounds advances in a single step. The
// jitter recursion J <- rho J + (1 - rho) T, run K times, is
// J <- rho^K J + (1 - rho) sum_i rho^i T_i; the round draws that sum as
// (1 - rho^K) T_K, with T_K keeping T's mean and `jitter_var` of its
// variance. The cache-pressure EWMA steps K times on the round's mean
// bytes per RTT. Entry 0 holds the one-RTT constants as written (0.3, not
// 1 - 0.7, which rounds to another double): the engine digests pin
// one-RTT rounds bit for bit.
struct Span {
  double rtts;
  double per_rtt;      // 1 / K, exact for a power of two
  double jitter_keep;  // rho^K
  double jitter_new;   // 1 - rho^K
  double jitter_var;   // (1 - rho)(1 - rho^2K) / ((1 + rho)(1 - rho^K)^2)
  double ewma_keep;    // 0.7^K
  double ewma_new;     // 1 - 0.7^K
};

constexpr double power(double x, int n) {
  double r = 1.0;
  for (int i = 0; i < n; ++i) r *= x;
  return r;
}

constexpr Span span_of(int span) {
  const int k = 1 << span;
  const double keep = power(kJitterRho, k);
  return {static_cast<double>(k),
          1.0 / static_cast<double>(k),
          keep,
          1.0 - keep,
          (1.0 - kJitterRho) * (1.0 - keep * keep) /
              ((1.0 + kJitterRho) * (1.0 - keep) * (1.0 - keep)),
          power(kEwmaKeep, k),
          1.0 - power(kEwmaKeep, k)};
}

constexpr std::array<Span, kMaxSpan + 1> kSpans = {
    Span{1.0, 1.0, kJitterRho, 1.0 - kJitterRho, 1.0, kEwmaKeep, kEwmaNew}, span_of(1), span_of(2),
    span_of(3), span_of(4), span_of(5)};

// Rounds that get a Begin/End span pair in the trace; later rounds still
// emit instants and counters (a LAN run whose rounds stay at one RTT ticks
// 300k times per simulated minute, which would drown the trace ring in span
// pairs).
constexpr std::size_t kMaxRoundSpans = 128;

double scale_factor(double need, double budget) {
  if (need <= 0) return 1.0;
  // 0 < need <= budget: the correctly rounded quotient is >= 1 and clamps
  // to exactly 1.0, so skip the division. (An infinite need divides: inf/inf
  // is NaN, which the clamp passes through.)
  if (need <= budget && need < std::numeric_limits<double>::infinity()) return 1.0;
  return std::clamp(budget / need, 0.0, 1.0);
}

}  // namespace

TransferSimulation::TransferSimulation(TransferConfig cfg)
    : cfg_(std::move(cfg)),
      sender_(cfg_.sender),
      receiver_(cfg_.receiver),
      path_(cfg_.path),
      rng_(cfg_.seed) {
  const int n = std::max(cfg_.streams, 1);
  snd_quality_ = cpu::assess_placement(sender_.topology(), sender_.sample_placement(n, rng_));
  rcv_quality_ =
      cpu::assess_placement(receiver_.topology(), receiver_.sample_placement(n, rng_));
  snd_cost_ = std::make_unique<cpu::CostModel>(sender_.make_cost_model(snd_quality_));
  rcv_cost_ = std::make_unique<cpu::CostModel>(receiver_.make_cost_model(rcv_quality_));

  // Run-to-run variation from page placement / cache luck — the whiskers on
  // every plot in the paper.
  run_efficiency_ = rng_.lognormal(1.0, 0.035);

  flows_.resize(static_cast<std::size_t>(n));
  const double bias_sigma =
      n > 1 ? (cfg_.flow.fq_rate_bps > 0.0 ? 0.06 : 0.16) : 0.0;
  for (auto& f : flows_) {
    f.cc = tcp::make_congestion_control(cfg_.flow.congestion, mss());
    f.zc_socket = kern::ZcTxSocket(units::Bytes(cfg_.sender.tuning.sysctl.optmem_max));
    f.static_bias = bias_sigma > 0 ? rng_.lognormal(1.0, bias_sigma) : 1.0;
  }
}

double TransferSimulation::mss() const {
  return std::max(cfg_.sender.tuning.mtu_bytes - 40.0, 536.0);
}

double TransferSimulation::jitter_sigma() const {
  const bool paced = cfg_.flow.fq_rate_bps > 0.0;
  double sigma = paced ? kJitterSigmaPaced : kJitterSigmaUnpaced;
  // A lone flow still sees scheduler/cache noise, just far less contention.
  if (flows_.size() == 1) sigma = 0.03;
  // Contention on the path widens the spread even for paced flows.
  sigma *= 1.0 + 4.0 * last_trim_frac_;
  return sigma;
}

void TransferSimulation::setup_telemetry(sim::Engine& engine) {
  tel_ = cfg_.telemetry;
  if (!tel_ || !tel_->config().enabled) {
    tel_ = nullptr;
    return;
  }
  auto& reg = tel_->registry();
  instr_ = std::make_unique<Instruments>();
  Instruments& in = *instr_;

  in.cwnd = reg.gauge("tcp.cwnd_bytes", "bytes", "flow 0 congestion window");
  in.ssthresh = reg.gauge("tcp.ssthresh_bytes", "bytes", "flow 0 ssthresh (0 for BBR)");
  in.pacing_rate = reg.gauge("tcp.pacing_rate_bps", "bps",
                             "effective pacing: fq-rate or CC self-pacing");
  in.srtt = reg.gauge("tcp.srtt_sec", "sec", "flow 0 smoothed RTT");
  in.slow_start = reg.gauge("tcp.in_slow_start", "bool", "flow 0 slow-start state");
  in.retx = reg.counter("tcp.retransmit_segments", "segments", "all flows");
  in.cwnd_hist = reg.histogram("tcp.cwnd_dist_bytes", "bytes",
                               "time-weighted cwnd distribution");

  in.optmem_used = reg.gauge("zc.optmem_used_bytes", "bytes",
                             "peak in-tick optmem charge, summed over flows");
  in.optmem_max = reg.gauge("zc.optmem_max_bytes", "bytes", "per-socket limit");
  in.zc_bytes = reg.counter("zc.sent_bytes", "bytes", "bytes sent pinned (no copy)");
  in.fb_bytes = reg.counter("zc.fallback_bytes", "bytes",
                            "bytes that fell back to copy after failed pin");
  in.fb_events = reg.counter("zc.fallback_sends", "sends",
                             "sends that (partially) fell back");
  in.optmem_frac_hist = reg.histogram("zc.optmem_occupancy_pct", "percent",
                                      "time-weighted optmem occupancy");

  in.ring_occupancy = reg.gauge("nic.rx_ring_occupancy_frac", "frac",
                                "peak modeled RX ring fill this tick");
  in.nic_drops = reg.counter("nic.rx_dropped_bytes", "bytes", "ring overflow drops");
  in.pause_ticks = reg.counter("nic.pause_frame_ticks", "rtts",
                               "RTTs with 802.3x pause frames active");
  in.path_drops = reg.counter("path.dropped_bytes", "bytes", "path/switch drops");
  in.trim_frac = reg.gauge("path.trim_frac", "frac",
                           "burst-tolerance trimming this tick");

  in.goodput =
      reg.gauge(obs::kFluidMetrics.goodput_bps, "bps", "receiver-side delivery rate");
  in.delivered = reg.counter(obs::kFluidMetrics.delivered_bytes, "bytes",
                             "bytes delivered to the application, all flows");
  in.gro_agg = reg.gauge(obs::kFluidMetrics.gro_aggregate_bytes, "bytes",
                         "effective GRO aggregate size the fluid model prices");
  in.sent_rate = reg.gauge("flow.sent_rate_bps", "bps", "sender-side wire rate");
  in.rcv_backlog = reg.gauge("flow.rcv_backlog_bytes", "bytes",
                             "receiver socket backlog, summed over flows");
  in.snd_app = reg.gauge("cpu.snd_app_util", "frac", "sender app-core utilization");
  in.snd_irq = reg.gauge("cpu.snd_irq_util", "frac", "sender IRQ-pool utilization");
  in.rcv_app = reg.gauge("cpu.rcv_app_util", "frac", "receiver app-core utilization");
  in.rcv_irq = reg.gauge("cpu.rcv_irq_util", "frac", "receiver IRQ-pool utilization");
  in.limit_code = reg.gauge("limit.current", "enum",
                            "binding sender constraint (see limit.* counters)");
  for (int c = 0; c < 8; ++c) {
    in.limit_ticks[c] =
        reg.counter(std::string("limit.") + obs::round_limit_name(
                        static_cast<obs::RoundLimit>(c)) + "_ticks",
                    "rtts", "RTTs bounded by this constraint");
  }
  // Per-flow tracks for every stream — the multi-stream skew studies (Table
  // III's range column) need each flow's trajectory, not just flow 0's.
  const int nflows = static_cast<int>(flows_.size());
  for (int f = 0; f < nflows; ++f) {
    in.flow_cwnd.push_back(
        reg.gauge("tcp.cwnd_bytes", "flow", f, "bytes", "per-flow congestion window"));
    in.flow_goodput.push_back(reg.gauge(obs::kFluidMetrics.goodput_bps, "flow", f, "bps",
                                        "per-flow delivery rate"));
    in.flow_retx.push_back(reg.counter("tcp.retransmit_segments", "flow", f,
                                       "segments", "per-flow retransmits"));
  }
  in.flow_bps_min = reg.gauge("flow.per_flow_min_bps", "bps",
                              "slowest flow's delivery rate this tick");
  in.flow_bps_max = reg.gauge("flow.per_flow_max_bps", "bps",
                              "fastest flow's delivery rate this tick");
  in.flow_bps_range = reg.gauge("flow.per_flow_range_bps", "bps",
                                "max-min per-flow delivery spread (Table III range)");

  // scenario.* family only exists when a scenario is attached: registering
  // it unconditionally would grow the probe's CSV columns and break the
  // golden headers of scenario-free runs.
  if (scn_) {
    in.scn_events = reg.counter(obs::kScenarioEventsApplied, "events",
                                "scenario events applied so far");
    in.scn_active_flows = reg.gauge("scenario.active_flows", "flows",
                                    "streams currently active (flow churn)");
    in.scn_active_flows->set(static_cast<double>(flows_.size()));
  }

  in.optmem_max->set(cfg_.sender.tuning.sysctl.optmem_max);
  in.flow0_slow_start = flows_[0].cc->in_slow_start();

  if (tel_->wants_ss()) {
    in.ss = std::make_unique<obs::SsReport>();
    in.ss->engine = "fluid";
    in.ss->sockets.resize(flows_.size());
    for (int f = 0; f < nflows; ++f) in.ss->sockets[static_cast<std::size_t>(f)].flow = f;
    in.ss->nic.device = cfg_.receiver.nic.model;
  }

  if (tel_->wants_perf()) {
    in.perf = std::make_unique<obs::PerfReport>();
    in.perf->engine = "fluid";
    in.perf->flows.resize(flows_.size());
    for (int f = 0; f < nflows; ++f) in.perf->flows[static_cast<std::size_t>(f)].flow = f;
  }

  tel_->trace().begin("transfer", "run", engine.now());
}

TransferResult TransferSimulation::run() {
  sim::Engine engine;
  engine_ = &engine;
  if (!cfg_.scenario.empty()) {
    // The fluid engine supports every event kind. The Runtime draws its
    // jitter from a jump-separated substream of the run seed, never from
    // rng_, so attaching a scenario does not shift any engine draw.
    scn_ = std::make_unique<scenario::Runtime>(
        cfg_.scenario, cfg_.seed, "fluid",
        std::vector<scenario::EventKind>{
            scenario::EventKind::LinkCapacity, scenario::EventKind::LinkAddRtt,
            scenario::EventKind::LossBurst, scenario::EventKind::ReorderBurst,
            scenario::EventKind::LinkDown, scenario::EventKind::LinkUp,
            scenario::EventKind::BgSurge, scenario::EventKind::NicRingResize,
            scenario::EventKind::NicPauseToggle,
            scenario::EventKind::IrqDrainDegrade, scenario::EventKind::QdiscSwap,
            scenario::EventKind::QdiscPacingRate,
            scenario::EventKind::SysctlOptmem, scenario::EventKind::FlowArrive,
            scenario::EventKind::FlowDepart});
    scn_base_path_ = cfg_.path;
    scn_base_ring_ = cfg_.receiver.tuning.ring_descriptors;
    scn_base_lfc_ = cfg_.link_flow_control;
    scn_base_qdisc_ = cfg_.sender.tuning.sysctl.default_qdisc;
    scn_base_fq_rate_ = cfg_.flow.fq_rate_bps;
    scn_base_optmem_ = cfg_.sender.tuning.sysctl.optmem_max;
    scn_active_flows_ = static_cast<int>(flows_.size());
  }
  const double rtt = std::max(path_.spec().rtt_sec(), 1e-6);
  dt_sec_ = std::max(rtt, kMinTickSec);
  tick_ns_ = std::max<Nanos>(static_cast<Nanos>(dt_sec_ * 1e9), 1);
  while (span_max_ < kMaxSpan && kSpans[span_max_ + 1].rtts * dt_sec_ <= kMaxRoundSec) {
    ++span_max_;
  }
  refresh_round();

  log::ScopedTimeSource clock([&engine] { return engine.now(); });
  log::info("transfer start: %s, %zu flow(s), rtt %.3fs, %.0fs run%s%s",
            path_.spec().name.c_str(), flows_.size(), path_.spec().rtt_sec(),
            cfg_.duration.seconds(),
            cfg_.flow.zerocopy ? ", zerocopy" : "",
            cfg_.flow.fq_rate_bps > 0 ? ", paced" : "");

  schedule_round();
  setup_telemetry(engine);
  // A row at t holds the rounds before t, not the round at t, unless rounds
  // are at least as long as the probe interval (obs/sampler.hpp). The
  // session detaches this run's views however run() exits.
  std::optional<obs::Sampler::Session> sampling;
  if (tel_) {
    obs::Sampler::Source views{.metrics = &obs::kFluidMetrics};
    if (instr_->ss) views.ss = [this](Nanos) { return build_ss_report(); };
    if (instr_->perf) views.perf = [this](Nanos) { return *instr_->perf; };
    sampling.emplace(tel_->sampler(), engine, cfg_.duration.nanos(), std::move(views));
  }
  engine.run();
  if (sampling) {
    sampling->finish(engine.now());
    tel_->trace().end("transfer", "run", engine.now());
  }
  log::info("transfer done: %.2f Gbps delivered, %.0f segments retransmitted",
            units::to_gbps(units::rate_of(total_delivered_,
                                          cfg_.duration.seconds())),
            total_retx_);
  engine_ = nullptr;

  // Flush the trailing partial interval (tick quantization drift).
  if (interval_elapsed_ > 0.5) {
    interval_bps_.push_back(units::rate_of(interval_accum_bytes_, interval_elapsed_));
    interval_accum_bytes_ = 0.0;
    interval_elapsed_ = 0.0;
  }

  TransferResult res;
  res.duration_sec = cfg_.duration.seconds();
  res.throughput_bps = units::rate_of(total_delivered_, res.duration_sec);
  for (const auto& f : flows_) {
    res.per_flow_bps.push_back(units::rate_of(f.delivered_bytes, res.duration_sec));
  }
  res.retransmit_segments = total_retx_;
  res.sender_cpu.app_util = snd_app_util_.mean();
  res.sender_cpu.irq_util = snd_irq_util_.mean();
  res.sender_cpu.cores_pct =
      100.0 * (snd_app_util_.mean() + snd_irq_util_.mean() *
                                          static_cast<double>(sender_.irq_core_count()));
  res.receiver_cpu.app_util = rcv_app_util_.mean();
  res.receiver_cpu.irq_util = rcv_irq_util_.mean();
  res.receiver_cpu.cores_pct =
      100.0 * (rcv_app_util_.mean() + rcv_irq_util_.mean() *
                                          static_cast<double>(receiver_.irq_core_count()));
  for (const auto& f : flows_) {
    res.zc_bytes += f.zc_socket.total_zc_bytes();
    res.zc_fallback_bytes += f.zc_socket.total_fallback_bytes();
  }
  res.interval_bps = interval_bps_;
  res.dropped_bytes_nic = dropped_nic_;
  res.dropped_bytes_path = dropped_path_;
  res.pause_frames_seen = pause_seen_;
  res.rounds = rounds_;
  if (scn_) {
    // Sweep the horizon itself so events landing on the final boundary are
    // logged even though no tick runs after them.
    scn_->advance(cfg_.duration.seconds());
    res.scenario_log = scn_->event_log();
  }
  return res;
}

void TransferSimulation::apply_scenario(double now_sec) {
  const std::size_t logged_before = scn_->log().size();
  if (!scn_->advance(now_sec)) return;
  const scenario::Effects& e = scn_->effects();

  // Path overlay: fold onto the t=0 spec; refresh_round() below re-reads
  // path_.spec(), so the swap takes effect this round.
  net::PathSpec ps = scn_base_path_;
  if (e.capacity_bps >= 0.0) ps.capacity_bps = e.capacity_bps;
  if (e.link_down) ps.capacity_bps = 1.0;  // outage: the pipe is gone
  ps.rtt = scn_base_path_.rtt + units::seconds(e.extra_rtt_sec);
  ps.bg_traffic_bps = scn_base_path_.bg_traffic_bps + e.extra_bg_bps;
  path_.set_spec(ps);

  // NIC / qdisc / sysctl overlays land in cfg_; refresh_round() rebuilds
  // the NicRx, pacing rate and budgets from it.
  cfg_.receiver.tuning.ring_descriptors =
      e.ring_descriptors >= 0.0
          ? static_cast<int>(std::lround(e.ring_descriptors))
          : scn_base_ring_;
  cfg_.link_flow_control =
      e.pause_frames < 0 ? scn_base_lfc_ : e.pause_frames == 1;
  cfg_.sender.tuning.sysctl.default_qdisc =
      e.qdisc < 0 ? scn_base_qdisc_
                  : (e.qdisc == 1 ? kern::QdiscKind::Fq : kern::QdiscKind::FqCodel);
  cfg_.flow.fq_rate_bps = e.pacing_bps < 0.0 ? scn_base_fq_rate_ : e.pacing_bps;

  const double optmem =
      e.optmem_max_bytes < 0.0 ? scn_base_optmem_ : e.optmem_max_bytes;
  if (optmem != cfg_.sender.tuning.sysctl.optmem_max) {
    cfg_.sender.tuning.sysctl.optmem_max = optmem;
    for (auto& f : flows_) f.zc_socket.set_optmem_max(units::Bytes(optmem));
    if (instr_) instr_->optmem_max->set(optmem);
  }

  scn_loss_frac_ = e.loss_frac;
  scn_reorder_frac_ = e.reorder_frac;
  scn_irq_mult_ = e.irq_drain_mult;
  scn_active_flows_ = std::clamp(static_cast<int>(flows_.size()) + e.flow_delta,
                                 1, static_cast<int>(flows_.size()));
  refresh_round();

  const auto& log = scn_->log();
  const Nanos now_ns = engine_ ? engine_->now() : units::seconds(now_sec);
  for (std::size_t i = logged_before; i < log.size(); ++i) {
    const scenario::AppliedEvent& ev = log[i];
    log::info("scenario: %s value=%g fired at t=%.3fs%s",
              std::string(scenario::kind_name(ev.kind)).c_str(), ev.value,
              ev.fire_sec, ev.applied ? "" : " (unsupported, skipped)");
    if (instr_) {
      if (ev.applied) instr_->scn_events->increment();
      tel_->trace().instant(
          "scenario_" + std::string(scenario::kind_name(ev.kind)), "scenario",
          now_ns, 0,
          {{"value", ev.value},
           {"fire_sec", ev.fire_sec},
           {"applied", ev.applied ? 1.0 : 0.0}});
    }
  }
  if (instr_) {
    instr_->scn_active_flows->set(static_cast<double>(scn_active_flows_));
  }
}

void TransferSimulation::refresh_round() {
  static_assert(std::tuple_size_v<decltype(rc_)> == kSpans.size());
  RoundConsts& rc = rc_[0];
  rc.rtt = std::max(path_.spec().rtt_sec(), 1e-6);
  rc.mss = mss();
  rc.zc_req = cfg_.flow.zerocopy && sender_.zerocopy_available();
  const bool qdisc_can_pace =
      cfg_.sender.tuning.sysctl.default_qdisc == kern::QdiscKind::Fq;
  rc.fq_rate = qdisc_can_pace ? cfg_.flow.fq_rate_bps : 0.0;

  rc.mtu = std::min(cfg_.sender.tuning.mtu_bytes, cfg_.receiver.tuning.mtu_bytes);
  const units::Bytes mtu(rc.mtu);
  rc.gso = kern::effective_gso_bytes(sender_.skb_caps(), rc.zc_req, mtu).value();
  rc.gro = kern::effective_gro_bytes(receiver_.skb_caps(), mtu).value();

  rc.snd_wnd_max = cfg_.sender.tuning.sysctl.max_send_window_bytes();
  rc.rcv_wnd_max = cfg_.receiver.tuning.sysctl.max_recv_window_bytes();

  rc.tx_app = snd_cost_->tx_app_price(rc.gso);
  cpu::TxPathConfig irq_cfg;  // per-byte IRQ cost is geometry-only
  irq_cfg.gso_bytes = rc.gso;
  irq_cfg.mtu_bytes = rc.mtu;
  rc.tx_irq_pb = snd_cost_->tx_irq_cyc_per_byte(irq_cfg);
  rc.tx_irq_spb = snd_cost_->tx_irq_stage_cyc(irq_cfg);
  cpu::TxPathConfig mc = irq_cfg;
  mc.zc_fraction = rc.zc_req ? 1.0 : 0.0;  // approximate: zc flows mostly zc
  rc.tx_mem_passes = snd_cost_->tx_mem_passes(mc);

  net::NicSpec rx_nic = cfg_.receiver.nic;
  if (receiver_.hw_gro_active()) {
    // SHAMPO merges in hardware and splits headers from data: the NIC-to-
    // kernel drain path survives far denser trains.
    rx_nic.drain_burst_bps *= 1.6;
    rx_nic.drain_smooth_bps *= 1.3;
  }
  const net::NicRx nic_rx(rx_nic, cfg_.receiver.tuning.ring_descriptors, rc.mtu,
                         cfg_.link_flow_control);
  cpu::RxPathConfig rxc;
  rxc.gro_bytes = rc.gro;
  rxc.mtu_bytes = rc.mtu;
  rxc.copy_to_user = !cfg_.flow.skip_rx_copy;
  rxc.hw_gro = receiver_.hw_gro_active();
  rc.rx_app_pb = rcv_cost_->rx_app_cyc_per_byte(rxc);
  rc.rx_irq_pb = rcv_cost_->rx_irq_cyc_per_byte(rxc);
  const double rx_mem_passes = rcv_cost_->rx_mem_passes(rxc);
  rc.rx_app_spb = rcv_cost_->rx_app_stage_cyc(rxc);
  rc.rx_irq_spb = rcv_cost_->rx_irq_stage_cyc(rxc);

  // What scales with the round's length, for each span this run can use.
  const double eff = run_efficiency_;
  for (int span = 0; span <= span_max_; ++span) {
    RoundConsts& r = rc_[static_cast<std::size_t>(span)];
    if (span > 0) r = rc;
    const double rtts = kSpans[static_cast<std::size_t>(span)].rtts;
    const double dt_sec = dt_sec_ * rtts;
    r.dt_sec = dt_sec;
    r.snd_app_budget = sender_.app_core_hz() * dt_sec * eff;  // per flow
    r.rcv_app_budget = receiver_.app_core_hz() * dt_sec * eff;
    r.snd_irq_budget = sender_.app_core_hz() *
                       static_cast<double>(sender_.irq_core_count()) * dt_sec * eff;
    r.rcv_irq_budget = receiver_.app_core_hz() *
                       static_cast<double>(receiver_.irq_core_count()) * dt_sec * eff;
    // Scenario IRQ-core degradation (noisy neighbor stealing drain cycles).
    if (scn_) r.rcv_irq_budget *= scn_irq_mult_;
    r.snd_mem_budget = sender_.stack_mem_bw_bytes() * dt_sec * eff;
    const double rcv_mem_budget = receiver_.stack_mem_bw_bytes() * dt_sec * eff;
    r.line_bytes = sender_.config().nic.line_rate_bps * dt_sec / 8.0;
    r.snd_dma_bytes = sender_.dma_cap_bps() * dt_sec / 8.0;
    const double rcv_dma_bytes = receiver_.dma_cap_bps() * dt_sec / 8.0;

    // The ring drains and refills every RTT, so a round of K RTTs has K
    // rings of credit: its occupancy stays a per-RTT peak.
    r.nic_paced = nic_rx.round(true, dt_sec, rc.rtt);
    r.nic_paced.usable_ring *= rtts;
    r.nic_unpaced = nic_rx.round(false, dt_sec, rc.rtt);
    r.nic_unpaced.usable_ring *= rtts;
    r.rx_app_cap = r.rcv_app_budget / std::max(rc.rx_app_pb, 1e-9);
    // Receiver-side host limits: IRQ cycles, DMA, memory bandwidth.
    r.rx_host_cap =
        std::min({r.rcv_irq_budget / std::max(rc.rx_irq_pb, 1e-12), rcv_dma_bytes,
                  rcv_mem_budget / std::max(rx_mem_passes, 1e-9)});
    // Loss thresholds hold per RTT: K RTTs of sub-threshold loss stay so.
    r.md_floor = 32.0 * rc.mss * std::clamp(dt_sec_ / 0.063, 0.01, 1.0) * rtts;
  }
}

void TransferSimulation::schedule_round() {
  // A [this] closure fits std::function's local buffer: no allocation.
  engine_->schedule(tick_ns_ << span_, [this] {
    const double now_sec = units::to_seconds(engine_->now());
    if (span_max_ > 0) {
      tick<true>(now_sec);
    } else {
      tick<false>(now_sec);
    }
    if (plan_round(engine_->now())) schedule_round();
  });
}

bool TransferSimulation::plan_round(Nanos now_ns) {
  // The earned span, shortened so the round ends by the run's end, crosses
  // no scenario boundary (its changes land where one-RTT rounds would see
  // them) and closes a 1 s interval only with its last RTT.
  const Nanos run_end = cfg_.duration.nanos();
  int span = span_earned_;
  for (; span > 0; --span) {
    const int rtts = 1 << span;
    const Nanos round_end = now_ns + (tick_ns_ << span);
    if (round_end > run_end) continue;
    if (scn_ && units::to_seconds(round_end) >= scn_->next_boundary_sec()) continue;
    double elapsed = interval_elapsed_;
    int rtt = 1;
    for (; rtt < rtts; ++rtt) {
      elapsed += dt_sec_;
      if (elapsed >= 1.0) break;
    }
    if (rtt == rtts) break;
  }
  span_ = span;
  return now_ns + (tick_ns_ << span) <= run_end;
}

template <bool kCoalesce>
void TransferSimulation::tick(double now_sec) {
  if (scn_) apply_scenario(now_sec);
  const int span = kCoalesce ? span_ : 0;
  const RoundConsts& rc = rc_[static_cast<std::size_t>(span)];
  const Span& sp = kSpans[static_cast<std::size_t>(span)];
  const int rtts = 1 << span;
  const double dt_sec = rc.dt_sec;
  const double rtt = rc.rtt;
  const double fq_rate = rc.fq_rate;
  const bool zc_req = rc.zc_req;
  const double gso = rc.gso;
  const double mtu = rc.mtu;
  const double seg = rc.mss;
  Instruments* const in = instr_.get();
  const Nanos now_ns = engine_ ? engine_->now() : units::seconds(now_sec);

  // ---- Sender: plan each flow and total the plans ------------------------
  units::Cycles snd_app_used{0.0};
  // Flow 0's planning intermediates, kept to name the binding constraint.
  double f0_wnd_desired = 0.0, f0_paced_desired = 0.0, f0_cpu_cap = 0.0;
  const double tx_irq_pb = rc.tx_irq_pb;
  double total_planned = 0.0, total_irq_need = 0.0, total_mem_need = 0.0;
  // One jitter draw per flow per round, jitter_sigma() wide for one RTT; a
  // K-RTT draw narrows to the K-step sum's spread and keeps its mean.
  double sigma = jitter_sigma();
  double median_scale = 1.0;
  if (span > 0) {
    const double var = sigma * sigma;
    const double var_k = std::log1p(sp.jitter_var * std::expm1(var));
    median_scale = std::exp(0.5 * (var - var_k));
    sigma = std::sqrt(var_k);
  }
  bool window_bound = false;
  bool zc_fell_back = false;
  double zc_room = std::numeric_limits<double>::infinity();  // RTTs optmem covers
  for (auto& f : flows_) {
    const double target = rng_.lognormal(f.static_bias * median_scale, sigma);
    f.share_jitter = f.share_jitter * sp.jitter_keep + target * sp.jitter_new;

    if (scn_ && static_cast<int>(&f - flows_.data()) >= scn_active_flows_) {
      // Departed stream (scenario flow churn): the jitter stream above stays
      // warm so churn never shifts the other flows' draws, but the flow
      // plans nothing and its backlog simply drains out below.
      f.planned_bytes = 0.0;
      f.tx_app_cyc_per_byte = 0.0;
      f.tx_app_spb = {};
      if constexpr (kCoalesce) f.rwnd_bound = false;
    } else {
      const double rwnd = std::max(rc.rcv_wnd_max - f.rcv_backlog_bytes, 0.0);
      const double cwnd = f.cc->cwnd_bytes();
      const double wnd = std::min({cwnd, rwnd, rc.snd_wnd_max});
      const double wnd_desired = wnd * dt_sec / rtt;
      double desired = wnd_desired;

      double pace = fq_rate;
      const double cc_pace = f.cc->pacing_rate_bps();
      if (cc_pace > 0.0) pace = pace > 0.0 ? std::min(pace, cc_pace) : cc_pace;
      if (pace > 0.0) desired = std::min(desired, pace * dt_sec / 8.0);

      // Zerocopy split (preview only; commitment happens after global caps).
      double zc_frac = 0.0, fb_frac = 0.0;
      if (zc_req && desired > 0) {
        const auto plan = f.zc_socket.preview_send(units::Bytes(desired), units::Bytes(gso));
        zc_frac = (plan.zc_bytes + plan.fallback_bytes) / desired;
        fb_frac = plan.fallback_bytes / desired;
        zc_fell_back = zc_fell_back || plan.fallback_bytes > 0;
        if constexpr (kCoalesce) {
          zc_room = std::min(zc_room, f.zc_socket.chargeable_bytes(units::Bytes(gso)) /
                                          (desired * sp.per_rtt));
        }
      }

      // In-flight data over one RTT is what thrashes the L3; the recent
      // volume sent per base round is the sustained estimate (the window cap
      // can be far larger than what is actually outstanding).
      const double cache_mult =
          snd_cost_->cache_pressure_mult(std::min(f.prev_sent_bytes * rtt / dt_sec_, wnd));
      f.tx_app_cyc_per_byte = rc.tx_app.per_byte(zc_frac, fb_frac, cache_mult);
      if (in && in->perf) {
        // Stage split of the price just computed — same split and cache
        // pressure, so the stage fields sum back to f.tx_app_cyc_per_byte
        // (fp rounding aside).
        cpu::TxPathConfig txc;
        txc.gso_bytes = gso;
        txc.mtu_bytes = mtu;
        txc.zc_fraction = zc_frac;
        txc.zc_fallback_fraction = fb_frac;
        txc.cache_mult = cache_mult;
        f.tx_app_spb = snd_cost_->tx_app_stage_cyc(txc);
      }

      const double cpu_cap = rc.snd_app_budget * f.share_jitter /
                             std::max(f.tx_app_cyc_per_byte, 1e-9);
      f.planned_bytes = std::min(desired, cpu_cap);
      if constexpr (kCoalesce) {
        // A window (receive window, cwnd or send buffer) set the send. The
        // receive window alone may keep the round steady, if the drain below
        // finds its backlog where the round began; cwnd and the send buffer
        // may not: slow start doubles per RTT, which is not linear in K.
        const bool wnd_set = f.planned_bytes >= wnd_desired;
        f.rwnd_bound = wnd_set && rwnd < cwnd && rwnd <= rc.snd_wnd_max;
        window_bound = window_bound || (wnd_set && !f.rwnd_bound);
      }
      if (&f == &flows_[0]) {
        f0_wnd_desired = wnd_desired;
        f0_paced_desired = desired;
        f0_cpu_cap = cpu_cap;
      }
    }
    total_planned += f.planned_bytes;
    total_irq_need += f.planned_bytes * tx_irq_pb;
    total_mem_need += f.planned_bytes * rc.tx_mem_passes;
  }

  // ---- Sender: shared resource scaling ----------------------------------
  const double s_irq = scale_factor(total_irq_need, rc.snd_irq_budget);
  const double s_line = scale_factor(total_planned, rc.line_bytes);
  const double s_dma = scale_factor(total_planned, rc.snd_dma_bytes);
  const double s_mem = scale_factor(total_mem_need, rc.snd_mem_budget);
  const double s = std::min(std::min(s_irq, s_line), std::min(s_dma, s_mem));

  units::Cycles snd_irq_used{0.0};
  const bool paced_traffic = fq_rate > 0.0 || flows_[0].cc->self_paced();
  double group_sent = 0.0;
  for (auto& f : flows_) {
    f.sent_bytes = f.planned_bytes * s;
    if (zc_req && f.sent_bytes > 0) {
      const auto plan = f.zc_socket.plan_send(units::Bytes(f.sent_bytes), units::Bytes(gso));
      f.zc_planned = plan.zc_bytes;
      f.fb_planned = plan.fallback_bytes;
      zc_fell_back = zc_fell_back || plan.fallback_bytes > 0;
    } else {
      f.zc_planned = f.fb_planned = 0.0;
    }
    f.inflight_bytes = f.sent_bytes;
    snd_app_used += units::Cycles(f.sent_bytes * f.tx_app_cyc_per_byte);
    snd_irq_used += units::Cycles(f.sent_bytes * tx_irq_pb);
    group_sent += f.sent_bytes;
    if (in && in->perf) {
      // Split the exact charges above into stages; per-byte stage prices
      // come from the planning loop's TxPathConfig (app) and the shared
      // geometry config (irq), so stage sums equal the scalar charges.
      obs::PerfReport& pr = *in->perf;
      const std::size_t fi = static_cast<std::size_t>(&f - flows_.data());
      const auto& pb = f.tx_app_spb;
      const auto& tx_irq_spb = rc.tx_irq_spb;
      pr.add(fi, obs::PerfStage::TxSyscall, f.sent_bytes * pb.syscall);
      pr.add(fi, obs::PerfStage::TxProto, f.sent_bytes * pb.proto);
      pr.add(fi, obs::PerfStage::TxUserCopy, f.sent_bytes * pb.user_copy);
      pr.add(fi, obs::PerfStage::TxZcPin, f.sent_bytes * pb.zc_pin);
      pr.add(fi, obs::PerfStage::TxZcNotify, f.sent_bytes * pb.zc_notify);
      pr.add(fi, obs::PerfStage::TxZcFallback, f.sent_bytes * pb.zc_fallback);
      pr.add(fi, obs::PerfStage::TxGsoSegment, f.sent_bytes * tx_irq_spb.gso_segment);
      pr.add(fi, obs::PerfStage::TxDmaMap, f.sent_bytes * tx_irq_spb.dma_map);
      pr.add(fi, obs::PerfStage::TxCompletion, f.sent_bytes * tx_irq_spb.completion);
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::SndApp)] +=
          f.sent_bytes * f.tx_app_cyc_per_byte;
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::SndIrq)] += f.sent_bytes * tx_irq_pb;
      pr.bytes_sent += f.sent_bytes;
    }
  }

  // Name the constraint that bounded this round's send.
  obs::RoundLimit cause = obs::RoundLimit::Window;
  if (f0_cpu_cap < f0_paced_desired) {
    cause = obs::RoundLimit::AppCpu;
  } else if (f0_paced_desired < 0.999 * f0_wnd_desired) {
    cause = obs::RoundLimit::Pacing;
  }
  if (s < 0.9995) {
    cause = obs::RoundLimit::IrqCpu;
    double worst = s_irq;
    if (s_line < worst) { cause = obs::RoundLimit::LineRate; worst = s_line; }
    if (s_dma < worst) { cause = obs::RoundLimit::Dma; worst = s_dma; }
    if (s_mem < worst) { cause = obs::RoundLimit::MemBw; worst = s_mem; }
  }

  if (in) {
    // Optmem occupancy peaks here — charges are live between plan_send and
    // the ACK release at the end of the round, which is the in-flight
    // charge a real `ss`/optmem probe would observe.
    double used = 0.0, zc_delta = 0.0, fb_delta = 0.0;
    std::uint64_t fb_sends = 0;
    for (const auto& f : flows_) {
      used += f.zc_socket.optmem_used();
      zc_delta += f.zc_planned;
      fb_delta += f.fb_planned;
      if (f.fb_planned > 0) ++fb_sends;
    }
    in->optmem_used->set(used);
    in->optmem_frac_hist->add(
        100.0 * used / std::max(cfg_.sender.tuning.sysctl.optmem_max, 1.0), dt_sec);
    in->zc_bytes->add(zc_delta);
    in->fb_bytes->add(fb_delta);
    in->fb_events->add(static_cast<double>(fb_sends));
    const bool falling_back = fb_delta > 0;
    if (falling_back && !in->in_fallback) {
      tel_->trace().instant("zc_fallback", "zerocopy", now_ns, 0,
                            {{"optmem_used_bytes", used},
                             {"fallback_bytes", fb_delta}});
    } else if (!falling_back && in->in_fallback) {
      tel_->trace().instant("zc_fallback_end", "zerocopy", now_ns, 0);
    }
    in->in_fallback = falling_back;

    // limit.*_ticks count RTTs, so a K-RTT round adds K.
    in->limit_code->set(static_cast<double>(cause));
    in->limit_ticks[static_cast<int>(cause)]->add(sp.rtts);
    if (cause != last_limit_) {
      tel_->trace().instant("limit_change", "cpu", now_ns, 0,
                            {{"code", static_cast<double>(cause)}});
    }

    if (obs::SsReport* ss = in->ss.get()) {
      const bool app_limited =
          cause == obs::RoundLimit::AppCpu || cause == obs::RoundLimit::IrqCpu;
      for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
        const auto& f = flows_[fi];
        obs::TcpInfoSnapshot& sk = ss->sockets[fi];
        sk.bytes_sent += f.sent_bytes;
        sk.send_rate_bps = units::rate_of(f.sent_bytes, dt_sec);
        sk.notsent_bytes = std::max(f.planned_bytes - f.sent_bytes, 0.0);
        // The mid-round charge: live between plan_send and the ACK release.
        sk.optmem_used_bytes = f.zc_socket.optmem_used();
        sk.delivery_rate_app_limited = app_limited;
      }
      ss->qdisc.sent_bytes += group_sent;
      if (cause == obs::RoundLimit::Pacing) {
        // fq "throttled": pacing, not the window, gated this round. The
        // modeled delay is the slice of the round pacing withheld from the
        // window's demand.
        ss->qdisc.throttled += sp.rtts;
        const double frac =
            f0_wnd_desired > 0
                ? std::clamp(1.0 - f0_paced_desired / f0_wnd_desired, 0.0, 1.0)
                : 0.0;
        ss->qdisc.pacing_delay_sec += dt_sec * frac;
      }
    }
  }

  // ---- Path transit (aggregate) ------------------------------------------
  const double smoothness = !paced_traffic ? 1.0 : (zc_req ? 1.25 : 1.08);
  const auto transit =
      path_.transit(units::Bytes(group_sent), dt_sec, paced_traffic, smoothness, rng_);
  dropped_path_ += transit.dropped_bytes;
  const double path_trim_frac =
      group_sent > 0 ? (group_sent - transit.delivered_bytes) / group_sent : 0.0;
  if (path_trim_frac > 0.0 && flows_.size() > 1) {
    // Contended path: flows do not share the trimmed capacity evenly —
    // per-flow shares follow the jitter weights (Table III's 9-16 Gbps
    // unpaced range; 10-13 even when paced to 15).
    double wsum = 0.0;
    for (const auto& f : flows_) wsum += f.sent_bytes * f.share_jitter;
    double leftover = 0.0;
    for (auto& f : flows_) {
      const double want =
          wsum > 0 ? transit.delivered_bytes * f.sent_bytes * f.share_jitter / wsum : 0.0;
      f.arrived_bytes = std::min(want, f.sent_bytes);
      leftover += want - f.arrived_bytes;
      f.lost_bytes = 0.0;
    }
    // Capacity a capped flow could not use flows to the others.
    for (auto& f : flows_) {
      if (leftover <= 0) break;
      const double headroom = f.sent_bytes - f.arrived_bytes;
      const double take = std::min(headroom, leftover);
      f.arrived_bytes += take;
      leftover -= take;
    }
  } else {
    for (auto& f : flows_) {
      f.arrived_bytes = f.sent_bytes * (1.0 - path_trim_frac);
      f.lost_bytes = 0.0;
    }
  }
  last_trim_frac_ = path_trim_frac;
  if (in) {
    in->path_drops->add(transit.dropped_bytes);
    in->trim_frac->set(path_trim_frac);
    const bool trimming = path_trim_frac > 1e-9;
    if (trimming && !in->in_trim) {
      tel_->trace().instant("burst_trimmed", "path", now_ns, 0,
                            {{"trim_frac", path_trim_frac}});
    }
    in->in_trim = trimming;
  }
  if (transit.dropped_bytes > 0) {
    if (paced_traffic || flows_.size() == 1) {
      // Symmetric flows absorb path drops proportionally.
      for (auto& f : flows_) {
        f.lost_bytes += group_sent > 0
                            ? transit.dropped_bytes * f.sent_bytes / group_sent
                            : 0.0;
      }
    } else {
      // Unpaced flows collide asynchronously: a random subset bears each
      // round's loss (weighted by instantaneous share), which desynchronizes
      // the backoffs — the paper's 5-30 Gbps per-flow spread and "flows
      // interfere with each other" behaviour.
      double remaining = transit.dropped_bytes;
      const int victims =
          1 + static_cast<int>(rng_.uniform_int(0, std::min<std::int64_t>(
                                                       2, static_cast<std::int64_t>(
                                                              flows_.size()) -
                                                           1)));
      for (int v = 0; v < victims && remaining > 0; ++v) {
        auto& f = flows_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(flows_.size()) - 1))];
        const double take = std::min(remaining / static_cast<double>(victims - v),
                                     f.sent_bytes * 0.8 - f.lost_bytes);
        if (take > 0) {
          f.lost_bytes += take;
          remaining -= take;
        }
      }
      // Whatever victims could not absorb spreads proportionally.
      if (remaining > 1.0 && group_sent > 0) {
        for (auto& f : flows_) {
          f.lost_bytes += remaining * f.sent_bytes / group_sent;
        }
      }
    }
  }

  // ---- Scenario forced loss ----------------------------------------------
  double forced_loss = 0.0;
  if (scn_ && scn_loss_frac_ > 0.0) {
    // Loss episode: a deterministic cut of what the path delivered, counted
    // as path drops so CC backoff and retransmit accounting both see it.
    for (auto& f : flows_) {
      const double cut = f.arrived_bytes * scn_loss_frac_;
      f.arrived_bytes -= cut;
      f.lost_bytes += cut;
      forced_loss += cut;
    }
    dropped_path_ += forced_loss;
    if (in) in->path_drops->add(forced_loss);
  }

  // ---- Receiver NIC per flow ---------------------------------------------
  // Only the arriving bytes vary per flow: the verdict's other terms (the
  // tolerable rate, the drain per round, the usable ring) are round
  // constants, rebuilt with the rest at a scenario boundary.
  const net::RxRound& nic = paced_traffic ? rc.nic_paced : rc.nic_unpaced;
  const double rx_app_pb = rc.rx_app_pb;
  const double rx_irq_pb = rc.rx_irq_pb;
  double total_accepted = 0.0;
  double tick_nic_drops = 0.0, tick_ring_occ = 0.0;
  bool tick_pause = false;
  for (auto& f : flows_) {
    const auto verdict = net::NicRx::verdict(f.arrived_bytes, nic);
    dropped_nic_ += verdict.dropped_bytes;
    tick_nic_drops += verdict.dropped_bytes;
    tick_ring_occ = std::max(tick_ring_occ, verdict.ring_occupancy_frac);
    tick_pause = tick_pause || verdict.pause_frames_sent;
    pause_seen_ = pause_seen_ || verdict.pause_frames_sent;
    f.lost_bytes += verdict.dropped_bytes;
    if (verdict.pause_frames_sent) {
      // 802.3x backpressure: the excess never entered the host; for window
      // accounting it behaves like un-sent data, not a loss.
      f.inflight_bytes -= f.arrived_bytes - verdict.accepted_bytes;
    }
    f.arrived_bytes = verdict.accepted_bytes;
    total_accepted += f.arrived_bytes;
  }

  // Receiver-side host limits (rc.rx_host_cap: IRQ cycles, DMA, memory
  // bandwidth). TCP flow control (rwnd) turns sustained overload into
  // backpressure — the sender slows — but transient overshoot occasionally
  // overruns the ring and drops for real (a rare stochastic event, not a
  // per-tick certainty).
  const double rx_host_cap = rc.rx_host_cap;
  if (total_accepted > rx_host_cap && total_accepted > 0) {
    const double overload = total_accepted / rx_host_cap;
    const double keep = rx_host_cap / total_accepted;
    for (auto& f : flows_) {
      const double cut = f.arrived_bytes * (1.0 - keep);
      f.arrived_bytes -= cut;
      f.inflight_bytes -= cut;
    }
    total_accepted = rx_host_cap;
    if (cfg_.link_flow_control) {
      pause_seen_ = true;
      tick_pause = true;
    } else if (rng_.bernoulli(std::min((overload - 1.0) * dt_sec, 0.5))) {
      // Transient ring overrun: one flow eats a modest burst loss.
      auto& victim = flows_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(flows_.size()) - 1))];
      const double burst = std::min(victim.arrived_bytes, 40.0 * mtu);
      victim.lost_bytes += burst;
      dropped_nic_ += burst;
      tick_nic_drops += burst;
      tick_ring_occ = 1.0;
    }
  }
  if (in) {
    in->ring_occupancy->set(tick_ring_occ);
    in->nic_drops->add(tick_nic_drops);
    if (tick_nic_drops > 0) {
      tel_->trace().instant("ring_overflow", "nic", now_ns, 0,
                            {{"dropped_bytes", tick_nic_drops}});
    }
    if (tick_pause) in->pause_ticks->add(sp.rtts);
    if (tick_pause && !in->pause_active) {
      tel_->trace().instant("pause_frames", "nic", now_ns, 0);
    }
    in->pause_active = tick_pause;

    if (obs::SsReport* ss = in->ss.get()) {
      // ethtool -S analogues, aggregated at tick grain so host-overrun drops
      // (which bypass NicRx) are counted too.
      obs::NicCountersSnapshot& nic = ss->nic;
      nic.rx_bytes += total_accepted;
      nic.rx_dropped_bytes += tick_nic_drops;
      if (tick_nic_drops > 0) nic.rx_dropped_events += 1.0;
      nic.rx_ring_hiwater_frac = std::max(nic.rx_ring_hiwater_frac, tick_ring_occ);
      if (tick_pause) {
        // 802.3x pause is symmetric in the model: the receiver emits, the
        // sender's link sees the same bursts.
        nic.tx_pause_frames += sp.rtts;
        nic.rx_pause_frames += sp.rtts;
      }
      if (receiver_.hw_gro_active() && rc.gro > 0) {
        nic.hw_gro_coalesced += total_accepted / rc.gro;
      }
    }
  }

  // ---- Receiver app drain, then ACK / loss feedback, flow by flow ----------
  units::Cycles rcv_app_used{0.0};
  double interval_bytes_this_tick = 0.0;
  double drain_min = 0.0, drain_max = 0.0;
  double tick_retx = 0.0, tick_cc_loss_bytes = 0.0;
  int tick_cc_loss_flows = 0;
  for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
    auto& f = flows_[fi];
    const double backlog_before = f.rcv_backlog_bytes;
    const double drain = std::min(f.rcv_backlog_bytes + f.arrived_bytes, rc.rx_app_cap);
    f.rcv_backlog_bytes = std::max(f.rcv_backlog_bytes + f.arrived_bytes - drain, 0.0);
    if constexpr (kCoalesce) {
      // At its fixed point the receive window sends each RTT what the app
      // drains in one, and the backlog, hence the window, stays put: K RTTs
      // of that are one K-RTT round. A backlog that moved ends the stretch.
      const bool moved =
          std::abs(f.rcv_backlog_bytes - backlog_before) > kBacklogRoundoff * rc.rcv_wnd_max;
      window_bound = window_bound || (f.rwnd_bound && moved);
    }
    f.delivered_bytes += drain;
    interval_bytes_this_tick += drain;
    rcv_app_used += units::Cycles(drain * rx_app_pb);
    if (in && in->perf) {
      // RX charge split: IRQ-side work scales with what the NIC accepted
      // (post-verdict arrived bytes — summing to total_accepted), app-side
      // work with what the application actually drained this round.
      obs::PerfReport& pr = *in->perf;
      const auto& rx_irq_spb = rc.rx_irq_spb;
      const auto& rx_app_spb = rc.rx_app_spb;
      pr.add(fi, obs::PerfStage::RxSkbAlloc, f.arrived_bytes * rx_irq_spb.skb_alloc);
      pr.add(fi, obs::PerfStage::RxGroMerge, f.arrived_bytes * rx_irq_spb.gro_merge);
      pr.add(fi, obs::PerfStage::RxAggFlush, f.arrived_bytes * rx_irq_spb.agg_flush);
      pr.add(fi, obs::PerfStage::RxCsum, f.arrived_bytes * rx_irq_spb.csum);
      pr.add(fi, obs::PerfStage::RxSyscall, drain * rx_app_spb.syscall);
      pr.add(fi, obs::PerfStage::RxFragWalk, drain * rx_app_spb.frag_walk);
      pr.add(fi, obs::PerfStage::RxCopyout, drain * rx_app_spb.copyout);
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::RcvIrq)] += f.arrived_bytes * rx_irq_pb;
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::RcvApp)] += drain * rx_app_pb;
    }
    if (fi == 0) {
      drain_min = drain_max = drain;
    } else {
      drain_min = std::min(drain_min, drain);
      drain_max = std::max(drain_max, drain);
    }
    if (in) {
      in->flow_goodput[fi]->set(units::rate_of(drain, dt_sec));
      if (in->ss) in->ss->sockets[fi].delivery_rate_bps = units::rate_of(drain, dt_sec);
    }

    const double acked = f.arrived_bytes;
    const double lost = f.lost_bytes;
    // Under half a segment lost per RTT is not a retransmit.
    const bool retransmits = lost > 0.5 * seg * sp.rtts;
    if (in && in->ss) {
      // Receiver-side reordering (tcpi_rcv_ooopack): every retransmitted
      // hole and every scenario-reordered segment arrives out of order.
      double ooo = retransmits ? lost / seg : 0.0;
      if (scn_ && scn_reorder_frac_ > 0.0) {
        ooo += f.arrived_bytes * scn_reorder_frac_ / seg;
      }
      in->ss->sockets[fi].rcv_ooopack += ooo;
    }
    if (retransmits) {
      f.retransmit_segments += lost / seg;
      total_retx_ += lost / seg;
      tick_retx += lost / seg;
      if (in) in->flow_retx[fi]->add(lost / seg);
      // Small loss bursts recover through limited transmit / PRR without a
      // multiplicative decrease; only substantial loss events (more than a
      // NAPI batch worth of segments AND a visible share of the round)
      // collapse the window. Without this, a stray 60-segment loss would
      // re-collapse a small window faster than CUBIC can rebuild it — a
      // death spiral real TCP does not exhibit.
      if (lost > std::max(rc.md_floor, 0.0025 * f.sent_bytes)) {
        f.cc->on_loss(now_sec, lost);
        ++tick_cc_loss_flows;
        tick_cc_loss_bytes += lost;
      }
    }
    if (acked > 0) {
      const auto ack = [&](double at_sec, double bytes) {
        // Congestion-window validation (RFC 7661): a pace-limited flow does
        // not inflate cwnd past ~2x the window it actually uses. This is why
        // paced production flows shrug off stray losses (Table III: paced to
        // 10G, every flow delivers exactly 10G despite ~1K retransmits).
        const bool cwnd_validated =
            fq_rate > 0.0 && !f.cc->self_paced() &&
            f.cc->cwnd_bytes() > 2.0 * fq_rate * rtt / 8.0;
        if (!cwnd_validated) f.cc->on_ack(at_sec, bytes, rtt);
        f.rtt.add_sample(rtt);
      };
      // A K-RTT round acks K equal slices, each at the end of its RTT.
      const double slice = acked * sp.per_rtt;
      for (int back = rtts - 1; back > 0; --back) {
        ack(now_sec - static_cast<double>(back) * dt_sec_, slice);
      }
      ack(now_sec, slice);
      f.zc_socket.on_acked(units::Bytes(acked));
    }
    f.inflight_bytes = 0.0;  // round model: everything resolves within a tick
    // EWMA keeps the cache-pressure feedback loop from oscillating.
    f.prev_sent_bytes =
        sp.ewma_keep * f.prev_sent_bytes + sp.ewma_new * (f.sent_bytes * sp.per_rtt);
    f.lost_bytes = 0.0;
  }
  total_delivered_ += interval_bytes_this_tick;

  // ---- Utilization bookkeeping -------------------------------------------
  // Jitter lets a flow momentarily exceed its nominal budget; mpstat would
  // still read 100%, so clamp.
  const double snd_app_u = std::min(
      snd_app_used.value() / (rc.snd_app_budget * static_cast<double>(flows_.size())), 1.0);
  const double snd_irq_u = std::min(snd_irq_used.value() / rc.snd_irq_budget, 1.0);
  const double rcv_app_u = std::min(
      rcv_app_used.value() / (rc.rcv_app_budget * static_cast<double>(flows_.size())), 1.0);
  const double rcv_irq_u = std::min(total_accepted * rx_irq_pb / rc.rcv_irq_budget, 1.0);
  // Per-round means weigh a K-RTT round as K rounds.
  snd_app_util_.add(snd_app_u, static_cast<std::size_t>(rtts));
  snd_irq_util_.add(snd_irq_u, static_cast<std::size_t>(rtts));
  rcv_app_util_.add(rcv_app_u, static_cast<std::size_t>(rtts));
  rcv_irq_util_.add(rcv_irq_u, static_cast<std::size_t>(rtts));

  if (in && in->perf) {
    // Budget offered this tick, per core group (the capacity side of the
    // perf.*_util gauges). App budgets are per flow; IRQ budgets are pooled.
    obs::PerfReport& pr = *in->perf;
    pr.capacity_cycles[static_cast<int>(obs::PerfCore::SndApp)] +=
        rc.snd_app_budget * static_cast<double>(flows_.size());
    pr.capacity_cycles[static_cast<int>(obs::PerfCore::SndIrq)] += rc.snd_irq_budget;
    pr.capacity_cycles[static_cast<int>(obs::PerfCore::RcvApp)] +=
        rc.rcv_app_budget * static_cast<double>(flows_.size());
    pr.capacity_cycles[static_cast<int>(obs::PerfCore::RcvIrq)] += rc.rcv_irq_budget;
    pr.bytes_delivered += interval_bytes_this_tick;
  }

  if (in) {
    auto& trace = tel_->trace();
    in->retx->add(tick_retx);
    if (tick_cc_loss_flows > 0) {
      trace.instant("cc_loss", "tcp", now_ns, 0,
                    {{"flows", static_cast<double>(tick_cc_loss_flows)},
                     {"lost_bytes", tick_cc_loss_bytes}});
    }
    const FlowState& f0 = flows_[0];
    const bool ss_now = f0.cc->in_slow_start();
    if (ss_now != in->flow0_slow_start) {
      trace.instant(ss_now ? "cc_enter_slow_start" : "cc_exit_slow_start", "tcp",
                    now_ns, 0, {{"cwnd_bytes", f0.cc->cwnd_bytes()}});
      in->flow0_slow_start = ss_now;
    }
    in->cwnd->set(f0.cc->cwnd_bytes());
    in->ssthresh->set(f0.cc->ssthresh_bytes());
    in->slow_start->set(ss_now ? 1.0 : 0.0);
    in->srtt->set(f0.rtt.srtt_sec());
    double pace = cfg_.flow.fq_rate_bps;
    const double cc_pace = f0.cc->pacing_rate_bps();
    if (cc_pace > 0.0) pace = pace > 0.0 ? std::min(pace, cc_pace) : cc_pace;
    in->pacing_rate->set(pace);
    in->cwnd_hist->add(f0.cc->cwnd_bytes(), dt_sec);

    for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
      in->flow_cwnd[fi]->set(flows_[fi].cc->cwnd_bytes());
    }
    in->flow_bps_min->set(units::rate_of(drain_min, dt_sec));
    in->flow_bps_max->set(units::rate_of(drain_max, dt_sec));
    in->flow_bps_range->set(units::rate_of(drain_max - drain_min, dt_sec));

    double backlog = 0.0;
    for (const auto& f : flows_) backlog += f.rcv_backlog_bytes;
    in->rcv_backlog->set(backlog);
    in->goodput->set(units::rate_of(interval_bytes_this_tick, dt_sec));
    in->delivered->add(interval_bytes_this_tick);
    in->gro_agg->set(rc.gro);
    in->sent_rate->set(units::rate_of(group_sent, dt_sec));
    in->snd_app->set(snd_app_u);
    in->snd_irq->set(snd_irq_u);
    in->rcv_app->set(rcv_app_u);
    in->rcv_irq->set(rcv_irq_u);

    // Round span (first kMaxRoundSpans rounds only; instants/counters keep
    // flowing for the whole run).
    if (rounds_ < kMaxRoundSpans) {
      const Nanos round_start =
          std::max<Nanos>(now_ns - static_cast<Nanos>(dt_sec * 1e9), 0);
      trace.begin("round", "round", round_start, 0,
                  {{"sent_bytes", group_sent},
                   {"delivered_bytes", interval_bytes_this_tick}});
      // Sub-round phases on track 1 — the round's burst anatomy (wire
      // serialization, path flight, receiver drain) so a trace viewer shows
      // where each round's wall time went.
      const double line_bps = std::max(sender_.config().nic.line_rate_bps, 1.0);
      Nanos tx_end =
          round_start + static_cast<Nanos>(group_sent * 8.0 / line_bps * 1e9);
      tx_end = std::min(tx_end, now_ns);
      Nanos transit_end = tx_end + static_cast<Nanos>(rtt * 0.5 * 1e9);
      transit_end = std::min(transit_end, now_ns);
      trace.begin("tx_burst", "round", round_start, 1, {{"bytes", group_sent}});
      trace.end("tx_burst", "round", tx_end, 1);
      trace.begin("path_transit", "round", tx_end, 1);
      trace.end("path_transit", "round", transit_end, 1);
      trace.begin("rx_drain", "round", transit_end, 1,
                  {{"delivered_bytes", interval_bytes_this_tick}});
      trace.end("rx_drain", "round", now_ns, 1);
      trace.end("round", "round", now_ns, 0);
    }
  }

  // ---- 1-second interval series -------------------------------------------
  // One add per RTT keeps the clock one-RTT rounds keep; plan_round() ends a
  // round on the RTT that closes the interval.
  interval_accum_bytes_ += interval_bytes_this_tick;
  for (int i = 0; i < rtts; ++i) interval_elapsed_ += dt_sec_;
  if (interval_elapsed_ >= 1.0) {
    interval_bps_.push_back(units::rate_of(interval_accum_bytes_, interval_elapsed_));
    interval_accum_bytes_ = 0.0;
    interval_elapsed_ = 0.0;
  }

  // ---- The next round's span ---------------------------------------------
  // A steady round lost nothing (path, NIC, host overrun or scenario cut),
  // left no flow bound by cwnd or the send buffer, nor by a receive window
  // off its fixed point, priced and made no zerocopy send that fell back,
  // and kept its binding constraint: the span then doubles, as far as every
  // zerocopy socket's free optmem covers the span's RTTs of its desired
  // send. Any other round restarts at one RTT.
  if constexpr (kCoalesce) {
    const bool lossy = transit.dropped_bytes > 0 || forced_loss > 0 || tick_nic_drops > 0;
    const bool steady = !lossy && !window_bound && !zc_fell_back && cause == last_limit_;
    span_earned_ = steady ? std::min(span_earned_ + 1, span_max_) : 0;
    while (span_earned_ > 0 && kSpans[static_cast<std::size_t>(span_earned_)].rtts > zc_room) {
      --span_earned_;
    }
  }
  last_limit_ = cause;
  ++rounds_;
}

obs::SsReport TransferSimulation::build_ss_report() const {
  obs::SsReport r = *instr_->ss;
  const double path_rtt = std::max(path_.spec().rtt_sec(), 1e-6);
  const double rcv_wnd_max = cfg_.receiver.tuning.sysctl.max_recv_window_bytes();
  const double seg = mss();

  for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
    const FlowState& f = flows_[fi];
    obs::TcpInfoSnapshot& s = r.sockets[fi];
    s.ca_name = f.cc->name();
    s.in_slow_start = f.cc->in_slow_start();
    s.mss_bytes = seg;
    s.snd_cwnd_bytes = f.cc->cwnd_bytes();
    s.snd_ssthresh_bytes = f.cc->ssthresh_bytes();
    s.rtt_sec = f.rtt.has_sample() ? f.rtt.srtt_sec() : path_rtt;
    s.rttvar_sec = f.rtt.rttvar_sec();
    s.min_rtt_sec = f.rtt.has_sample() ? f.rtt.min_rtt_sec() : path_rtt;
    double pace = cfg_.flow.fq_rate_bps;
    const double cc_pace = f.cc->pacing_rate_bps();
    if (cc_pace > 0.0) pace = pace > 0.0 ? std::min(pace, cc_pace) : cc_pace;
    s.pacing_rate_bps = pace;
    s.bytes_acked = f.delivered_bytes;
    s.segs_retrans = f.retransmit_segments;
    s.bytes_retrans = f.retransmit_segments * seg;
    s.rcv_space_bytes = std::max(rcv_wnd_max - f.rcv_backlog_bytes, 0.0);
    // tcpi_rcv_rtt: the receiver's own RTT estimate — the path RTT plus the
    // sojourn its socket backlog adds before the application drains it.
    s.rcv_rtt_sec = s.rtt_sec;
    if (s.delivery_rate_bps > 0.0) {
      s.rcv_rtt_sec += f.rcv_backlog_bytes * 8.0 / s.delivery_rate_bps;
    }
    s.optmem_max_bytes = f.zc_socket.optmem_max();
    s.optmem_hiwater_bytes = f.zc_socket.peak_optmem_used();
    s.zc_sent_bytes = f.zc_socket.total_zc_bytes();
    s.zc_copied_bytes = f.zc_socket.total_fallback_bytes();
    s.zc_copied_sends = static_cast<double>(f.zc_socket.fallback_events());
  }

  r.qdisc.kind = cfg_.sender.tuning.sysctl.default_qdisc == kern::QdiscKind::Fq
                     ? "fq"
                     : "fq_codel";
  return r;
}

TransferResult run_transfer(const TransferConfig& cfg) {
  TransferSimulation sim(cfg);
  return sim.run();
}

}  // namespace dtnsim::flow

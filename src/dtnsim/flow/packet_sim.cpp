#include "dtnsim/flow/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "dtnsim/kern/gro.hpp"
#include "dtnsim/kern/gso.hpp"
#include "dtnsim/net/nic.hpp"
#include "dtnsim/net/qdisc.hpp"
#include "dtnsim/sim/engine.hpp"

namespace dtnsim::flow {
namespace {

// Segments one NAPI poll takes off the RX ring (the kernel's default
// per-poll weight, NAPI_POLL_WEIGHT).
constexpr int kNapiBudget = 64;

// Metric handles for the pkt.* family, built only when a Telemetry sink is
// attached — the packet engine's analogue of TransferSimulation's
// Instruments. Counters/gauges mirror PacketSimResult so a probe series and
// the final result always agree.
struct PktInstruments {
  obs::Gauge* qdisc_backlog = nullptr;         // bytes enqueued, not departed
  obs::TimeWeightedHistogram* gap_hist = nullptr;
  obs::Counter* superpackets = nullptr;
  obs::Counter* segments = nullptr;
  obs::Gauge* ring_occupancy = nullptr;
  obs::Gauge* ring_peak = nullptr;
  obs::Counter* ring_drops = nullptr;
  obs::Counter* dropped_bytes = nullptr;
  obs::Counter* napi_polls = nullptr;
  obs::TimeWeightedHistogram* napi_batch = nullptr;
  obs::Counter* aggregates = nullptr;
  obs::TimeWeightedHistogram* agg_hist = nullptr;
  obs::Counter* delivered = nullptr;
  obs::Gauge* goodput = nullptr;
  bool overflowing = false;  // trace edge detection
};

struct SimState {
  const PacketSimConfig* cfg = nullptr;
  sim::Engine engine;
  net::FqQdisc* qdisc = nullptr;
  kern::GroEngine* gro = nullptr;
  obs::Telemetry* tel = nullptr;  // null when telemetry is off
  PktInstruments pkt;

  // Geometry / rates.
  double gso_bytes = 0.0;
  double mss = 0.0;
  double seg_payload = 0.0;   // gso_bytes split evenly over its segments
  Nanos half_rtt = 0;
  Nanos tx_prep_ns = 0;       // sender CPU time per super-packet
  Nanos rx_segment_ns = 0;    // receiver CPU time per wire segment
  int ring_capacity = 0;

  // Mutable state.
  double inflight = 0.0;
  Nanos tx_free_at = 0;       // sender core busy until
  int ring_used = 0;
  bool napi_busy = false;
  Nanos last_departure = -1;
  double rx_accepted_segments = 0.0;  // segments that made it into the ring

  // Results.
  PacketSimResult res;
  RunningStats gaps;
  double aggregate_bytes_total = 0.0;

  // Scenario hook (null when cfg.scenario is empty — the hot paths then pay
  // one null check, nothing else). Base values snapshot the configured
  // geometry so expired events fall back to it cleanly.
  std::unique_ptr<scenario::Runtime> scn;
  Nanos scn_base_half_rtt = 0;
  int scn_base_ring = 0;
  Nanos scn_base_rx_segment_ns = 0;
  double scn_base_pacing = 0.0;
  bool scn_base_fq = false;
  bool scn_pacing_overridden = false;
  double scn_loss_accum = 0.0;  // fractional-loss carry (deterministic drop)
  double scn_rcv_ooo = 0.0;     // out-of-order segments seen by the receiver
  obs::Counter* scn_events = nullptr;

  // Exact per-stage cycle attribution (dtnsim-perf): the one flow's row and
  // the run totals, allocated only when the attached Telemetry wants perf,
  // so an unprofiled run makes no attribution updates. The packet engine
  // runs one app core per side and folds IRQ work into the NAPI/service
  // times; the snd_irq/rcv_irq *cycles* are still attributed (from the cost
  // model's IRQ stage prices) so flamegraphs show where that folded work
  // goes, but no IRQ capacity is metered — utilization stays 0 for those
  // groups.
  std::unique_ptr<obs::PerfReport> perf;
  // Stage prices, set only when perf is on: TX per payload byte (the same
  // TxPathConfig priced tx_prep_ns), RX per wire segment.
  cpu::TxAppStageCyc tx_spb;
  cpu::TxIrqStageCyc tx_irq_spb;
  cpu::RxAppStageCyc rx_seg_spb;
  cpu::RxIrqStageCyc rx_irq_seg_spb;
};

void try_send(SimState& s);
void scenario_tick(SimState& s);

// Register the pkt.* metric family on the shared registry. Names are
// disjoint from the fluid engine's tcp./zc./net./flow./cpu. families, so a
// fluid run and a packet run of the same scenario can share one Telemetry
// and export side by side (the divergence report depends on this).
void setup_instruments(SimState& s) {
  auto& reg = s.tel->registry();
  s.pkt.qdisc_backlog =
      reg.gauge("pkt.qdisc_backlog_bytes", "bytes",
                "bytes enqueued in fq and not yet departed");
  s.pkt.gap_hist =
      reg.histogram("pkt.interdeparture_gap_ns", "ns",
                    "super-packet spacing at the qdisc (time-weighted)");
  s.pkt.superpackets =
      reg.counter("pkt.superpackets_sent", "packets", "GSO super-packets enqueued");
  s.pkt.segments =
      reg.counter("pkt.segments_sent", "segments", "wire segments after GSO split");
  s.pkt.ring_occupancy =
      reg.gauge("pkt.ring_occupancy", "descriptors", "RX descriptors in use");
  s.pkt.ring_peak =
      reg.gauge("pkt.ring_peak", "descriptors", "max RX descriptors in use");
  s.pkt.ring_drops =
      reg.counter("pkt.ring_drops", "segments", "segments lost to ring overrun");
  s.pkt.dropped_bytes =
      reg.counter("pkt.dropped_bytes", "bytes",
                  "payload lost before delivery (ring overrun, scenario loss)");
  s.pkt.napi_polls = reg.counter("pkt.napi_polls", "polls", "NAPI poll invocations");
  s.pkt.napi_batch =
      reg.histogram("pkt.napi_batch_segments", "segments",
                    "segments taken per NAPI poll (time-weighted by poll cost)");
  s.pkt.aggregates =
      reg.counter("pkt.gro_aggregates", "aggregates", "GRO aggregates delivered");
  s.pkt.agg_hist =
      reg.histogram(obs::kPacketMetrics.gro_aggregate_bytes, "bytes",
                    "GRO aggregate size (event-weighted; mean = mean size)");
  s.pkt.delivered = reg.counter(obs::kPacketMetrics.delivered_bytes, "bytes",
                                "payload delivered to the app");
  s.pkt.goodput = reg.gauge(obs::kPacketMetrics.goodput_bps, "bps",
                            "delivered rate over elapsed sim time");
}

void on_ack(SimState& s, double bytes) {
  s.inflight = std::max(s.inflight - bytes, 0.0);
  try_send(s);
}

void deliver_aggregate(SimState& s, double agg) {
  s.res.aggregates += 1;
  s.aggregate_bytes_total += agg;
  s.res.delivered_bytes += agg;
  if (s.tel) {
    s.pkt.aggregates->increment();
    s.pkt.delivered->add(agg);
    // Event-weighted: mean() is the mean aggregate size.
    s.pkt.agg_hist->add(agg, 1.0);
  }
  s.engine.schedule(s.half_rtt, [&s, agg] { on_ack(s, agg); });
}

// NAPI: grab up to `budget` descriptors, spend real CPU time processing
// them, then free the descriptors and re-arm. Arrivals during processing
// pile into the ring — and overrun it when the drain cannot keep up, which
// is precisely the burst-drop mechanism the fluid model abstracts.
void napi_poll(SimState& s) {
  if (s.napi_busy) return;
  if (s.ring_used <= 0) {
    if (auto tail = s.gro->flush()) deliver_aggregate(s, tail->value());  // NAPI exit
    return;
  }
  s.napi_busy = true;
  const int take = std::min(s.ring_used, kNapiBudget);
  const Nanos spent =
      std::max<Nanos>(static_cast<Nanos>(take) * s.rx_segment_ns, 1);
  if (s.tel) {
    s.pkt.napi_polls->increment();
    s.pkt.napi_batch->add(static_cast<double>(take), units::to_seconds(spent));
  }
  if (s.perf) {
    // Attribute the batch's service cycles (whose ns projection is `spent`)
    // to the recvmsg-path stages. This engine drains in the app context, so
    // that charge lands on rcv_app; the NAPI-side work the drain folds in
    // (skb alloc, GRO merge, flush, checksum) is attributed to rcv_irq at
    // the cost model's prices — attribution only, no extra simulated time.
    obs::PerfReport& pr = *s.perf;
    const double n = static_cast<double>(take);
    const cpu::RxAppStageCyc& app = s.rx_seg_spb;
    const cpu::RxIrqStageCyc& irq = s.rx_irq_seg_spb;
    pr.add(0, obs::PerfStage::RxSyscall, n * app.syscall);
    pr.add(0, obs::PerfStage::RxFragWalk, n * app.frag_walk);
    pr.add(0, obs::PerfStage::RxCopyout, n * app.copyout);
    pr.consumed_cycles[static_cast<int>(obs::PerfCore::RcvApp)] += n * app.total();
    pr.add(0, obs::PerfStage::RxSkbAlloc, n * irq.skb_alloc);
    pr.add(0, obs::PerfStage::RxGroMerge, n * irq.gro_merge);
    pr.add(0, obs::PerfStage::RxAggFlush, n * irq.agg_flush);
    pr.add(0, obs::PerfStage::RxCsum, n * irq.csum);
    pr.consumed_cycles[static_cast<int>(obs::PerfCore::RcvIrq)] += n * irq.total();
  }
  s.engine.schedule(spent, [&s, take] {
    for (int i = 0; i < take; ++i) {
      if (auto agg = s.gro->add_segment(units::Bytes(s.seg_payload)))
        deliver_aggregate(s, agg->value());
    }
    s.ring_used -= take;
    s.napi_busy = false;
    napi_poll(s);  // re-arm: drain the backlog or flush the GRO tail
  });
}

void on_arrival(SimState& s, int segments) {
  if (s.scn) {
    const auto& e = s.scn->effects();
    int lose = 0;
    if (e.link_down) {
      lose = segments;
    } else if (e.loss_frac > 0.0) {
      // Deterministic fractional drop: carry the remainder instead of
      // drawing randomness, so jobs=1 and jobs=N replay bit-identically.
      s.scn_loss_accum += static_cast<double>(segments) * e.loss_frac;
      lose = std::min(static_cast<int>(s.scn_loss_accum), segments);
      s.scn_loss_accum -= static_cast<double>(lose);
    }
    if (lose > 0) {
      segments -= lose;
      s.res.segments_lost_path += static_cast<std::uint64_t>(lose);
      s.scn_rcv_ooo += static_cast<double>(lose);  // holes arrive out of order
      // Lost segments hold the window until the modelled retransmit lands a
      // recovery round later; the retransmitted copy is not goodput.
      const double bytes = static_cast<double>(lose) * s.seg_payload;
      s.engine.schedule(s.half_rtt * 3, [&s, bytes] { on_ack(s, bytes); });
      if (s.tel) s.pkt.dropped_bytes->add(bytes);
    }
    if (e.reorder_frac > 0.0) {
      s.scn_rcv_ooo += static_cast<double>(segments) * e.reorder_frac;
    }
    if (segments <= 0) return;
  }
  int dropped = 0;
  for (int i = 0; i < segments; ++i) {
    if (s.ring_used >= s.ring_capacity) {
      s.res.segments_dropped += 1;  // ring overrun: the NIC has nowhere to DMA
      ++dropped;
      continue;
    }
    s.ring_used += 1;
  }
  s.rx_accepted_segments += static_cast<double>(segments - dropped);
  s.res.ring_peak = std::max(s.res.ring_peak, s.ring_used);
  if (s.tel) {
    s.pkt.ring_occupancy->set(static_cast<double>(s.ring_used));
    s.pkt.ring_peak->set(static_cast<double>(s.res.ring_peak));
    if (dropped > 0) {
      s.pkt.ring_drops->add(static_cast<double>(dropped));
      s.pkt.dropped_bytes->add(static_cast<double>(dropped) * s.seg_payload);
      if (!s.pkt.overflowing) {
        s.tel->trace().instant(
            "pkt_ring_overflow", "pkt", s.engine.now(), 0,
            {{"dropped_segments", static_cast<double>(dropped)},
             {"ring_used", static_cast<double>(s.ring_used)}});
      }
    }
    s.pkt.overflowing = dropped > 0;
  }
  if (!s.napi_busy && s.ring_used > 0) {
    s.engine.schedule(1, [&s] { napi_poll(s); });
  }
}

void try_send(SimState& s) {
  while (s.inflight + s.gso_bytes <= s.cfg->window_bytes) {
    if (s.engine.now() >= s.cfg->duration.nanos()) return;
    // Sender core serializes super-packet preparation.
    const Nanos ready = std::max(s.engine.now(), s.tx_free_at);
    if (ready > s.engine.now()) {
      s.engine.schedule_at(ready, [&s] { try_send(s); });
      return;
    }
    s.tx_free_at = s.engine.now() + s.tx_prep_ns;

    const Nanos depart = s.qdisc->enqueue(/*flow=*/1, s.gso_bytes, s.engine.now());
    if (s.last_departure >= 0) {
      const Nanos gap = depart - s.last_departure;
      s.gaps.add(static_cast<double>(gap));
      if (s.tel) {
        // Time-weighted by the gap itself: long silences dominate the mean,
        // matching how an observer on the wire would see the spacing.
        s.pkt.gap_hist->add(static_cast<double>(gap),
                            std::max(units::to_seconds(gap), 1e-12));
      }
    }
    s.last_departure = depart;

    s.inflight += s.gso_bytes;
    s.res.superpackets_sent += 1;
    if (s.perf) {
      // Charge in cycles from the per-byte stage prices, not from the
      // ns-quantized tx_prep_ns — the quantization error (~3 cyc/ns per
      // super-packet) would fail the stage-sum == consumed cross-check.
      obs::PerfReport& pr = *s.perf;
      const double b = s.gso_bytes;
      const cpu::TxAppStageCyc& app = s.tx_spb;
      const cpu::TxIrqStageCyc& irq = s.tx_irq_spb;
      pr.add(0, obs::PerfStage::TxSyscall, b * app.syscall);
      pr.add(0, obs::PerfStage::TxProto, b * app.proto);
      pr.add(0, obs::PerfStage::TxUserCopy, b * app.user_copy);
      pr.add(0, obs::PerfStage::TxZcPin, b * app.zc_pin);
      pr.add(0, obs::PerfStage::TxZcNotify, b * app.zc_notify);
      pr.add(0, obs::PerfStage::TxZcFallback, b * app.zc_fallback);
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::SndApp)] += b * app.total();
      // Segmentation/DMA/completion work rides inside tx_prep in this
      // engine; attribute it to snd_irq so the profile shows it (no extra
      // simulated time is charged).
      pr.add(0, obs::PerfStage::TxGsoSegment, b * irq.gso_segment);
      pr.add(0, obs::PerfStage::TxDmaMap, b * irq.dma_map);
      pr.add(0, obs::PerfStage::TxCompletion, b * irq.completion);
      pr.consumed_cycles[static_cast<int>(obs::PerfCore::SndIrq)] += b * irq.total();
      pr.bytes_sent += b;
    }
    const int segments = static_cast<int>(std::ceil(s.gso_bytes / s.mss));
    s.res.segments_sent += static_cast<std::uint64_t>(segments);
    if (s.tel) {
      s.pkt.superpackets->increment();
      s.pkt.segments->add(static_cast<double>(segments));
      // Backlog = bytes enqueued but not yet departed; decays at departure.
      s.pkt.qdisc_backlog->add(s.gso_bytes);
      s.engine.schedule_at(depart, [&s] { s.pkt.qdisc_backlog->add(-s.gso_bytes); });
    }
    s.engine.schedule_at(depart + s.half_rtt, [&s, segments] { on_arrival(s, segments); });

    if (s.tx_prep_ns > 0) {
      // Come back when the core is free; avoids unbounded same-time loops.
      s.engine.schedule_at(s.tx_free_at, [&s] { try_send(s); });
      return;
    }
  }
}

// Apply the scenario state for "now" and arm the next boundary. The packet
// engine has no per-tick loop to piggyback on, so the Runtime is driven by
// its own boundary events: each firing folds the active effects onto the
// knobs the engine re-reads on every event (ring capacity, path RTT, NAPI
// drain speed, fq pacing) and re-schedules itself at the next boundary.
void scenario_tick(SimState& s) {
  const auto& lg = s.scn->log();
  const std::size_t logged_before = lg.size();
  if (s.scn->advance(units::to_seconds(s.engine.now()))) {
    const auto& e = s.scn->effects();
    s.half_rtt =
        s.scn_base_half_rtt + static_cast<Nanos>(e.extra_rtt_sec * 0.5e9);
    s.ring_capacity =
        e.ring_descriptors >= 0
            ? std::clamp(static_cast<int>(std::lround(e.ring_descriptors)), 64,
                         s.cfg->receiver.nic.max_ring_descriptors)
            : s.scn_base_ring;
    // IRQ drain degradation scales the per-segment service time up (the
    // fluid engine scales its IRQ budget down by the same factor).
    s.rx_segment_ns = static_cast<Nanos>(
        static_cast<double>(s.scn_base_rx_segment_ns) / e.irq_drain_mult);
    if (e.pacing_bps >= 0.0) {
      s.qdisc->set_flow_rate(1, e.pacing_bps);
      s.scn_pacing_overridden = true;
    } else if (s.scn_pacing_overridden) {
      s.qdisc->set_flow_rate(1, s.scn_base_fq ? s.scn_base_pacing : 0.0);
      s.scn_pacing_overridden = false;
    }
  }
  for (std::size_t i = logged_before; i < lg.size(); ++i) {
    const auto& ae = lg[i];
    if (s.scn_events && ae.applied) s.scn_events->increment();
    if (s.tel) {
      s.tel->trace().instant(
          "scenario_" + std::string(scenario::kind_name(ae.kind)), "scenario",
          s.engine.now(), 0,
          {{"value", ae.value},
           {"fire_sec", ae.fire_sec},
           {"applied", ae.applied ? 1.0 : 0.0}});
    }
  }
  const double nb = s.scn->next_boundary_sec();
  if (std::isfinite(nb)) {
    const Nanos at = std::max<Nanos>(static_cast<Nanos>(nb * 1e9) + 1,
                                     s.engine.now() + 1);
    s.engine.schedule_at(at, [&s] { scenario_tick(s); });
  }
}

}  // namespace

PacketSimResult run_packet_sim(const PacketSimConfig& cfg) {
  SimState s;
  s.cfg = &cfg;

  const host::Host sender(cfg.sender);
  const host::Host receiver(cfg.receiver);
  const auto snd_caps = sender.skb_caps();
  const auto rcv_caps = receiver.skb_caps();
  const double mtu = std::min(cfg.sender.tuning.mtu_bytes, cfg.receiver.tuning.mtu_bytes);

  s.gso_bytes = kern::effective_gso_bytes(snd_caps, cfg.zerocopy, units::Bytes(mtu)).value();
  s.mss = std::max(mtu - 40.0, 536.0);
  s.seg_payload = s.gso_bytes / std::ceil(s.gso_bytes / s.mss);
  s.half_rtt = cfg.path.rtt / 2;
  s.ring_capacity = std::clamp(cfg.receiver.tuning.ring_descriptors, 64,
                               cfg.receiver.nic.max_ring_descriptors);

  // CPU service times from the cost models.
  const auto snd_cost = sender.make_cost_model(cpu::PlacementQuality{});
  const auto rcv_cost = receiver.make_cost_model(cpu::PlacementQuality{});
  cpu::TxPathConfig txc;
  txc.gso_bytes = s.gso_bytes;
  txc.mtu_bytes = mtu;
  txc.zc_fraction = cfg.zerocopy ? 1.0 : 0.0;
  s.tx_prep_ns = static_cast<Nanos>(snd_cost.tx_app_cyc_per_byte(txc) * s.gso_bytes /
                                    sender.app_core_hz() * 1e9);
  cpu::RxPathConfig rxc;
  rxc.gro_bytes = kern::effective_gro_bytes(rcv_caps, units::Bytes(mtu)).value();
  rxc.mtu_bytes = mtu;
  s.rx_segment_ns = static_cast<Nanos>(rcv_cost.rx_app_cyc_per_byte(rxc) * s.mss /
                                       receiver.app_core_hz() * 1e9);

  net::FqQdisc qdisc(cfg.sender.nic.line_rate_bps);
  if (cfg.pacing_bps > 0 &&
      cfg.sender.tuning.sysctl.default_qdisc == kern::QdiscKind::Fq) {
    qdisc.set_flow_rate(1, cfg.pacing_bps);
  }
  s.qdisc = &qdisc;
  kern::GroEngine gro(rcv_caps, units::Bytes(mtu));
  s.gro = &gro;

  if (!cfg.scenario.empty()) {
    s.scn = std::make_unique<scenario::Runtime>(
        cfg.scenario, cfg.seed, "packet",
        std::vector<scenario::EventKind>{
            scenario::EventKind::LossBurst, scenario::EventKind::ReorderBurst,
            scenario::EventKind::LinkDown, scenario::EventKind::LinkUp,
            scenario::EventKind::LinkAddRtt,
            scenario::EventKind::NicRingResize,
            scenario::EventKind::QdiscPacingRate,
            scenario::EventKind::IrqDrainDegrade});
    s.scn_base_half_rtt = s.half_rtt;
    s.scn_base_ring = s.ring_capacity;
    s.scn_base_rx_segment_ns = s.rx_segment_ns;
    s.scn_base_fq =
        cfg.sender.tuning.sysctl.default_qdisc == kern::QdiscKind::Fq;
    s.scn_base_pacing = s.scn_base_fq ? cfg.pacing_bps : 0.0;
  }

  const Nanos horizon = cfg.duration.nanos() + cfg.path.rtt * 2;
  // Declared after `s`, so the session detaches its views from the sampler
  // before this frame's SimState dies, however the run exits.
  std::optional<obs::Sampler::Session> sampling;
  if (cfg.telemetry && cfg.telemetry->config().enabled) {
    s.tel = cfg.telemetry;
    setup_instruments(s);
    if (s.scn) {
      // Same name/unit/help as the fluid engine's registration so a shared
      // Telemetry (divergence runs) folds both engines into one counter.
      s.scn_events = s.tel->registry().counter(
          obs::kScenarioEventsApplied, "events", "scenario events applied so far");
    }
    s.tel->trace().begin("packet_run", "pkt", 0, 0,
                         {{"duration_ms", cfg.duration.seconds() * 1e3},
                          {"pacing_bps", cfg.pacing_bps},
                          {"window_bytes", cfg.window_bytes}});
    obs::Sampler::Source views;
    views.metrics = &obs::kPacketMetrics;
    views.refresh = [&s](Nanos now) {
      const double sec = units::to_seconds(now);
      s.pkt.goodput->set(sec > 0.0 ? units::rate_of(s.res.delivered_bytes, sec) : 0.0);
      s.pkt.ring_occupancy->set(static_cast<double>(s.ring_used));
      s.pkt.ring_peak->set(static_cast<double>(s.res.ring_peak));
    };
    if (s.tel->wants_ss()) {
      // Kernel-eye snapshot source. Everything below only *reads* SimState;
      // bytes_acked is s.res.delivered_bytes, the sum of what this run adds
      // to the pkt.delivered_bytes counter, so the sampler's delivered-bytes
      // cross-check holds (bitwise when the counter starts the run at 0).
      const bool hw_gro = receiver.hw_gro_active();
      const std::string nic_model = cfg.receiver.nic.model;
      const std::string qkind =
          cfg.sender.tuning.sysctl.default_qdisc == kern::QdiscKind::Fq
              ? "fq"
              : "fq_codel";
      views.ss = [&s, hw_gro, nic_model, qkind](Nanos now) {
        obs::SsReport r;
        r.ts = now;
        r.engine = "packet";
        obs::TcpInfoSnapshot t;
        t.flow = 0;
        t.ca_name = "fixed-window";
        t.in_slow_start = false;
        t.mss_bytes = s.mss;
        t.snd_cwnd_bytes = s.cfg->window_bytes;
        const double rtt_sec = units::to_seconds(s.cfg->path.rtt);
        t.rtt_sec = rtt_sec;
        t.min_rtt_sec = rtt_sec;
        // Receiver-side estimates: rcv_rtt adds the ring sojourn of the
        // current backlog; ooopack counts the holes ring drops and scenario
        // loss/reorder punched into the arrival order.
        t.rcv_rtt_sec =
            rtt_sec + units::to_seconds(static_cast<Nanos>(s.ring_used) *
                                        s.rx_segment_ns);
        t.rcv_ooopack =
            static_cast<double>(s.res.segments_dropped) + s.scn_rcv_ooo;
        t.pacing_rate_bps = s.cfg->pacing_bps;
        const double sent =
            static_cast<double>(s.res.superpackets_sent) * s.gso_bytes;
        t.bytes_sent = sent;
        t.bytes_acked = s.res.delivered_bytes;
        const double sec = units::to_seconds(now);
        t.send_rate_bps = sec > 0.0 ? units::rate_of(sent, sec) : 0.0;
        t.delivery_rate_bps =
            sec > 0.0 ? units::rate_of(s.res.delivered_bytes, sec) : 0.0;
        r.sockets.push_back(std::move(t));
        r.nic.device = nic_model;
        r.nic.rx_bytes = s.rx_accepted_segments * s.seg_payload;
        r.nic.rx_dropped_bytes =
            static_cast<double>(s.res.segments_dropped) * s.seg_payload;
        r.nic.rx_dropped_events = static_cast<double>(s.res.segments_dropped);
        r.nic.rx_ring_hiwater_frac =
            s.ring_capacity > 0 ? static_cast<double>(s.res.ring_peak) /
                                      static_cast<double>(s.ring_capacity)
                                : 0.0;
        r.nic.hw_gro_coalesced =
            hw_gro ? static_cast<double>(s.res.aggregates) : 0.0;
        const auto& qc = s.qdisc->counters();
        r.qdisc.kind = qkind;
        r.qdisc.sent_bytes = qc.sent_bytes;
        r.qdisc.throttled = static_cast<double>(qc.throttled);
        r.qdisc.pacing_delay_sec = units::to_seconds(qc.pacing_delay);
        return r;
      };
    }
    if (s.tel->wants_perf()) {
      s.perf = std::make_unique<obs::PerfReport>();
      s.perf->engine = "packet";
      s.perf->flows.resize(1);
      // TX stage prices come from the same TxPathConfig that priced
      // tx_prep_ns, so stage sums track the engine's scalar charge exactly.
      s.tx_spb = snd_cost.tx_app_stage_cyc(txc);
      s.tx_irq_spb = snd_cost.tx_irq_stage_cyc(txc);
      // RX: per-wire-segment stage cycles, from the RxPathConfig that priced
      // rx_segment_ns.
      const auto rx_pb = rcv_cost.rx_app_stage_cyc(rxc);
      s.rx_seg_spb = {rx_pb.syscall * s.mss, rx_pb.frag_walk * s.mss, rx_pb.copyout * s.mss};
      const auto rx_irq_pb = rcv_cost.rx_irq_stage_cyc(rxc);
      s.rx_irq_seg_spb = {rx_irq_pb.skb_alloc * s.mss, rx_irq_pb.gro_merge * s.mss,
                          rx_irq_pb.agg_flush * s.mss, rx_irq_pb.csum * s.mss};
      // A copy of the accumulator plus what the clock and the delivery count
      // give at `now`. The packet engine runs one app core per side and
      // meters no IRQ capacity; snd_irq/rcv_irq carry attributed cycles
      // against zero capacity (utilization reads 0).
      views.perf = [&s, snd_hz = sender.app_core_hz(),
                    rcv_hz = receiver.app_core_hz()](Nanos now) {
        obs::PerfReport r = *s.perf;
        const double sec = units::to_seconds(now);
        r.capacity_cycles[static_cast<int>(obs::PerfCore::SndApp)] = sec * snd_hz;
        r.capacity_cycles[static_cast<int>(obs::PerfCore::RcvApp)] = sec * rcv_hz;
        r.bytes_delivered = s.res.delivered_bytes;
        return r;
      };
    }
    sampling.emplace(s.tel->sampler(), s.engine, horizon, std::move(views));
  }

  // Scenario effects at t=0 must be in place before the first send; the
  // tick then re-arms itself at every later boundary.
  if (s.scn) scenario_tick(s);

  s.engine.schedule(0, [&s] { try_send(s); });
  s.engine.run_until(horizon);

  if (s.scn) {
    // Cross any boundaries past the last engine event so the log is
    // complete, then export it.
    s.scn->advance(cfg.duration.seconds());
    s.res.scenario_log = s.scn->event_log();
  }

  if (sampling) {
    s.tel->trace().end("packet_run", "pkt", s.engine.now());
    // A closing series row after the final ss and perf reports: the default
    // 1 s cadence never fires inside a 50 ms horizon, and a shared series
    // must still pick up the pkt.* columns.
    sampling->finish(s.engine.now(), /*closing_row=*/true);
  }

  s.res.achieved_bps =
      units::rate_of(s.res.delivered_bytes, cfg.duration.seconds());
  s.res.mean_aggregate_bytes =
      s.res.aggregates > 0 ? s.aggregate_bytes_total / static_cast<double>(s.res.aggregates)
                           : 0.0;
  s.res.interdeparture_mean_ns = s.gaps.mean();
  s.res.interdeparture_stddev_ns = s.gaps.stddev();
  return s.res;
}

}  // namespace dtnsim::flow

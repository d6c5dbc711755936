// Kernel-eye snapshots (dtnsim-ss): field consistency against the shared
// Registry (also across repeated runs on one Telemetry), the Fig. 9
// zerocopy/optmem pathology and its tuned clearing, NIC/qdisc counter
// monotonicity under --watch, JSON round-trips through Json::parse, the
// zero-cost-when-disabled guarantee, and the snapshot key schema golden
// (tests/golden/ss_snapshot_keys.txt).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/core/dtnsim.hpp"
#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/obs/ss.hpp"

namespace dtnsim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The paper's Fig. 9 cell: AmLight WAN 104 ms, kernel 6.5, zerocopy, paced
// at 50G. At the default 20 KB optmem the sender silently copies; at
// ~3.25 MB the path's worth of in-flight charges fits and zerocopy holds.
Experiment fig09_cell(double optmem_bytes) {
  return Experiment(harness::amlight(kern::KernelVersion::V6_5))
      .path("WAN 104ms")
      .zerocopy()
      .pacing(units::Rate::from_gbps(50))
      .optmem_max(units::Bytes(optmem_bytes))
      .duration(units::SimTime::from_seconds(5))
      .repeats(1);
}

TEST(SsSnapshot, Fig09PathologyAtDefaultOptmemClearsWhenTuned) {
  const auto sick = fig09_cell(20480).ss().run();
  ASSERT_FALSE(sick.ss_log.empty());
  const auto& s = sick.ss_log.back().sockets.at(0);
  // The knee: optmem pinned at its cap, most zc traffic degraded to copies.
  EXPECT_DOUBLE_EQ(s.optmem_max_bytes, 20480.0);
  EXPECT_DOUBLE_EQ(s.optmem_hiwater_bytes, 20480.0);
  EXPECT_GT(s.zc_copied_bytes, s.zc_sent_bytes);
  EXPECT_GT(s.zc_copied_sends, 0.0);
  EXPECT_GT(sick.zc_fallback_ratio, 0.5);

  const auto tuned = fig09_cell(3405376).ss().run();
  ASSERT_FALSE(tuned.ss_log.empty());
  const auto& t = tuned.ss_log.back().sockets.at(0);
  // Tuned: the in-flight charge floats below the cap and nothing falls back.
  EXPECT_DOUBLE_EQ(t.zc_copied_bytes, 0.0);
  EXPECT_DOUBLE_EQ(t.zc_copied_sends, 0.0);
  EXPECT_GT(t.zc_sent_bytes, 0.0);
  EXPECT_LT(t.optmem_hiwater_bytes, t.optmem_max_bytes);
  EXPECT_GT(tuned.avg_gbps, sick.avg_gbps);
}

TEST(SsSnapshot, FieldsConsistentWithRegistryAndProbe) {
  // One in-process fluid run so the Telemetry (and its Registry) is ours to
  // inspect next to the snapshot log.
  const auto tb = harness::esnet(kern::KernelVersion::V6_8);
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.ss_enabled = true;
  tcfg.ss_interval = units::seconds(1);
  obs::Telemetry tel(tcfg);

  flow::TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.streams = 4;
  cfg.duration = units::SimTime::from_seconds(3);
  cfg.telemetry = &tel;
  const auto res = flow::run_transfer(cfg);

  const auto& log = tel.ss_log();
  ASSERT_GE(log.size(), 3u);  // watch samples at 1s, 2s + the final one
  const auto& last = log.back();
  EXPECT_EQ(last.engine, "fluid");
  ASSERT_EQ(last.sockets.size(), 4u);

  // ss's bytes_acked and the probe-facing delivered-bytes counter are two
  // views of the same events (the sampler cross-checks every ss sample).
  EXPECT_NO_THROW(obs::cross_check_delivered(last, tel.registry(),
                                             obs::kFluidMetrics.delivered_bytes, 0.0));
  EXPECT_NEAR(last.total_bytes_acked(), tel.registry().value_of("flow.delivered_bytes"),
              1e-6 * last.total_bytes_acked());
  // delivery_rate mirrors the per-flow goodput gauges.
  for (const auto& sock : last.sockets) {
    const double gauge = tel.registry().value_of(
        obs::labeled_name("flow.goodput_bps", "flow", sock.flow));
    EXPECT_NEAR(sock.delivery_rate_bps, gauge, 1e-6 * gauge) << sock.flow;
    EXPECT_GT(sock.snd_cwnd_bytes, 0.0);
    EXPECT_GT(sock.rtt_sec, 0.0);
    EXPECT_GE(sock.rtt_sec, sock.min_rtt_sec);
  }
  // The ss.* mirror gauges carry the headline figures.
  EXPECT_DOUBLE_EQ(tel.registry().value_of("ss.sockets"), 4.0);
  EXPECT_NEAR(tel.registry().value_of("ss.delivery_rate_bps"),
              last.total_delivery_rate_bps(), 1e-6 * last.total_delivery_rate_bps());
  // Aggregate sanity against the run's own result (goodput x time = bytes;
  // loose bound — throughput is drain-side, bytes_acked is delivery-side).
  EXPECT_NEAR(last.total_bytes_acked(), res.throughput_bps * res.duration_sec / 8.0,
              1e-2 * last.total_bytes_acked());
}

TEST(SsSnapshot, WatchCountersAreMonotonic) {
  const auto r = fig09_cell(3405376).ss_watch(units::SimTime::from_seconds(1)).run();
  ASSERT_GE(r.ss_log.size(), 4u);  // 1..4 s watch + final
  for (std::size_t i = 1; i < r.ss_log.size(); ++i) {
    const auto& prev = r.ss_log[i - 1];
    const auto& cur = r.ss_log[i];
    EXPECT_GT(cur.ts, prev.ts);
    // Cumulative NIC counters never move backwards...
    EXPECT_GE(cur.nic.rx_bytes, prev.nic.rx_bytes);
    EXPECT_GE(cur.nic.rx_dropped_bytes, prev.nic.rx_dropped_bytes);
    EXPECT_GE(cur.nic.hw_gro_coalesced, prev.nic.hw_gro_coalesced);
    // ...nor do the qdisc's.
    EXPECT_GE(cur.qdisc.sent_bytes, prev.qdisc.sent_bytes);
    EXPECT_GE(cur.qdisc.throttled, prev.qdisc.throttled);
    EXPECT_GE(cur.qdisc.pacing_delay_sec, prev.qdisc.pacing_delay_sec);
    // ...and per-socket lifetime counters.
    EXPECT_GE(cur.sockets.at(0).bytes_acked, prev.sockets.at(0).bytes_acked);
    EXPECT_GE(cur.sockets.at(0).optmem_hiwater_bytes,
              prev.sockets.at(0).optmem_hiwater_bytes);
  }
  // A 50G paced run on a 100G link is qdisc-throttled; the fq counters say so.
  EXPECT_GT(r.ss_log.back().qdisc.throttled, 0.0);
  EXPECT_GT(r.ss_log.back().qdisc.pacing_delay_sec, 0.0);
  EXPECT_EQ(r.ss_log.back().qdisc.kind, "fq");
}

TEST(SsSnapshot, PacketEngineSnapshotAgreesWithResult) {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.ss_enabled = true;
  obs::Telemetry tel(tcfg);

  flow::PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_millis(20);
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  cfg.telemetry = &tel;
  const auto res = flow::run_packet_sim(cfg);

  ASSERT_EQ(tel.ss_log().size(), 1u);  // final snapshot only
  const auto& rep = tel.ss_log().front();
  EXPECT_EQ(rep.engine, "packet");
  ASSERT_EQ(rep.sockets.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.sockets[0].bytes_acked, res.delivered_bytes);
  EXPECT_NO_THROW(obs::cross_check_delivered(rep, tel.registry(),
                                             obs::kPacketMetrics.delivered_bytes, 0.0));
  EXPECT_GT(rep.nic.rx_bytes, 0.0);
  EXPECT_GT(rep.qdisc.sent_bytes, 0.0);
}

// flow.delivered_bytes and pkt.delivered_bytes accumulate over every run of
// their engine on one Telemetry, while an ss snapshot sums one run's
// sockets: each session cross-checks what its own run added.
TEST(SsSnapshot, RepeatedRunsOnOneTelemetryEachPassTheCrossCheck) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.ss_enabled = true;
  obs::Telemetry tel(tcfg);

  const auto esnet = harness::esnet(kern::KernelVersion::V6_8);
  flow::TransferConfig fluid;
  fluid.sender = esnet.sender;
  fluid.receiver = esnet.receiver;
  fluid.path = esnet.lan();
  fluid.duration = units::SimTime::from_seconds(1);
  fluid.telemetry = &tel;

  const auto amlight = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  flow::PacketSimConfig packet;
  packet.sender = amlight.sender;
  packet.receiver = amlight.receiver;
  packet.path = amlight.lan();
  packet.duration = units::SimTime::from_millis(5);
  packet.pacing_bps = units::gbps(10);
  packet.window_bytes = 64e6;
  packet.telemetry = &tel;

  const auto& reg = tel.registry();
  double fluid_once = 0.0, packet_once = 0.0;
  for (int run = 0; run < 2; ++run) {
    ASSERT_NO_THROW(flow::run_transfer(fluid)) << "fluid run " << run;
    EXPECT_EQ(tel.ss_log().back().engine, "fluid");
    if (run == 0) fluid_once = reg.value_of(obs::kFluidMetrics.delivered_bytes);
    ASSERT_NO_THROW(flow::run_packet_sim(packet)) << "packet run " << run;
    EXPECT_EQ(tel.ss_log().back().engine, "packet");
    if (run == 0) packet_once = reg.value_of(obs::kPacketMetrics.delivered_bytes);
  }
  // Same seed, same run: each counter holds twice one run's bytes (to the
  // rounding of adding onto a nonzero total).
  EXPECT_GT(fluid_once, 0.0);
  EXPECT_GT(packet_once, 0.0);
  EXPECT_NEAR(reg.value_of(obs::kFluidMetrics.delivered_bytes), 2.0 * fluid_once,
              1e-9 * fluid_once);
  EXPECT_NEAR(reg.value_of(obs::kPacketMetrics.delivered_bytes), 2.0 * packet_once,
              1e-9 * packet_once);
  EXPECT_DOUBLE_EQ(tel.ss_log().back().total_bytes_acked(), packet_once);
}

TEST(SsSnapshot, JsonRoundTripsThroughParser) {
  const auto r = fig09_cell(20480).ss_watch(units::SimTime::from_seconds(2)).run();
  ASSERT_GE(r.ss_log.size(), 2u);

  const std::string text = obs::ss_log_to_json(r.ss_log).dump(2);
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto back = obs::ss_log_from_json(*doc);
  ASSERT_EQ(back.size(), r.ss_log.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto& a = r.ss_log[i];
    const auto& b = back[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.engine, b.engine);
    ASSERT_EQ(a.sockets.size(), b.sockets.size());
    for (std::size_t f = 0; f < a.sockets.size(); ++f) {
      EXPECT_EQ(a.sockets[f].flow, b.sockets[f].flow);
      EXPECT_DOUBLE_EQ(a.sockets[f].bytes_acked, b.sockets[f].bytes_acked);
      EXPECT_DOUBLE_EQ(a.sockets[f].zc_copied_bytes, b.sockets[f].zc_copied_bytes);
      EXPECT_DOUBLE_EQ(a.sockets[f].rtt_sec, b.sockets[f].rtt_sec);
      EXPECT_EQ(a.sockets[f].in_slow_start, b.sockets[f].in_slow_start);
    }
    EXPECT_DOUBLE_EQ(a.nic.rx_bytes, b.nic.rx_bytes);
    EXPECT_EQ(a.nic.device, b.nic.device);
    EXPECT_DOUBLE_EQ(a.qdisc.throttled, b.qdisc.throttled);
    EXPECT_EQ(a.qdisc.kind, b.qdisc.kind);
  }
  // The text renderer shows the pathology an operator would look for.
  const auto& last = r.ss_log.back();
  const std::string pretty = obs::format_ss(last);
  EXPECT_NE(pretty.find("zerocopy:"), std::string::npos);
  EXPECT_NE(pretty.find("optmem"), std::string::npos);
  EXPECT_NE(pretty.find("cubic"), std::string::npos);
}

// The snapshot JSON schema is a compatibility surface (dtnsim-ss --json
// consumers, the CI smoke). Golden lives in tests/golden/; regenerate by
// dumping to_json(TcpInfoSnapshot{}).keys() one per line.
TEST(SsSnapshot, TcpInfoKeysMatchGolden) {
  const std::string golden_path =
      std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/ss_snapshot_keys.txt";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  std::vector<std::string> want;
  std::stringstream in(golden);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);

  const auto keys = obs::to_json(obs::TcpInfoSnapshot{}).keys();  // sorted
  EXPECT_EQ(keys, want) << "snapshot schema changed; regenerate tests/golden/"
                           "ss_snapshot_keys.txt (see docs/OBSERVABILITY.md)";
}

TEST(SsSnapshot, DisabledSsLeavesRunBitIdentical) {
  // The acceptance bar: arming snapshots must not perturb the simulation.
  const auto base = fig09_cell(20480).run();
  const auto with_ss = fig09_cell(20480).ss_watch(units::SimTime::from_seconds(1)).run();
  EXPECT_DOUBLE_EQ(base.avg_gbps, with_ss.avg_gbps);
  EXPECT_DOUBLE_EQ(base.avg_retransmits, with_ss.avg_retransmits);
  EXPECT_DOUBLE_EQ(base.zc_fallback_ratio, with_ss.zc_fallback_ratio);
  EXPECT_DOUBLE_EQ(base.snd_cpu_pct, with_ss.snd_cpu_pct);
  EXPECT_TRUE(base.ss_log.empty());
  EXPECT_FALSE(with_ss.ss_log.empty());
}

}  // namespace
}  // namespace dtnsim

// Unit tests: the transfer engine itself (determinism, conservation,
// backpressure, interval accounting) on small, fast configurations.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <utility>

#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"

namespace dtnsim::flow {
namespace {

TransferConfig lan_config() {
  const auto tb = harness::esnet();
  TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_seconds(5);
  cfg.seed = 42;
  return cfg;
}

// lan_config()'s 5 s in RTTs of 200 us: the rounds a run of one-RTT rounds
// executes.
constexpr std::uint64_t kLanRtts = 25'000;

// Paper Fig. 7's LAN cell: one unpaced stream between the AmLight hosts.
TransferConfig amlight_lan_config() {
  const auto tb = harness::amlight();
  auto cfg = lan_config();
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  return cfg;
}

TEST(Transfer, DeterministicGivenSeed) {
  const auto cfg = lan_config();
  const auto a = run_transfer(cfg);
  const auto b = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_DOUBLE_EQ(a.retransmit_segments, b.retransmit_segments);
  ASSERT_EQ(a.interval_bps.size(), b.interval_bps.size());
  for (std::size_t i = 0; i < a.interval_bps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.interval_bps[i], b.interval_bps[i]);
  }
}

TEST(Transfer, SeedChangesOutcome) {
  auto cfg = lan_config();
  const auto a = run_transfer(cfg);
  cfg.seed = 43;
  const auto b = run_transfer(cfg);
  EXPECT_NE(a.throughput_bps, b.throughput_bps);
}

TEST(Transfer, IntervalSeriesCoversDuration) {
  const auto res = run_transfer(lan_config());
  EXPECT_EQ(res.interval_bps.size(), 5u);  // one per second
  EXPECT_DOUBLE_EQ(res.duration_sec, 5.0);
}

TEST(Transfer, WanSlowStartShowsInFirstInterval) {
  // On a 63 ms path the first second is slow start, so the rate after a
  // warm-up beats the whole-run average a tool reports without omitting it.
  auto cfg = lan_config();
  cfg.path = harness::esnet_wan();
  cfg.duration = units::SimTime::from_seconds(6);
  const auto res = run_transfer(cfg);
  ASSERT_EQ(res.interval_bps.size(), 6u);
  double after_warmup = 0.0;
  for (std::size_t i = 2; i < 6; ++i) after_warmup += res.interval_bps[i] / 4.0;
  EXPECT_LT(res.interval_bps[0], res.throughput_bps);
  EXPECT_GT(after_warmup, res.throughput_bps);
}

TEST(Transfer, PerFlowSumsToTotal) {
  auto cfg = lan_config();
  cfg.streams = 8;
  cfg.flow.fq_rate_bps = units::gbps(10);
  const auto res = run_transfer(cfg);
  double sum = 0;
  for (double f : res.per_flow_bps) sum += f;
  EXPECT_NEAR(sum, res.throughput_bps, res.throughput_bps * 1e-9);
  EXPECT_EQ(res.per_flow_bps.size(), 8u);
}

TEST(Transfer, PacingCapsThroughput) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(10);
  const auto res = run_transfer(cfg);
  EXPECT_LE(units::to_gbps(res.throughput_bps), 10.1);
  EXPECT_GT(units::to_gbps(res.throughput_bps), 9.0);
}

TEST(Transfer, PacingBindsBelowLineRateAndLineAbove) {
  // A flow may send at its fq rate but never above the NIC line rate: on
  // ESnet's 200G NIC, rounds of 8 flows paced at 20G are bound by pacing and
  // never by the line, and rounds of 8 flows paced at 400G the other way.
  const auto limit_ticks = [](double pace_gbps) {
    auto cfg = lan_config();
    cfg.streams = 8;
    cfg.flow.zerocopy = true;
    cfg.flow.fq_rate_bps = units::gbps(pace_gbps);
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    obs::Telemetry tel(tcfg);
    cfg.telemetry = &tel;
    run_transfer(cfg);
    return std::pair{tel.registry().value_of("limit.pacing_ticks"),
                     tel.registry().value_of("limit.line_rate_ticks")};
  };
  const auto [below_pacing, below_line] = limit_ticks(20);
  EXPECT_GT(below_pacing, 0.0);
  EXPECT_DOUBLE_EQ(below_line, 0.0);
  const auto [above_pacing, above_line] = limit_ticks(400);
  EXPECT_DOUBLE_EQ(above_pacing, 0.0);
  EXPECT_GT(above_line, 0.0);
}

TEST(Transfer, PacingNeedsFqQdisc) {
  // fq_codel cannot pace: --fq-rate silently has no effect.
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(10);
  cfg.sender.tuning.sysctl.default_qdisc = kern::QdiscKind::FqCodel;
  const auto res = run_transfer(cfg);
  EXPECT_GT(units::to_gbps(res.throughput_bps), 20.0);  // ran unpaced
}

TEST(Transfer, SkipRxCopyRemovesReceiverBottleneck) {
  // Intel LAN is clearly receiver-bound (55 vs a ~64 G sender ceiling), so
  // --skip-rx-copy exposes the sender's true capability.
  const auto tb = harness::amlight();
  auto cfg = lan_config();
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  const auto with_copy = run_transfer(cfg);
  cfg.flow.skip_rx_copy = true;
  const auto no_copy = run_transfer(cfg);
  EXPECT_GT(no_copy.throughput_bps, with_copy.throughput_bps * 1.05);
  EXPECT_LT(no_copy.receiver_cpu.cores_pct, with_copy.receiver_cpu.cores_pct);
}

TEST(Transfer, UntunedWindowCripplesWan) {
  auto cfg = lan_config();
  cfg.path = harness::esnet_wan();
  cfg.sender.tuning.sysctl = kern::SysctlConfig::linux_defaults();
  cfg.sender.tuning.sysctl.default_qdisc = kern::QdiscKind::Fq;
  cfg.receiver.tuning.sysctl = kern::SysctlConfig::linux_defaults();
  const auto res = run_transfer(cfg);
  // 4 MB wmem / 6 MB rmem at 63 ms: a fraction of a Gbps.
  EXPECT_LT(units::to_gbps(res.throughput_bps), 1.0);
}

TEST(Transfer, ZerocopyReducesSenderCpu) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(35);
  const auto copy = run_transfer(cfg);
  cfg.flow.zerocopy = true;
  const auto zc = run_transfer(cfg);
  EXPECT_LT(zc.sender_cpu.cores_pct, copy.sender_cpu.cores_pct * 0.6);
  EXPECT_GT(zc.zc_bytes, 0.0);
}

TEST(Transfer, FlowControlSuppressesNicDrops) {
  auto cfg = lan_config();
  cfg.streams = 4;
  cfg.link_flow_control = true;
  const auto res = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(res.dropped_bytes_nic, 0.0);
}

TEST(Transfer, CpuUtilizationBounded) {
  const auto res = run_transfer(lan_config());
  EXPECT_GE(res.sender_cpu.app_util, 0.0);
  EXPECT_LE(res.sender_cpu.app_util, 1.0 + 1e-9);
  EXPECT_GE(res.receiver_cpu.app_util, 0.0);
  EXPECT_LE(res.receiver_cpu.app_util, 1.0 + 1e-9);
  EXPECT_GE(res.receiver_cpu.cores_pct, res.receiver_cpu.app_util * 100.0 - 1e-6);
}

TEST(Transfer, ReceiverBoundOnLan) {
  // Paper Fig. 7: "with default settings on the LAN, throughput is limited
  // by the receiver host CPU". Clearest on the Intel hosts, where the
  // sender has ~15% of headroom over the receiver.
  const auto res = run_transfer(amlight_lan_config());
  EXPECT_GT(res.receiver_cpu.app_util, 0.9);
  EXPECT_LT(res.sender_cpu.app_util, res.receiver_cpu.app_util);
  // The receive window holds the send at the receiver's drain rate, and at
  // that fixed point rounds coalesce: 8 RTTs or more per round on average.
  EXPECT_LE(res.rounds, kLanRtts / 8);
}

TEST(Transfer, WindowBoundByWmemRunsOneRttRounds) {
  // The same cell with tcp_wmem_max at 2 MB: a 1 MB send window (40 Gbps
  // at 200 us), below both hosts' CPU caps and far below the receive
  // window, sets every send, and only the receive window may coalesce
  // rounds.
  auto cfg = amlight_lan_config();
  cfg.sender.tuning.sysctl.tcp_wmem_max = 2e6;
  const auto res = run_transfer(cfg);
  EXPECT_NEAR(units::to_gbps(res.throughput_bps), 40.0, 1.0);
  EXPECT_EQ(res.rounds, kLanRtts);
}

TEST(Transfer, SenderBoundOnWanDefault) {
  // Paper Fig. 7: "sender host limited on the WAN". Ramp/recovery phases
  // dilute the average a bit in a short run.
  auto cfg = lan_config();
  cfg.path = harness::esnet_wan();
  cfg.duration = units::SimTime::from_seconds(15);
  const auto res = run_transfer(cfg);
  EXPECT_GT(res.sender_cpu.app_util, 0.75);
  EXPECT_LT(res.receiver_cpu.app_util, res.sender_cpu.app_util * 0.8);
}

TEST(Transfer, MoreStreamsMoreThroughputUntilSaturation) {
  auto cfg = lan_config();
  cfg.flow.fq_rate_bps = units::gbps(15);
  cfg.streams = 1;
  const auto one = run_transfer(cfg);
  cfg.streams = 4;
  const auto four = run_transfer(cfg);
  EXPECT_GT(four.throughput_bps, one.throughput_bps * 3.0);
}

TEST(Transfer, ZeroDurationSafe) {
  auto cfg = lan_config();
  cfg.duration = units::SimTime();
  const auto res = run_transfer(cfg);
  EXPECT_DOUBLE_EQ(res.throughput_bps, 0.0);
}

TEST(Transfer, PaperLengthRunsNeverUnderflow) {
  // Subnormal arithmetic costs a microcode assist per operation; a 60 s run
  // must not produce a single subnormal (or flush-to-zero) result. Table I's
  // 8-flow LAN cell spans 300k RTTs in rounds of up to 32 (whose jitter and
  // cache-pressure EWMA keep 0.9^32 and 0.7^32 of their state); the 25 ms
  // WAN cell runs ~2.4k one-RTT rounds.
  const auto table1 = harness::esnet(kern::KernelVersion::V5_15);
  TransferConfig lan;
  lan.sender = table1.sender;
  lan.receiver = table1.receiver;
  lan.path = table1.lan();
  lan.streams = 8;
  lan.seed = 7;
  const auto amlight = harness::amlight(kern::KernelVersion::V6_8);
  TransferConfig wan;
  wan.sender = amlight.sender;
  wan.receiver = amlight.receiver;
  wan.path = harness::amlight_wan(25);
  wan.seed = 7;

  std::feclearexcept(FE_ALL_EXCEPT);
  const auto a = run_transfer(lan);
  const auto b = run_transfer(wan);
  EXPECT_FALSE(std::fetestexcept(FE_UNDERFLOW));
  EXPECT_GT(a.throughput_bps, 0.0);
  EXPECT_GT(b.throughput_bps, 0.0);
}

}  // namespace
}  // namespace dtnsim::flow

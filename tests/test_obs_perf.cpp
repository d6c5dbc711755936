// Simulated perf (dtnsim-perf): the stage-sum == charged-cycles cross-check
// and per-flow rows summing to the run totals in both engines, the
// zero-cost-when-disabled bit-identity guarantee, the flamegraph /
// perf-report renderers, the JSON round-trip, packet-vs-fluid attribution
// agreement, and the report key schema golden
// (tests/golden/perf_report_keys.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/core/dtnsim.hpp"
#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/obs/perf.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/util/file.hpp"
#include "golden.hpp"

namespace dtnsim {
namespace {

// The paper's Fig. 7 LAN cell: AmLight Intel host, kernel 6.5, no tuning.
harness::TestSpec fig07_lan_cell(app::IperfOptions iperf = {}) {
  iperf.duration_sec = 5;
  auto spec = harness::TestSpec::on(harness::amlight(kern::KernelVersion::V6_5), "LAN", iperf);
  spec.repeats = 1;
  return spec;
}

// Runs `spec` with perf attribution sampled every `interval_sec` of
// simulated time plus the end-of-run report (0: that report only).
harness::TestResult run_with_perf(harness::TestSpec spec, double interval_sec = 0) {
  spec.telemetry.perf_enabled = true;
  spec.telemetry.perf_interval = units::seconds(interval_sec);
  return harness::run_test(spec);
}

double stage_sum_for_core(const obs::PerfReport& r, obs::PerfCore core) {
  double sum = 0.0;
  for (int i = 0; i < obs::kPerfStageCount; ++i) {
    if (obs::perf_stage_core(static_cast<obs::PerfStage>(i)) == core) {
      sum += r.stage_cycles[static_cast<std::size_t>(i)];
    }
  }
  return sum;
}

TEST(PerfAttribution, StageSumMatchesConsumedFluid) {
  // Every perf sample runs cross_check_stage_sum (which throws on
  // divergence), so a finished watch run is itself the assertion; the loop
  // below re-verifies from the recorded log.
  const auto r = run_with_perf(fig07_lan_cell(), 1);
  ASSERT_GE(r.perf_log.size(), 5u);
  for (const auto& rep : r.perf_log) {
    EXPECT_EQ(rep.engine, "fluid");
    for (int c = 0; c < obs::kPerfCoreCount; ++c) {
      const auto core = static_cast<obs::PerfCore>(c);
      const double sum = stage_sum_for_core(rep, core);
      const double consumed = rep.consumed_cycles[static_cast<std::size_t>(c)];
      EXPECT_NEAR(sum, consumed, 1e-6 * std::max({sum, consumed, 1.0}))
          << obs::perf_core_name(core) << " at t=" << rep.ts;
    }
    EXPECT_NO_THROW(obs::cross_check_stage_sum(rep));
  }
  // The run did real work, so real cycles were attributed.
  EXPECT_GT(r.perf_log.back().total_cycles(), 0.0);
  EXPECT_GT(r.perf_log.back().tx_cyc_per_byte(), 0.0);
  EXPECT_GT(r.perf_log.back().rx_cyc_per_byte(), 0.0);
}

TEST(PerfAttribution, StageSumMatchesConsumedPacket) {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.perf_enabled = true;
  tcfg.perf_interval = units::SimTime::from_millis(5).nanos();
  obs::Telemetry tel(tcfg);

  flow::PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.pacing_bps = units::gbps(20);
  cfg.duration = units::SimTime::from_millis(20);
  cfg.telemetry = &tel;
  const auto res = flow::run_packet_sim(cfg);
  EXPECT_GT(res.delivered_bytes, 0.0);

  const auto& log = tel.perf_log();
  ASSERT_GE(log.size(), 2u);
  for (const auto& rep : log) {
    EXPECT_EQ(rep.engine, "packet");
    for (int c = 0; c < obs::kPerfCoreCount; ++c) {
      const auto core = static_cast<obs::PerfCore>(c);
      const double sum = stage_sum_for_core(rep, core);
      const double consumed = rep.consumed_cycles[static_cast<std::size_t>(c)];
      EXPECT_NEAR(sum, consumed, 1e-6 * std::max({sum, consumed, 1.0}))
          << obs::perf_core_name(core) << " at t=" << rep.ts;
    }
  }
  // The packet engine runs one app core per side but still attributes the
  // IRQ-side work folded into its service times (segmentation/DMA on TX,
  // skb/GRO/checksum on RX), so all four groups carry cycles — while IRQ
  // capacity stays unmetered (utilization 0 for those groups).
  const auto& last = log.back();
  EXPECT_GT(last.consumed_cycles[static_cast<int>(obs::PerfCore::SndApp)], 0.0);
  EXPECT_GT(last.consumed_cycles[static_cast<int>(obs::PerfCore::RcvApp)], 0.0);
  EXPECT_GT(last.consumed_cycles[static_cast<int>(obs::PerfCore::SndIrq)], 0.0);
  EXPECT_GT(last.consumed_cycles[static_cast<int>(obs::PerfCore::RcvIrq)], 0.0);
  EXPECT_EQ(last.capacity_cycles[static_cast<int>(obs::PerfCore::SndIrq)], 0.0);
  EXPECT_EQ(last.capacity_cycles[static_cast<int>(obs::PerfCore::RcvIrq)], 0.0);
  EXPECT_EQ(last.core_utilization(obs::PerfCore::SndIrq), 0.0);
  EXPECT_EQ(last.core_utilization(obs::PerfCore::RcvIrq), 0.0);
}

// Each stage's per-flow rows must add up to the run total in every sample:
// both engines charge a stage's cycles to the total and to one flow's row in
// the same PerfReport::add. Summing eight rows regroups the additions, so
// the bound is fp drift (1e-9 relative), not equality.
void expect_flow_rows_sum_to_totals(const std::vector<obs::PerfReport>& log,
                                    std::size_t flows) {
  ASSERT_GE(log.size(), 2u);
  for (const auto& rep : log) {
    ASSERT_EQ(rep.flows.size(), flows);
    for (int s = 0; s < obs::kPerfStageCount; ++s) {
      const auto i = static_cast<std::size_t>(s);
      double rows = 0.0;
      for (const auto& f : rep.flows) rows += f.stage_cycles[i];
      EXPECT_NEAR(rows, rep.stage_cycles[i], 1e-9 * std::max(rep.stage_cycles[i], 1.0))
          << rep.engine << " " << obs::perf_stage_name(static_cast<obs::PerfStage>(s))
          << " at t=" << rep.ts;
    }
  }
  EXPECT_GT(log.back().total_cycles(), 0.0);
}

TEST(PerfAttribution, FlowRowsSumToRunTotals) {
  auto spec = harness::TestSpec::on(
      harness::esnet(kern::KernelVersion::V6_8), "LAN",
      {.parallel = 8, .duration_sec = 3, .fq_rate_bps = 20e9, .zerocopy = true});
  spec.repeats = 1;
  const auto fluid = run_with_perf(spec, 1);
  expect_flow_rows_sum_to_totals(fluid.perf_log, 8);

  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.perf_enabled = true;
  tcfg.perf_interval = units::SimTime::from_millis(5).nanos();
  obs::Telemetry tel(tcfg);
  flow::PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.zerocopy = true;
  cfg.pacing_bps = units::gbps(20);
  cfg.duration = units::SimTime::from_millis(20);
  cfg.telemetry = &tel;
  (void)flow::run_packet_sim(cfg);
  expect_flow_rows_sum_to_totals(tel.perf_log(), 1);
}

TEST(PerfAttribution, DisabledPerfLeavesRunBitIdentical) {
  // The acceptance bar: arming attribution must not perturb the simulation.
  const auto base = harness::run_test(fig07_lan_cell());
  const auto with_perf = run_with_perf(fig07_lan_cell(), 1);
  EXPECT_DOUBLE_EQ(base.avg_gbps, with_perf.avg_gbps);
  EXPECT_DOUBLE_EQ(base.avg_retransmits, with_perf.avg_retransmits);
  EXPECT_DOUBLE_EQ(base.snd_cpu_pct, with_perf.snd_cpu_pct);
  EXPECT_DOUBLE_EQ(base.rcv_cpu_pct, with_perf.rcv_cpu_pct);
  EXPECT_TRUE(base.perf_log.empty());
  EXPECT_FALSE(with_perf.perf_log.empty());
}

TEST(PerfAttribution, CopyDominatesRxAppWithoutZerocopy) {
  // Paper shape (Fig. 7 discussion): on a plain 100G run the user copy is
  // the receiver's plurality consumer among the recvmsg-path stages.
  const auto r = run_with_perf(fig07_lan_cell());
  ASSERT_FALSE(r.perf_log.empty());
  const auto& rep = r.perf_log.back();
  const double copyout =
      rep.stage_cycles[static_cast<int>(obs::PerfStage::RxCopyout)];
  for (int i = 0; i < obs::kPerfStageCount; ++i) {
    const auto st = static_cast<obs::PerfStage>(i);
    if (st == obs::PerfStage::RxCopyout) continue;
    if (obs::perf_stage_core(st) != obs::PerfCore::RcvApp) continue;
    EXPECT_GT(copyout, rep.stage_cycles[static_cast<std::size_t>(i)])
        << obs::perf_stage_name(st);
  }
  // And it is a plurality of the whole rcv_app group.
  EXPECT_GT(copyout, stage_sum_for_core(rep, obs::PerfCore::RcvApp) / 3.0);
}

TEST(PerfAttribution, ZerocopyShiftsTxFromCopyToPinAndNotify) {
  const auto plain = run_with_perf(fig07_lan_cell());
  const auto zc = run_with_perf(fig07_lan_cell({.zerocopy = true}));
  ASSERT_FALSE(plain.perf_log.empty());
  ASSERT_FALSE(zc.perf_log.empty());
  const auto& p = plain.perf_log.back();
  const auto& z = zc.perf_log.back();
  const auto st = [](const obs::PerfReport& r, obs::PerfStage s) {
    return r.stage_cycles[static_cast<std::size_t>(static_cast<int>(s))];
  };
  // Without zerocopy: all copy, no pin/notify.
  EXPECT_GT(st(p, obs::PerfStage::TxUserCopy), 0.0);
  EXPECT_DOUBLE_EQ(st(p, obs::PerfStage::TxZcPin), 0.0);
  EXPECT_DOUBLE_EQ(st(p, obs::PerfStage::TxZcNotify), 0.0);
  // With zerocopy: attribution moves copy -> pin + notify.
  EXPECT_GT(st(z, obs::PerfStage::TxZcPin) + st(z, obs::PerfStage::TxZcNotify),
            st(z, obs::PerfStage::TxUserCopy));
  EXPECT_LT(st(z, obs::PerfStage::TxUserCopy), st(p, obs::PerfStage::TxUserCopy));
  // And the TX side got cheaper per byte overall (the paper's headline).
  EXPECT_LT(z.tx_cyc_per_byte(), p.tx_cyc_per_byte());
}

TEST(PerfAttribution, PacketAndFluidAgreeOnTxCyclesPerByte) {
  // Same host, same zerocopy setting: the two engines price TX bytes from
  // the same CostModel, so their cycles-per-byte must land in one band.
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);

  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.perf_enabled = true;
  obs::Telemetry tel(tcfg);
  flow::PacketSimConfig pcfg;
  pcfg.sender = tb.sender;
  pcfg.receiver = tb.receiver;
  pcfg.path = tb.lan();
  pcfg.pacing_bps = units::gbps(20);
  pcfg.duration = units::SimTime::from_millis(20);
  pcfg.telemetry = &tel;
  (void)flow::run_packet_sim(pcfg);
  ASSERT_FALSE(tel.perf_log().empty());
  const auto& pkt = tel.perf_log().back();

  auto fluid_spec = harness::TestSpec::on(tb, "LAN", {.duration_sec = 3});
  fluid_spec.repeats = 1;
  const auto fluid_run = run_with_perf(fluid_spec);
  ASSERT_FALSE(fluid_run.perf_log.empty());
  const auto& fl = fluid_run.perf_log.back();

  // TX app only: the packet engine folds IRQ work into app service times
  // (its IRQ attribution is informational), and the fluid engine's
  // jitter/cache multipliers move per-run costs by tens of percent.
  const double pkt_tx =
      pkt.core_stage_cycles(obs::PerfCore::SndApp) / pkt.bytes_sent;
  const double fl_tx =
      fl.core_stage_cycles(obs::PerfCore::SndApp) / fl.bytes_sent;
  EXPECT_GT(pkt_tx, 0.0);
  EXPECT_GT(fl_tx, 0.0);
  EXPECT_LT(std::abs(pkt_tx - fl_tx) / fl_tx, 0.5);
}

TEST(PerfReportRender, FlamegraphIsCollapsedStackFormat) {
  const auto r = run_with_perf(fig07_lan_cell());
  ASSERT_FALSE(r.perf_log.empty());
  const std::string flame = obs::format_flamegraph(r.perf_log.back());
  ASSERT_FALSE(flame.empty());
  std::stringstream in(flame);
  int lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++lines;
    // Brendan Gregg collapsed format: frame;frame;frame COUNT
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    EXPECT_EQ(std::count(stack.begin(), stack.end(), ';'), 2) << line;
    EXPECT_EQ(stack.rfind("fluid;", 0), 0u) << line;
    const long long count = std::atoll(line.c_str() + space + 1);
    EXPECT_GT(count, 0) << line;
  }
  EXPECT_GE(lines, 8);  // plain run: everything except the 3 zc stages
  const std::string text = obs::format_perf_report(r.perf_log.back());
  EXPECT_NE(text.find("copy_user_enhanced_fast_string"), std::string::npos);
  EXPECT_NE(text.find("Children"), std::string::npos);
  EXPECT_NE(text.find("Self"), std::string::npos);
}

TEST(PerfReportRender, JsonRoundTripPreservesEveryField) {
  const auto r = run_with_perf(fig07_lan_cell({.parallel = 4}), 2);
  ASSERT_GE(r.perf_log.size(), 2u);
  ASSERT_EQ(r.perf_log.back().flows.size(), 4u);  // every flow row round-trips
  // The perf log travels in a run record (--record-out, dtnsim-perf --replay).
  report::RunRecord record;
  record.perf_log = r.perf_log;
  const std::string path = ::testing::TempDir() + "dtnsim_perf_record.json";
  ASSERT_TRUE(report::write_run_record(path, record));
  const auto back = report::load_run_record(path).perf_log;
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), r.perf_log.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto& a = r.perf_log[i];
    const auto& b = back[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.label, b.label);
    EXPECT_DOUBLE_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_DOUBLE_EQ(a.bytes_delivered, b.bytes_delivered);
    for (int s = 0; s < obs::kPerfStageCount; ++s) {
      EXPECT_DOUBLE_EQ(a.stage_cycles[static_cast<std::size_t>(s)],
                       b.stage_cycles[static_cast<std::size_t>(s)]);
    }
    for (int c = 0; c < obs::kPerfCoreCount; ++c) {
      EXPECT_DOUBLE_EQ(a.consumed_cycles[static_cast<std::size_t>(c)],
                       b.consumed_cycles[static_cast<std::size_t>(c)]);
      EXPECT_DOUBLE_EQ(a.capacity_cycles[static_cast<std::size_t>(c)],
                       b.capacity_cycles[static_cast<std::size_t>(c)]);
    }
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
      EXPECT_EQ(a.flows[f].flow, b.flows[f].flow);
      EXPECT_EQ(a.flows[f].stage_cycles, b.flows[f].stage_cycles);
    }
    // A round-tripped report still passes the budget cross-check.
    EXPECT_NO_THROW(obs::cross_check_stage_sum(b));
  }
}

// The report JSON schema is a compatibility surface (dtnsim-perf --json
// consumers, the CI smoke). Golden lives in tests/golden/; lines are the
// sorted top-level keys plus one "stages.<name>" entry per stage.
TEST(PerfReportRender, ReportKeysMatchGolden) {
  const auto j = obs::to_json(obs::PerfReport{});
  std::vector<std::string> got = j.keys();  // sorted
  const auto* stages = j.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const auto& k : stages->keys()) got.push_back("stages." + k);
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(golden::matches(got, "perf_report_keys.txt",
                              "perf report schema changed; regenerate tests/"
                              "golden/perf_report_keys.txt (see docs/"
                              "OBSERVABILITY.md)",
                              golden::blank));
}

TEST(PerfAttribution, CrossCheckThrowsOnDivergence) {
  obs::PerfReport r;
  r.stage_cycles[static_cast<int>(obs::PerfStage::TxUserCopy)] = 1e9;
  r.consumed_cycles[static_cast<int>(obs::PerfCore::SndApp)] = 2e9;
  EXPECT_THROW(obs::cross_check_stage_sum(r), std::logic_error);
  r.consumed_cycles[static_cast<int>(obs::PerfCore::SndApp)] = 1e9;
  EXPECT_NO_THROW(obs::cross_check_stage_sum(r));
}

// ---- differential flamegraph (dtnsim-perf --flame --diff) ------------------

TEST(PerfFlamegraphDiff, DifffoldedShapeSkipsBothZeroStages) {
  obs::PerfReport before, after;
  before.engine = after.engine = "fluid";
  before.stage_cycles[static_cast<int>(obs::PerfStage::TxUserCopy)] = 100.0;
  after.stage_cycles[static_cast<int>(obs::PerfStage::TxUserCopy)] = 0.0;
  after.stage_cycles[static_cast<int>(obs::PerfStage::TxZcPin)] = 40.0;

  const auto out = obs::format_flamegraph_diff(before, after);
  // One line per stage live in either report: "stack before after".
  EXPECT_NE(out.find("fluid;snd_app;copy_user_enhanced_fast_string 100 0\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("fluid;snd_app;zerocopy_sg_from_iter 0 40\n"),
            std::string::npos);
  // Stages zero in both reports are omitted entirely.
  EXPECT_EQ(out.find("tcp_gso_segment"), std::string::npos);
  // Every line has exactly two counts (difffolded.pl shape).
  std::stringstream ss(out);
  for (std::string line; std::getline(ss, line);) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 2) << line;
  }
}

TEST(PerfFlamegraphDiff, CrossEngineDiffSharesTheRootFrame) {
  obs::PerfReport before, after;
  before.engine = "fluid";
  after.engine = "packet";
  before.stage_cycles[static_cast<int>(obs::PerfStage::TxUserCopy)] = 10.0;
  after.stage_cycles[static_cast<int>(obs::PerfStage::TxUserCopy)] = 20.0;
  const auto out = obs::format_flamegraph_diff(before, after);
  EXPECT_NE(out.find("dtnsim;snd_app;copy_user_enhanced_fast_string 10 20\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("fluid;"), std::string::npos);
  EXPECT_EQ(out.find("packet;"), std::string::npos);
}

}  // namespace
}  // namespace dtnsim

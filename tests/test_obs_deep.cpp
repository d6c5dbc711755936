// Deep-telemetry tests: packet-sim instrumentation, fluid/packet metric
// parity, per-flow label tracks, streaming trace export, divergence report,
// config validation, the metrics-CSV golden header (the same header CI
// smokes via dtnsim-repro table3 --quick --metrics-out), and the
// metric catalog in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dtnsim/flow/divergence.hpp"
#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/util/file.hpp"

namespace dtnsim {
namespace {

// Structural JSON check (the repo ships a writer, not a parser): every
// brace/bracket closes, in order, ignoring string contents.
bool balanced_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') stack.push_back(c);
    else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      const char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
    }
  }
  return stack.empty() && !in_string;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

flow::PacketSimConfig packet_cfg() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  flow::PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.duration = units::SimTime::from_millis(20);
  cfg.pacing_bps = units::gbps(10);
  cfg.window_bytes = 64e6;
  return cfg;
}

TEST(PacketSimTelemetry, RegistersPktFamilyWithUnits) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.probe_interval = units::millis(1);
  obs::Telemetry tel(tcfg);

  auto cfg = packet_cfg();
  cfg.telemetry = &tel;
  const auto res = flow::run_packet_sim(cfg);

  const auto& reg = tel.registry();
  const struct {
    const char* name;
    const char* unit;
  } expected[] = {
      {"pkt.qdisc_backlog_bytes", "bytes"},  {"pkt.interdeparture_gap_ns", "ns"},
      {"pkt.superpackets_sent", "packets"},  {"pkt.segments_sent", "segments"},
      {"pkt.ring_occupancy", "descriptors"}, {"pkt.ring_peak", "descriptors"},
      {"pkt.ring_drops", "segments"},        {"pkt.dropped_bytes", "bytes"},
      {"pkt.napi_polls", "polls"},           {"pkt.napi_batch_segments", "segments"},
      {"pkt.gro_aggregates", "aggregates"},  {"pkt.gro_aggregate_bytes", "bytes"},
      {"pkt.delivered_bytes", "bytes"},      {"pkt.goodput_bps", "bps"},
  };
  for (const auto& e : expected) {
    const auto* d = reg.find(e.name);
    ASSERT_NE(d, nullptr) << e.name;
    EXPECT_EQ(d->unit, e.unit) << e.name;
  }

  // Counters must agree with the result struct — same events, two views.
  EXPECT_DOUBLE_EQ(reg.value_of("pkt.superpackets_sent"),
                   static_cast<double>(res.superpackets_sent));
  EXPECT_DOUBLE_EQ(reg.value_of("pkt.segments_sent"),
                   static_cast<double>(res.segments_sent));
  EXPECT_DOUBLE_EQ(reg.value_of("pkt.delivered_bytes"), res.delivered_bytes);
  EXPECT_DOUBLE_EQ(reg.value_of("pkt.gro_aggregates"),
                   static_cast<double>(res.aggregates));
  EXPECT_DOUBLE_EQ(reg.value_of("pkt.ring_peak"), static_cast<double>(res.ring_peak));
  // Event-weighted GRO histogram: its mean is the mean aggregate size.
  EXPECT_NEAR(reg.value_of("pkt.gro_aggregate_bytes"), res.mean_aggregate_bytes,
              1e-6);

  // The probe sampled at 1 ms over a 20 ms run.
  EXPECT_GE(tel.series().rows.size(), 10u);
  EXPECT_NE(tel.series().column_index("pkt.goodput_bps"),
            static_cast<std::size_t>(-1));

  // Run span bracketed the whole thing.
  EXPECT_TRUE(tel.trace().contains("packet_run"));
}

TEST(PacketSimTelemetry, OverflowEmitsInstantAndDrops) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  obs::Telemetry tel(tcfg);

  // Unpaced line-rate trains into a 256-descriptor ring that drains at
  // ~56 Gbps: a guaranteed overrun (mirrors
  // PacketSim.SlowDrainOverrunsRingOnlyWhenUnpaced).
  auto cfg = packet_cfg();
  cfg.pacing_bps = 0.0;
  cfg.zerocopy = true;
  cfg.receiver.tuning.ring_descriptors = 256;
  cfg.telemetry = &tel;
  const auto res = flow::run_packet_sim(cfg);

  ASSERT_GT(res.segments_dropped, 0u);
  EXPECT_DOUBLE_EQ(tel.registry().value_of("pkt.ring_drops"),
                   static_cast<double>(res.segments_dropped));
  EXPECT_GT(tel.registry().value_of("pkt.dropped_bytes"), 0.0);
  EXPECT_TRUE(tel.trace().contains("pkt_ring_overflow"));
  // Edge detection: one instant per overflow episode, not per dropped
  // segment.
  EXPECT_LT(tel.trace().count("pkt_ring_overflow"), res.segments_dropped);
}

// Every entry of one engine's row of the shared-family table.
std::vector<const char*> table_row(const obs::EngineMetrics& m) {
  return {m.delivered_bytes, m.goodput_bps, m.gro_aggregate_bytes};
}

// A timeline both engines apply: re-pacing at the rate already set.
scenario::Timeline repace_at_10g() {
  scenario::Timeline tl;
  tl.name = "repace";
  scenario::Event ev;
  ev.kind = scenario::EventKind::QdiscPacingRate;
  ev.value = units::gbps(10);
  tl.events.push_back(ev);
  return tl;
}

// Metric parity between the engines, checked on the registry the runs
// built: each engine publishes its whole row of the shared-family table,
// and with a scenario attached each counts its events under the one
// scenario name.
TEST(PacketSimTelemetry, SharesRegistryWithFluidRun) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  obs::Telemetry tel(tcfg);
  const auto& reg = tel.registry();

  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  flow::TransferConfig fcfg;
  fcfg.sender = tb.sender;
  fcfg.receiver = tb.receiver;
  fcfg.path = tb.lan();
  fcfg.streams = 1;
  fcfg.flow.fq_rate_bps = units::gbps(10);
  fcfg.duration = units::SimTime::from_seconds(2);
  fcfg.scenario = repace_at_10g();
  fcfg.telemetry = &tel;
  flow::run_transfer(fcfg);
  for (const char* name : table_row(obs::kFluidMetrics)) {
    EXPECT_NE(reg.find(name), nullptr) << "fluid engine did not register " << name;
  }
  const double fluid_events = reg.value_of(obs::kScenarioEventsApplied);
  EXPECT_DOUBLE_EQ(fluid_events, 1.0);

  auto pcfg = packet_cfg();
  pcfg.scenario = repace_at_10g();
  pcfg.telemetry = &tel;
  flow::run_packet_sim(pcfg);
  for (const char* name : table_row(obs::kPacketMetrics)) {
    EXPECT_NE(reg.find(name), nullptr) << "packet engine did not register " << name;
  }
  EXPECT_DOUBLE_EQ(reg.value_of(obs::kScenarioEventsApplied), fluid_events + 1.0)
      << "packet engine did not count its scenario event under "
      << obs::kScenarioEventsApplied;

  // The probe table absorbed the column growth (zero-padded rows).
  const auto& series = tel.series();
  EXPECT_NE(series.column_index(obs::kPacketMetrics.goodput_bps),
            static_cast<std::size_t>(-1));
  for (const auto& row : series.rows) EXPECT_EQ(row.size(), series.columns.size());

  const auto rep = flow::divergence_report("shared", reg, units::SimTime::from_seconds(2.0),
                                          units::SimTime::from_seconds(0.02));
  ASSERT_EQ(rep.entries.size(), 3u);
  const auto* bps = rep.find("achieved_bps");
  ASSERT_NE(bps, nullptr);
  EXPECT_GT(bps->fluid, 0.0);
  EXPECT_GT(bps->packet, 0.0);
  // Both runs were paced at 10G; they must roughly agree.
  EXPECT_LT(bps->rel_diff(), 0.2);
  EXPECT_LE(rep.worst_rel_diff(), 1.0);
  EXPECT_NE(rep.to_string().find("achieved_bps"), std::string::npos);
}

// Once a run returns, its Telemetry holds no way back into the engine: a
// series row taken through the Telemetry runs no engine code (the packet
// engine's refresh hook would move pkt.goodput_bps), so the row records the
// registry exactly as the run left it.
TEST(SamplerLifetime, RowAfterRunRunsNoEngineCode) {
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.probe_interval = units::millis(1);
  tcfg.ss_enabled = true;
  tcfg.perf_enabled = true;
  const auto expect_inert = [](obs::Telemetry& tel) {
    const std::vector<double> left = tel.registry().row();
    tel.sampler().sample_series(units::seconds(1));
    const auto& row = tel.series().rows.back();
    EXPECT_DOUBLE_EQ(row.front(), 1.0);
    EXPECT_EQ(std::vector<double>(row.begin() + 1, row.end()), left);
  };

  {
    obs::Telemetry tel(tcfg);
    auto cfg = packet_cfg();
    cfg.telemetry = &tel;
    flow::run_packet_sim(cfg);
    expect_inert(tel);
  }
  {
    obs::Telemetry tel(tcfg);
    const auto tb = harness::esnet(kern::KernelVersion::V6_8);
    flow::TransferConfig cfg;
    cfg.sender = tb.sender;
    cfg.receiver = tb.receiver;
    cfg.path = tb.lan();
    cfg.duration = units::SimTime::from_millis(50);
    cfg.telemetry = &tel;
    flow::run_transfer(cfg);
    expect_inert(tel);
  }
}

TEST(StreamingTraceSink, WritesWellFormedDocument) {
  const std::string path = testing::TempDir() + "stream_trace.json";
  {
    obs::StreamingTraceSink sink(path, "unit test", /*buffer_events=*/4,
                                 /*ring_capacity=*/8);
    ASSERT_TRUE(sink.ok());
    sink.begin("run", "test", 0);
    for (int i = 0; i < 100; ++i) {
      sink.counter("x", units::millis(i), static_cast<double>(i));
    }
    sink.end("run", "test", units::millis(100));
    EXPECT_TRUE(sink.finalize());

    // The ring kept only the most recent 8, but the file got all 102: the
    // stream removes the capacity ceiling.
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_GT(sink.dropped(), 0u);
    EXPECT_EQ(sink.streamed(), 102u);
  }
  const std::string text = read_file(path).value_or("");
  EXPECT_TRUE(balanced_json(text)) << text.substr(0, 200);
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  // 102 events + 1 process_name metadata record.
  EXPECT_EQ(count_of(text, "\"ph\""), 103u);
  EXPECT_EQ(count_of(text, "process_name"), 1u);
  std::remove(path.c_str());
}

TEST(StreamingTraceSink, MidRunFlushCheckpoints) {
  const std::string path = testing::TempDir() + "stream_flush.json";
  obs::StreamingTraceSink sink(path, {}, /*buffer_events=*/1000);
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < 10; ++i) sink.instant("tick", "test", i);
  // Buffered, not yet on disk (buffer_events is large).
  EXPECT_TRUE(sink.flush());
  std::string text = read_file(path).value_or("");
  EXPECT_EQ(count_of(text, "\"ph\""), 10u);
  // The checkpoint becomes a parseable document by appending the closer a
  // crashed run would never write.
  EXPECT_TRUE(balanced_json(text + "]}"));

  for (int i = 0; i < 5; ++i) sink.instant("tock", "test", 100 + i);
  EXPECT_TRUE(sink.finalize());
  text = read_file(path).value_or("");
  EXPECT_TRUE(balanced_json(text));
  EXPECT_EQ(count_of(text, "\"ph\""), 15u);
  // finalize() is idempotent and destruction after it is safe.
  EXPECT_TRUE(sink.finalize());
  std::remove(path.c_str());
}

TEST(TelemetryStream, WiredThroughTelemetryConfig) {
  const std::string path = testing::TempDir() + "tel_stream.json";
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.trace_stream_path = path;

  auto cfg = packet_cfg();
  {
    obs::Telemetry tel(tcfg);
    cfg.telemetry = &tel;
    flow::run_packet_sim(cfg);
    EXPECT_TRUE(tel.trace().finalize());
  }
  const std::string text = read_file(path).value_or("");
  EXPECT_TRUE(balanced_json(text));
  EXPECT_NE(text.find("packet_run"), std::string::npos);
  std::remove(path.c_str());
}

TEST(PerFlowTracks, LabeledColumnsAreDeterministic) {
  const auto tb = harness::esnet(kern::KernelVersion::V6_8);
  const auto run_once = [&] {
    obs::TelemetryConfig tcfg;
    tcfg.enabled = true;
    auto tel = std::make_unique<obs::Telemetry>(tcfg);
    flow::TransferConfig cfg;
    cfg.sender = tb.sender;
    cfg.receiver = tb.receiver;
    cfg.path = tb.lan();
    cfg.streams = 4;
    cfg.duration = units::SimTime::from_seconds(3);
    cfg.seed = 42;
    cfg.telemetry = tel.get();
    flow::run_transfer(cfg);
    return tel;
  };
  const auto a = run_once();
  const auto b = run_once();

  // Every stream got its labeled track, in flow-index order (the unlabeled
  // representative gauge "tcp.cwnd_bytes" is not a family instance).
  const auto cwnds = a->registry().family_instances("tcp.cwnd_bytes");
  ASSERT_EQ(cwnds.size(), 4u);
  EXPECT_EQ(cwnds[0]->name, "tcp.cwnd_bytes{flow=0}");
  EXPECT_EQ(cwnds[3]->name, "tcp.cwnd_bytes{flow=3}");
  EXPECT_EQ(cwnds[3]->label_key, "flow");
  EXPECT_EQ(cwnds[3]->label_value, 3);

  // Same seed -> identical headers AND identical sampled values.
  const auto& sa = a->series();
  const auto& sb = b->series();
  ASSERT_EQ(sa.columns, sb.columns);
  ASSERT_EQ(sa.rows.size(), sb.rows.size());
  for (std::size_t r = 0; r < sa.rows.size(); ++r) EXPECT_EQ(sa.rows[r], sb.rows[r]);

  // Per-flow goodput tracks carry real signal: the per-flow skew gauges
  // bound every labeled instance's final value.
  const auto& reg = a->registry();
  const double lo = reg.value_of("flow.per_flow_min_bps");
  const double hi = reg.value_of("flow.per_flow_max_bps");
  EXPECT_GT(lo, 0.0);
  EXPECT_GE(hi, lo);
  EXPECT_NEAR(reg.value_of("flow.per_flow_range_bps"), hi - lo, 1e-3);
  for (int f = 0; f < 4; ++f) {
    const double v =
        reg.value_of(obs::labeled_name("flow.goodput_bps", "flow", f));
    EXPECT_GE(v, lo * 0.999) << f;
    EXPECT_LE(v, hi * 1.001) << f;
  }
}

TEST(TelemetryConfigValidation, RejectsDegenerateConfigs) {
  obs::TelemetryConfig bad;
  bad.probe_interval = 0;
  EXPECT_THROW(obs::validate(bad), std::invalid_argument);
  EXPECT_THROW(obs::Telemetry{bad}, std::invalid_argument);

  bad = {};
  bad.probe_interval = -units::seconds(1);
  EXPECT_THROW(obs::validate(bad), std::invalid_argument);

  EXPECT_NO_THROW(obs::validate(obs::TelemetryConfig{}));
}

// The CSV header the CLI/benches export is a compatibility surface: plotting
// scripts key on these column names. Golden lives in tests/golden/ and CI
// re-derives it from dtnsim-repro table3 --quick --metrics-out.
TEST(MetricsCsvGolden, HeaderMatchesCheckedInGolden) {
  const std::string golden_path =
      std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/table3_metrics_header.csv";
  std::string golden = read_file(golden_path).value_or("");
  ASSERT_FALSE(golden.empty()) << golden_path;
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r'))
    golden.pop_back();

  // Reproduce table3's registry shape: the production testbed, 8 streams,
  // telemetry on (duration does not affect the column set).
  const auto tb = harness::esnet_production(kern::KernelVersion::V5_15);
  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  obs::Telemetry tel(tcfg);
  flow::TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.path_named("production 63ms");
  cfg.streams = 8;
  cfg.flow.fq_rate_bps = units::gbps(10);
  cfg.duration = units::SimTime::from_seconds(2);
  cfg.telemetry = &tel;
  flow::run_transfer(cfg);

  std::string header = "test,repeat";
  for (const auto& c : tel.series().columns) header += "," + c;
  EXPECT_EQ(header, golden)
      << "metric column set changed; regenerate tests/golden/"
         "table3_metrics_header.csv (see docs/OBSERVABILITY.md)";
}

// docs/OBSERVABILITY.md names, backticked, every metric a run can register:
// the runs below take every registration branch in src/ (fluid multi-stream
// + scenario + ss + perf, packet + scenario + ss + perf). A labeled instance
// is documented by its family.
TEST(MetricDocs, EveryRegisteredNameIsDocumented) {
  const std::string doc =
      read_file(std::string(DTNSIM_SOURCE_DIR) + "/docs/OBSERVABILITY.md").value_or("");
  ASSERT_FALSE(doc.empty());

  obs::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.ss_enabled = true;
  tcfg.perf_enabled = true;
  obs::Telemetry tel(tcfg);

  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  flow::TransferConfig fcfg;
  fcfg.sender = tb.sender;
  fcfg.receiver = tb.receiver;
  fcfg.path = tb.lan();
  fcfg.streams = 2;
  fcfg.flow.fq_rate_bps = units::gbps(10);
  fcfg.duration = units::SimTime::from_millis(200);
  fcfg.scenario = repace_at_10g();
  fcfg.telemetry = &tel;
  flow::run_transfer(fcfg);

  auto pcfg = packet_cfg();
  pcfg.scenario = repace_at_10g();
  pcfg.telemetry = &tel;
  flow::run_packet_sim(pcfg);

  std::vector<std::string> undocumented;
  for (const auto& m : tel.registry().snapshot()) {
    const std::string& name = m.desc->family.empty() ? m.desc->name : m.desc->family;
    if (doc.find("`" + name + "`") == std::string::npos) undocumented.push_back(name);
  }
  EXPECT_TRUE(undocumented.empty())
      << "registered but not named in backticks in docs/OBSERVABILITY.md: "
      << ::testing::PrintToString(undocumented);
}

}  // namespace
}  // namespace dtnsim

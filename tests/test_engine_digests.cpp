// Engine output digests: a fixed set of fixed-seed fluid transfers and
// packet-engine geometries, each hashed over every result field and checked
// against tests/golden/engine_digests.txt (one "name digest" line per cell).
// The harness/ cells pin harness::run_test's fold of its repeats the same
// way, reached three ways: run_test on the test thread and run_tests at
// jobs 1 (cells one by one, repeats fanned out), and run_tests at jobs 4
// (cells concurrent, each cell's repeats one by one). They are a test of
// their own, RunDigests, so a sanitizer job can select them alone. The obs/
// cells (ObservationDigests) pin what a Telemetry holds after its runs: the
// probe series, the ss and perf logs, the final registry values and the
// trace, with every observation channel on at its own cadence; and every
// engine cell, run again with those channels on, must keep its own digest.
//
// A digest is FNV-1a 64 over the hex-float ("%a") text of every field, so
// it moves on any bit of any result and on nothing else. Performance work on
// the engines must leave this file byte-identical; a change that moves
// simulated output on purpose regenerates it (the failure message prints the
// failing test's lines) and says which numbers moved and why.
//
// EngineWork pins the work instead: each packet cell's `events` (the engine
// events its run executed) and each fluid cell's `rounds` (the rounds it
// ran). Both measure what simulating cost, not what was simulated, so no
// digest hashes them; a change that makes a cell do more (or less) work
// fails here even when every digest holds, and re-blesses the count on
// purpose in tests/golden/engine_work.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/runner.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/scenario/scenario.hpp"

namespace dtnsim::flow {
namespace {

// One golden file, what its second column holds and what a mismatch means.
struct Golden {
  std::string path;
  std::string what;
  std::string moved;
};

const Golden kDigests{std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/engine_digests.txt",
                      "digest", "simulated output moved"};
const Golden kWork{std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/engine_work.txt",
                   "work", "engine work moved"};

class Digest {
 public:
  void text(std::string_view s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 1099511628211ull;
  }
  void num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    text(buf);
  }
  void num(std::uint64_t v) { num(static_cast<double>(v)); }
  void series(const std::vector<double>& xs) {
    num(static_cast<std::uint64_t>(xs.size()));
    for (const double x : xs) num(x);
  }
  void log(const scenario::EventLog& log) {
    text(log.engine);
    text(log.timeline);
    text(log.label);
    num(static_cast<std::uint64_t>(log.events.size()));
    for (const auto& e : log.events) {
      num(e.fire_sec);
      num(e.end_sec);
      text(scenario::kind_name(e.kind));
      num(e.value);
      num(e.applied ? 1.0 : 0.0);
      text(e.note);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string digest(const TransferResult& r) {
  Digest d;
  d.num(r.duration_sec);
  d.num(r.throughput_bps);
  d.series(r.per_flow_bps);
  d.num(r.retransmit_segments);
  for (const CpuUtilization* c : {&r.sender_cpu, &r.receiver_cpu}) {
    d.num(c->app_util);
    d.num(c->irq_util);
    d.num(c->cores_pct);
  }
  d.num(r.zc_bytes);
  d.num(r.zc_fallback_bytes);
  d.series(r.interval_bps);
  d.num(r.dropped_bytes_nic);
  d.num(r.dropped_bytes_path);
  d.num(r.pause_frames_seen ? 1.0 : 0.0);
  d.log(r.scenario_log);
  return d.hex();
}

std::string digest(const PacketSimResult& r) {
  Digest d;
  d.num(r.superpackets_sent);
  d.num(r.segments_sent);
  d.num(r.segments_dropped);
  d.num(r.segments_lost_path);
  d.num(r.aggregates);
  d.num(r.delivered_bytes);
  d.num(r.achieved_bps);
  d.num(r.mean_aggregate_bytes);
  d.num(r.interdeparture_mean_ns);
  d.num(r.interdeparture_stddev_ns);
  d.num(static_cast<double>(r.ring_peak));
  d.log(r.scenario_log);
  return d.hex();
}

struct Cell {
  std::string name;
  std::function<std::string()> run;
};

TransferConfig fluid(const harness::Testbed& tb, const net::PathSpec& path, int streams,
                     double pacing_gbps, double seconds, std::uint64_t seed) {
  TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = path;
  cfg.streams = streams;
  cfg.flow.fq_rate_bps = units::gbps(pacing_gbps);
  cfg.link_flow_control = tb.link_flow_control;
  cfg.duration = units::SimTime::from_seconds(seconds);
  cfg.seed = seed;
  return cfg;
}

// Every observation channel on, each at its own cadence.
obs::TelemetryConfig observed(Nanos probe, Nanos ss, Nanos perf) {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.probe_interval = probe;
  cfg.ss_enabled = true;
  cfg.ss_interval = ss;
  cfg.perf_enabled = true;
  cfg.perf_interval = perf;
  return cfg;
}

// An engine cell; with `watch` set, its run carries a Telemetry so armed.
using Watch = std::optional<obs::TelemetryConfig>;

template <class Config, class RunFn>
Cell engine_cell(std::string name, Config cfg, const Watch& watch, RunFn run) {
  return {std::move(name), [cfg, watch, run]() mutable {
            std::optional<obs::Telemetry> tel;
            if (watch) cfg.telemetry = &tel.emplace(*watch);
            return digest(run(cfg));
          }};
}

// LAN cells run 30 s (150k RTTs of 200 us), long enough to cross both
// timelines' every boundary. WAN cells run the paper's 60 s.
std::vector<std::pair<std::string, TransferConfig>> fluid_configs() {
  const auto table1 = harness::esnet(kern::KernelVersion::V5_15);  // Table I's testbed
  const auto esnet = harness::esnet(kern::KernelVersion::V6_8);
  const auto amlight = harness::amlight(kern::KernelVersion::V6_8);
  std::vector<std::pair<std::string, TransferConfig>> out;
  out.emplace_back("lan1_unpaced", fluid(esnet, esnet.lan(), 1, 0, 30, 11));
  // fig12's 5.15 LAN cell: receive-window-bound, it returns to its fixed
  // point after each dip to the app-core bound.
  out.emplace_back("lan1_unpaced_amd515", fluid(table1, table1.lan(), 1, 0, 30, 20));
  out.emplace_back("lan1_paced", fluid(esnet, esnet.lan(), 1, 40, 30, 12));
  out.emplace_back("lan8_unpaced", fluid(table1, table1.lan(), 8, 0, 30, 13));
  out.emplace_back("lan8_paced", fluid(table1, table1.lan(), 8, 20, 30, 14));

  auto zc = fluid(amlight, amlight.lan(), 1, 50, 30, 15);
  zc.flow.zerocopy = true;
  out.emplace_back("lan1_zerocopy", zc);
  // fig10's shape: 8 zerocopy flows, each with its own socket, paced at 20G.
  auto zc8 = fluid(esnet, esnet.lan(), 8, 20, 30, 19);
  zc8.flow.zerocopy = true;
  out.emplace_back("lan8_zc_paced", zc8);

  auto bbr = fluid(amlight, harness::amlight_wan(25), 1, 0, 60, 16);
  bbr.flow.congestion = kern::CongestionAlgo::BbrV1;
  out.emplace_back("wan25_bbr", bbr);
  out.emplace_back("wan104_cubic8", fluid(amlight, harness::amlight_wan(104), 8, 0, 60, 17));

  for (const char* timeline : {"link_flap", "host_retune"}) {
    auto cfg = fluid(table1, table1.lan(), 8, 0, 30, 18);
    cfg.scenario = scenario::load_timeline(std::string(DTNSIM_SOURCE_DIR) + "/scenarios/" +
                                           timeline + ".json");
    out.emplace_back(std::string("lan8_") + timeline, cfg);
  }
  return out;
}

std::vector<Cell> fluid_cells(const Watch& watch = std::nullopt) {
  std::vector<Cell> out;
  for (auto& [name, cfg] : fluid_configs())
    out.push_back(engine_cell("fluid/" + name, cfg, watch, run_transfer));
  return out;
}

// Each of the eight kinds the packet engine applies, fired at a jittered
// time inside a 20 ms horizon.
scenario::Timeline every_packet_kind() {
  using K = scenario::EventKind;
  scenario::Timeline t;
  t.name = "inline";
  t.events = {
      {0.002, K::LossBurst, 0.01, 0.002, 0.0005, "loss"},
      {0.005, K::ReorderBurst, 0.05, 0.003, 0.0005, "reorder"},
      {0.007, K::NicRingResize, 512, 0.004, 0.0005, "ring"},
      {0.009, K::LinkDown, 0.0, 0.0, 0.0005, "down"},
      {0.0105, K::LinkUp, 0.0, 0.0, 0.0005, "up"},
      {0.012, K::LinkAddRtt, 100e-6, 0.003, 0.0005, "reroute"},
      {0.014, K::QdiscPacingRate, units::gbps(20), 0.003, 0.0005, "pacing"},
      {0.016, K::IrqDrainDegrade, 0.5, 0.002, 0.0005, "irq"},
  };
  return t;
}

// bench/packet_divergence's four geometries, on shorter horizons, and the
// unpaced LAN one again under every_packet_kind().
std::vector<std::pair<std::string, PacketSimConfig>> packet_configs() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  const auto geometry = [&](net::PathSpec path, double pacing_bps, double window_bytes,
                            double seconds) {
    PacketSimConfig c;
    c.sender = tb.sender;
    c.receiver = tb.receiver;
    c.path = std::move(path);
    c.pacing_bps = pacing_bps;
    c.window_bytes = window_bytes;
    c.duration = units::SimTime::from_seconds(seconds);
    return c;
  };
  auto timeline = geometry(tb.lan(), 0.0, 64e6, 0.02);
  timeline.scenario = every_packet_kind();
  timeline.seed = 41;
  return {
      {"lan_paced_10g", geometry(tb.lan(), units::gbps(10), 64e6, 0.02)},
      {"lan_unpaced", geometry(tb.lan(), 0.0, 64e6, 0.02)},
      {"wan25_paced_5g", geometry(harness::amlight_wan(25), units::gbps(5), 64e6, 0.1)},
      {"wan25_window_limited", geometry(harness::amlight_wan(25), 0.0, 4e6, 0.1)},
      {"lan_unpaced_timeline", timeline},
  };
}

std::vector<Cell> packet_cells(const Watch& watch = std::nullopt) {
  std::vector<Cell> out;
  for (auto& [name, cfg] : packet_configs())
    out.push_back(engine_cell("packet/" + name, cfg, watch, run_packet_sim));
  return out;
}

// A harness cell: every RunSummary field (through its one field list, so a
// new field is hashed without touching this test), then each repeat's probe
// series in repeat order, then the RunRecord's JSON text when one was built.
std::string digest(const harness::TestResult& r) {
  struct Visit {
    Digest& d;
    void operator()(std::string_view, double& v, wire::Required = {}) { d.num(v); }
    void operator()(std::string_view, std::vector<double>& xs) { d.series(xs); }
  };
  Digest d;
  report::RunSummary summary = r;
  Visit visit{d};
  report::fields(visit, summary);
  d.num(static_cast<std::uint64_t>(r.repeat_series.size()));
  for (const auto& t : r.repeat_series) {
    for (const auto& c : t.columns) d.text(c);
    d.num(static_cast<std::uint64_t>(t.rows.size()));
    for (const auto& row : t.rows) d.series(row);
  }
  if (r.record) d.text(report::to_json(*r.record).dump());
  return d.hex();
}

struct RunCell {
  std::string name;
  harness::TestSpec spec;
};

RunCell run_cell(std::string name, const harness::Testbed& tb, const std::string& path,
                 int streams, double seconds, int repeats, std::uint64_t seed) {
  app::IperfOptions opts;
  opts.parallel = streams;
  opts.duration_sec = seconds;
  auto spec = harness::TestSpec::on(tb, path, opts);
  spec.repeats = repeats;
  spec.base_seed = seed;
  return {"harness/" + std::move(name), std::move(spec)};
}

// The paper's 10-repeat cell shape, a telemetry cell (per-repeat series) and
// a recorded scenario cell on a horizon just past link_flap's 22 s recovery.
std::vector<RunCell> run_cells() {
  const auto table1 = harness::esnet(kern::KernelVersion::V5_15);
  const auto amlight = harness::amlight(kern::KernelVersion::V6_8);
  std::vector<RunCell> out;
  out.push_back(run_cell("wan25_cubic8_x10", amlight, "WAN 25ms", 8, 60, 10, 21));
  auto probed = run_cell("wan104_telemetry_x4", amlight, "WAN 104ms", 1, 60, 4, 22);
  probed.spec.telemetry.enabled = true;
  out.push_back(probed);
  auto recorded = run_cell("lan8_link_flap_record_x3", table1, "LAN", 8, 24, 3, 23);
  recorded.spec.record = true;
  recorded.spec.scenario =
      scenario::load_timeline(std::string(DTNSIM_SOURCE_DIR) + "/scenarios/link_flap.json");
  out.push_back(recorded);
  return out;
}

// An observation cell: the probe series (columns, then hex-float rows), the
// ss and perf logs' JSON, every registry value by name, and the trace's
// Chrome JSON, of one Telemetry after its runs.
std::string digest(const obs::Telemetry& tel) {
  Digest d;
  const obs::SeriesTable& t = tel.series();
  for (const auto& c : t.columns) d.text(c);
  d.num(static_cast<std::uint64_t>(t.rows.size()));
  for (const auto& row : t.rows) d.series(row);
  d.text(obs::ss_log_to_json(tel.ss_log()).dump());
  d.text(obs::perf_log_to_json(tel.perf_log()).dump());
  for (const auto& s : tel.registry().snapshot()) {
    d.text(s.desc->name);
    d.num(s.value);
  }
  d.text(tel.trace().to_chrome_trace().dump());
  return d.hex();
}

PacketSimConfig packet_lan(double seconds) {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  PacketSimConfig c;
  c.sender = tb.sender;
  c.receiver = tb.receiver;
  c.path = tb.lan();
  c.pacing_bps = units::gbps(10);
  c.window_bytes = 64e6;
  c.duration = units::SimTime::from_seconds(seconds);
  return c;
}

// Every channel on at its own cadence, in-run and final-only, on both
// engines, plus one Telemetry shared by a fluid and a packet run (the series
// grows the packet engine's columns mid-table).
std::vector<Cell> observation_cells() {
  const auto esnet = harness::esnet(kern::KernelVersion::V6_8);
  const auto amlight = harness::amlight(kern::KernelVersion::V6_8);
  std::vector<Cell> out;

  auto lan = fluid(esnet, esnet.lan(), 8, 0, 3, 31);
  lan.scenario.name = "inline";
  lan.scenario.events.push_back({1.2, scenario::EventKind::LossBurst, 0.01, 0.5, 0.0, "burst"});
  lan.scenario.events.push_back({2.0, scenario::EventKind::LinkCapacity, 40e9, 0.0, 0.0, "cap"});
  out.push_back({"obs/fluid_lan8_timeline", [lan]() mutable {
                   obs::Telemetry tel(observed(units::seconds(1), units::millis(500),
                                               units::millis(250)));
                   lan.telemetry = &tel;
                   run_transfer(lan);
                   return digest(tel);
                 }});

  auto wan = fluid(amlight, harness::amlight_wan(25), 8, 0, 10, 32);
  out.push_back({"obs/fluid_wan25_final_only", [wan]() mutable {
                   obs::Telemetry tel(observed(units::seconds(1), 0, 0));
                   wan.telemetry = &tel;
                   run_transfer(wan);
                   return digest(tel);
                 }});

  out.push_back({"obs/packet_lan_20ms", [] {
                   obs::Telemetry tel(
                       observed(units::millis(1), units::millis(2), units::millis(5)));
                   auto c = packet_lan(0.02);
                   c.telemetry = &tel;
                   run_packet_sim(c);
                   return digest(tel);
                 }});

  auto shared = fluid(esnet, esnet.lan(), 1, 10, 0.5, 33);
  out.push_back({"obs/shared_fluid_then_packet", [shared]() mutable {
                   obs::Telemetry tel(observed(units::millis(10), units::millis(250),
                                               units::millis(100)));
                   shared.telemetry = &tel;
                   run_transfer(shared);
                   auto c = packet_lan(0.02);
                   c.telemetry = &tel;
                   run_packet_sim(c);
                   return digest(tel);
                 }});
  return out;
}

// Golden lines whose section (the name up to its first '/') is one of the
// cells' sections; the other sections belong to the other test.
std::map<std::string, std::string> load_golden(const std::vector<Cell>& cells,
                                               const Golden& golden) {
  const auto section = [](const std::string& name) { return name.substr(0, name.find('/')); };
  std::set<std::string> mine;
  for (const auto& c : cells) mine.insert(section(c.name));
  std::map<std::string, std::string> out;
  std::ifstream in(golden.path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    if (mine.count(section(name))) out[name] = hex;
  }
  return out;
}

// Runs every cell, checks it against its golden line, and on a mismatch
// prints this test's lines of the file.
void expect_golden(const std::vector<Cell>& cells, const Golden& file = kDigests) {
  const auto golden = load_golden(cells, file);
  std::string lines;
  for (const auto& c : cells) {
    const std::string got = c.run();
    lines += c.name + " " + got + "\n";
    const auto it = golden.find(c.name);
    EXPECT_TRUE(it != golden.end() && it->second == got)
        << c.name << ": " << file.what << " " << got << ", golden "
        << (it == golden.end() ? std::string("(missing)") : it->second);
  }
  EXPECT_EQ(golden.size(), cells.size()) << "golden file lists cells this test does not run";
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << file.moved << ". If that is intended, replace these cells' "
                  << "lines of " << file.path << " with:\n"
                  << lines;
  }
}

TEST(EngineDigests, MatchGolden) {
  std::vector<Cell> cells = fluid_cells();
  for (auto& c : packet_cells()) cells.push_back(std::move(c));
  expect_golden(cells);
}

TEST(RunDigests, MatchGolden) {
  const auto cells = run_cells();
  std::vector<harness::TestSpec> specs;
  for (const auto& c : cells) specs.push_back(c.spec);
  const auto serial = harness::run_tests(specs, 1);
  const auto parallel = harness::run_tests(specs, 4);

  std::vector<Cell> checked;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const harness::TestResult direct = harness::run_test(specs[i]);
    const std::string want = digest(direct);
    EXPECT_EQ(digest(serial[i]), want) << cells[i].name << ": run_tests jobs=1";
    EXPECT_EQ(digest(parallel[i]), want) << cells[i].name << ": run_tests jobs=4";
    if (specs[i].record) {
      auto twin = specs[i];
      twin.record = false;
      EXPECT_EQ(harness::run_test(twin).samples_gbps, direct.samples_gbps)
          << cells[i].name << ": recording moved the samples";
    }
    checked.push_back({cells[i].name, [want] { return want; }});
  }
  expect_golden(checked);
}

TEST(ObservationDigests, MatchGolden) { expect_golden(observation_cells()); }

TEST(EngineWork, MatchGolden) {
  std::vector<Cell> cells;
  for (auto& [name, cfg] : fluid_configs()) {
    cells.push_back({"fluid/" + name, [cfg = cfg] {
                       return std::to_string(run_transfer(cfg).rounds);
                     }});
  }
  for (auto& [name, cfg] : packet_configs()) {
    cells.push_back({"packet/" + name, [cfg = cfg] {
                       return std::to_string(run_packet_sim(cfg).events);
                     }});
  }
  expect_golden(cells, kWork);
}

// Observing a run leaves it the same run: every EngineDigests cell, run again
// with probe, ss and perf armed, hashes to its unobserved golden line.
TEST(ObservationDigests, ObservedEnginesMatchGolden) {
  std::vector<Cell> cells =
      fluid_cells(observed(units::millis(100), units::millis(500), units::millis(250)));
  for (auto& c : packet_cells(observed(units::millis(1), units::millis(2), units::millis(5))))
    cells.push_back(std::move(c));
  expect_golden(cells);
}

}  // namespace
}  // namespace dtnsim::flow

// dtnsim::scenario tests: the determinism contract and both engine hooks.
//
// The subsystem's promises, each enforced here:
//   - JSON timelines round-trip exactly and validate() names bad events;
//   - jittered fire times come from the run seed alone (same seed -> same
//     times, different seed -> different times, engine draws untouched);
//   - in both engines a run whose timeline never fires is bit-identical to
//     a scenario-free run, and scenario runs are bit-identical --jobs 1 vs
//     --jobs N;
//   - both engines apply the supported kinds (and log the unsupported ones
//     with applied=false);
//   - the event-log JSON schema is golden (tests/golden/
//     scenario_log_keys.txt) — dtnsim-scenario --replay and the CI smoke
//     parse it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/core/dtnsim.hpp"
#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/util/file.hpp"
#include "golden.hpp"

namespace dtnsim::scenario {
namespace {

namespace fs = std::filesystem;

Event make_event(double at, EventKind kind, double value, double dur = 0.0,
                 double jitter = 0.0) {
  Event e;
  e.at_sec = at;
  e.kind = kind;
  e.value = value;
  e.duration_sec = dur;
  e.jitter_sec = jitter;
  return e;
}

Timeline loss_burst(double at = 2.0, double frac = 0.02, double dur = 1.0) {
  Timeline tl;
  tl.name = "loss";
  tl.events.push_back(make_event(at, EventKind::LossBurst, frac, dur));
  return tl;
}

// ---- wire names -----------------------------------------------------------

TEST(ScenarioKinds, NamesRoundTripForAllKinds) {
  for (int i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const auto name = kind_name(kind);
    EXPECT_FALSE(name.empty());
    const auto back = kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(kind_from_name("not_a_kind").has_value());
}

// ---- JSON round-trip + validation -----------------------------------------

TEST(ScenarioJson, TimelineRoundTripsExactly) {
  Timeline tl;
  tl.name = "rt";
  tl.events.push_back(make_event(20.0, EventKind::LossBurst, 0.02, 5.0, 1.5));
  tl.events.back().note = "dirty optics";
  tl.events.push_back(make_event(30.0, EventKind::BgSurge, 16e9, 10.0));

  const auto back = timeline_from_json(to_json(tl));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, tl.name);
  ASSERT_EQ(back->events.size(), tl.events.size());
  for (std::size_t i = 0; i < tl.events.size(); ++i) {
    EXPECT_EQ(back->events[i].kind, tl.events[i].kind);
    EXPECT_DOUBLE_EQ(back->events[i].at_sec, tl.events[i].at_sec);
    EXPECT_DOUBLE_EQ(back->events[i].value, tl.events[i].value);
    EXPECT_DOUBLE_EQ(back->events[i].duration_sec, tl.events[i].duration_sec);
    EXPECT_DOUBLE_EQ(back->events[i].jitter_sec, tl.events[i].jitter_sec);
    EXPECT_EQ(back->events[i].note, tl.events[i].note);
  }
}

TEST(ScenarioJson, StructuralMismatchIsRejected) {
  EXPECT_FALSE(timeline_from_json(Json::array()).has_value());
  auto no_events = Json::object();
  no_events["name"] = std::string("x");
  EXPECT_FALSE(timeline_from_json(no_events).has_value());
  const auto bad_kind =
      Json::parse(R"({"events":[{"at_sec":1,"kind":"warp_drive","value":1}]})");
  ASSERT_TRUE(bad_kind.has_value());
  EXPECT_FALSE(timeline_from_json(*bad_kind).has_value());
}

TEST(ScenarioValidate, NamesTheOffendingEvent) {
  Timeline tl = loss_burst();
  tl.events.push_back(make_event(-1.0, EventKind::LinkDown, 0.0));
  EXPECT_THROW(tl.validate(), std::runtime_error);

  Timeline frac = loss_burst(2.0, 1.5);  // loss fraction must be < 1
  EXPECT_THROW(frac.validate(), std::runtime_error);

  Timeline inf;
  inf.events.push_back(
      make_event(1.0, EventKind::LinkCapacity, std::nan("")));
  EXPECT_THROW(inf.validate(), std::runtime_error);

  EXPECT_NO_THROW(loss_burst().validate());
}

TEST(ScenarioJson, LoadTimelineThrowsWithPath) {
  try {
    load_timeline("/nonexistent/tl.json");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/tl.json"),
              std::string::npos);
  }

  // A schema mismatch names the file and the first offending key.
  const std::string path = ::testing::TempDir() + "/dtnsim_bad_timeline.json";
  std::ofstream(path) << R"({"events":[{"at_sec":1,"kind":"loss_burst","value":0.1},)"
                         R"({"at_sec":"2","kind":"link_down"}]})";
  try {
    load_timeline(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("events[1].at_sec is not a number"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// ---- jitter determinism ---------------------------------------------------

TEST(ScenarioRuntime, JitterIsSeededFromTheRunSeed) {
  Timeline tl;
  tl.events.push_back(make_event(20.0, EventKind::LinkDown, 0.0, 0.0, 5.0));

  const std::vector<EventKind> all = {EventKind::LinkDown};
  Runtime a(tl, 42, "fluid", all);
  Runtime b(tl, 42, "fluid", all);
  Runtime c(tl, 43, "fluid", all);
  EXPECT_DOUBLE_EQ(a.next_boundary_sec(), b.next_boundary_sec());
  EXPECT_NE(a.next_boundary_sec(), c.next_boundary_sec());
  // Jitter perturbs around the nominal time, never below zero.
  EXPECT_GE(a.next_boundary_sec(), 0.0);
  EXPECT_NEAR(a.next_boundary_sec(), 20.0, 5.0);
}

// ---- fold semantics -------------------------------------------------------

TEST(ScenarioRuntime, EffectsFoldAndExpire) {
  Timeline tl;
  tl.name = "fold";
  tl.events.push_back(make_event(10.0, EventKind::LossBurst, 0.02, 5.0));
  tl.events.push_back(make_event(12.0, EventKind::BgSurge, 4e9, 10.0));
  tl.events.push_back(make_event(14.0, EventKind::BgSurge, 2e9, 10.0));

  Runtime rt(tl, 1, "fluid",
             {EventKind::LossBurst, EventKind::BgSurge});
  EXPECT_FALSE(rt.advance(5.0));  // nothing fired yet
  EXPECT_DOUBLE_EQ(rt.effects().loss_frac, 0.0);

  EXPECT_TRUE(rt.advance(10.5));
  EXPECT_DOUBLE_EQ(rt.effects().loss_frac, 0.02);

  EXPECT_TRUE(rt.advance(14.5));  // both surges active; they stack
  EXPECT_DOUBLE_EQ(rt.effects().extra_bg_bps, 6e9);

  EXPECT_TRUE(rt.advance(16.0));  // loss burst expired at 15
  EXPECT_DOUBLE_EQ(rt.effects().loss_frac, 0.0);
  EXPECT_DOUBLE_EQ(rt.effects().extra_bg_bps, 6e9);

  EXPECT_TRUE(rt.advance(30.0));  // everything expired
  EXPECT_DOUBLE_EQ(rt.effects().extra_bg_bps, 0.0);
  EXPECT_TRUE(std::isinf(rt.next_boundary_sec()));
  EXPECT_EQ(rt.applied_count(), 3u);
}

TEST(ScenarioRuntime, UnsupportedKindsLogAppliedFalse) {
  Timeline tl;
  tl.events.push_back(make_event(1.0, EventKind::SysctlOptmem, 65536));
  Runtime rt(tl, 1, "packet", {EventKind::LossBurst});  // optmem unsupported
  rt.advance(2.0);
  ASSERT_EQ(rt.log().size(), 1u);
  EXPECT_FALSE(rt.log()[0].applied);
  EXPECT_EQ(rt.applied_count(), 0u);
  EXPECT_DOUBLE_EQ(rt.effects().optmem_max_bytes, -1.0);  // excluded from fold
}

// ---- fluid engine ---------------------------------------------------------

harness::TestSpec wan_spec(Timeline tl) {
  auto spec = harness::TestSpec::on(harness::esnet(kern::KernelVersion::V6_8), "WAN 63ms",
                                    {.duration_sec = 6, .fq_rate_bps = 10e9});
  spec.repeats = 2;
  spec.scenario = std::move(tl);
  return spec;
}

// Unpaced LAN streams: every round's jitter and loss draws reach the
// output, so a hook that moved one engine draw would show here.
harness::TestSpec lan_spec(Timeline tl) {
  auto spec = harness::TestSpec::on(harness::esnet(kern::KernelVersion::V6_8), "LAN",
                                    {.parallel = 4, .duration_sec = 2});
  spec.repeats = 2;
  spec.scenario = std::move(tl);
  return spec;
}

// The hook is pay-for-use: a timeline whose only event lands after the run
// attaches a Runtime that every round consults, yet every summary figure
// matches the scenario-free run's bit for bit.
TEST(ScenarioFluid, UnfiredTimelineIsBitIdenticalToNoScenario) {
  const auto summary = [](const harness::TestResult& r) {
    return wire::to_json(static_cast<const report::RunSummary&>(r)).dump();
  };
  for (const auto make : {&wan_spec, &lan_spec}) {
    const auto plain = harness::run_test(make(Timeline{}));
    const auto unfired = harness::run_test(make(loss_burst(20.0)));
    const auto fired = harness::run_test(make(loss_burst(1.0)));
    EXPECT_EQ(summary(unfired), summary(plain)) << plain.name;
    EXPECT_TRUE(unfired.scenario_log.events.empty()) << plain.name;
    EXPECT_EQ(unfired.scenario_log.timeline, "loss") << plain.name;  // it was attached
    // A timeline that fires must change the run.
    EXPECT_NE(fired.samples_gbps, plain.samples_gbps) << plain.name;
  }
}

TEST(ScenarioFluid, LossBurstCutsGoodputAndLogsTheEvent) {
  const auto clean = harness::run_test(wan_spec(Timeline{}));
  const auto lossy = harness::run_test(wan_spec(loss_burst(2.0, 0.05, 2.0)));
  EXPECT_LT(lossy.avg_gbps, clean.avg_gbps);
  ASSERT_EQ(lossy.scenario_log.events.size(), 1u);
  EXPECT_EQ(lossy.scenario_log.engine, "fluid");
  EXPECT_EQ(lossy.scenario_log.timeline, "loss");
  EXPECT_TRUE(lossy.scenario_log.events[0].applied);
  EXPECT_DOUBLE_EQ(lossy.scenario_log.events[0].fire_sec, 2.0);
}

TEST(ScenarioFluid, ScenarioRunsAreBitIdenticalAcrossJobs) {
  std::vector<harness::TestSpec> specs;
  for (int i = 0; i < 4; ++i) {
    auto spec = wan_spec(loss_burst(2.0, 0.02, 1.0));
    spec.name = "cell" + std::to_string(i);
    spec.base_seed = 1000 + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  const auto serial = harness::run_tests(specs, 1);
  const auto parallel = harness::run_tests(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].samples_gbps, parallel[i].samples_gbps) << i;
    EXPECT_DOUBLE_EQ(serial[i].avg_retransmits, parallel[i].avg_retransmits);
  }
}

// ---- packet engine --------------------------------------------------------

flow::PacketSimConfig packet_cfg() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  flow::PacketSimConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.lan();
  cfg.pacing_bps = units::gbps(10);
  cfg.duration = units::SimTime::from_seconds(0.05);
  return cfg;
}

TEST(ScenarioPacket, LossBurstDropsSegmentsDeterministically) {
  auto clean_cfg = packet_cfg();
  const auto clean = flow::run_packet_sim(clean_cfg);
  EXPECT_EQ(clean.segments_lost_path, 0u);

  auto cfg = packet_cfg();
  cfg.scenario = loss_burst(0.01, 0.1, 0.02);
  const auto lossy = flow::run_packet_sim(cfg);
  EXPECT_GT(lossy.segments_lost_path, 0u);
  EXPECT_LT(lossy.delivered_bytes, clean.delivered_bytes);
  ASSERT_EQ(lossy.scenario_log.events.size(), 1u);
  EXPECT_EQ(lossy.scenario_log.engine, "packet");
  EXPECT_TRUE(lossy.scenario_log.events[0].applied);

  // Accumulator loss, not RNG loss: the run repeats bit-identically.
  auto cfg2 = packet_cfg();
  cfg2.scenario = loss_burst(0.01, 0.1, 0.02);
  const auto again = flow::run_packet_sim(cfg2);
  EXPECT_EQ(again.segments_lost_path, lossy.segments_lost_path);
  EXPECT_DOUBLE_EQ(again.delivered_bytes,
                   lossy.delivered_bytes);
}

// The packet engine's twin of ScenarioFluid.UnfiredTimelineIsBitIdenticalToNoScenario:
// a timeline whose event lands after the 20 ms horizon leaves every result
// field of a paced and an unpaced run unchanged.
TEST(ScenarioPacket, UnfiredTimelineIsBitIdenticalToNoScenario) {
  for (const double pace : {units::gbps(10), 0.0}) {
    auto plain_cfg = packet_cfg();
    plain_cfg.pacing_bps = pace;
    plain_cfg.duration = units::SimTime::from_millis(20);
    auto unfired_cfg = plain_cfg;
    unfired_cfg.scenario = loss_burst(1.0);
    const auto plain = flow::run_packet_sim(plain_cfg);
    const auto unfired = flow::run_packet_sim(unfired_cfg);
    EXPECT_EQ(unfired.superpackets_sent, plain.superpackets_sent) << pace;
    EXPECT_EQ(unfired.segments_sent, plain.segments_sent) << pace;
    EXPECT_EQ(unfired.segments_dropped, plain.segments_dropped) << pace;
    EXPECT_EQ(unfired.segments_lost_path, plain.segments_lost_path) << pace;
    EXPECT_EQ(unfired.aggregates, plain.aggregates) << pace;
    EXPECT_EQ(unfired.delivered_bytes, plain.delivered_bytes) << pace;
    EXPECT_EQ(unfired.achieved_bps, plain.achieved_bps) << pace;
    EXPECT_EQ(unfired.mean_aggregate_bytes, plain.mean_aggregate_bytes) << pace;
    EXPECT_EQ(unfired.interdeparture_mean_ns, plain.interdeparture_mean_ns) << pace;
    EXPECT_EQ(unfired.interdeparture_stddev_ns, plain.interdeparture_stddev_ns) << pace;
    EXPECT_EQ(unfired.ring_peak, plain.ring_peak) << pace;
    EXPECT_TRUE(unfired.scenario_log.events.empty()) << pace;
    EXPECT_EQ(unfired.scenario_log.timeline, "loss") << pace;
  }
}

TEST(ScenarioPacket, UnsupportedKindIsLoggedNotApplied) {
  auto cfg = packet_cfg();
  Timeline tl;
  tl.name = "optmem";
  tl.events.push_back(make_event(0.01, EventKind::SysctlOptmem, 65536));
  cfg.scenario = tl;
  const auto res = flow::run_packet_sim(cfg);
  ASSERT_EQ(res.scenario_log.events.size(), 1u);
  EXPECT_FALSE(res.scenario_log.events[0].applied);
}

TEST(ScenarioPacket, LinkDownStallsDelivery) {
  auto cfg = packet_cfg();
  Timeline tl;
  tl.name = "flap";
  tl.events.push_back(make_event(0.01, EventKind::LinkDown, 0.0));
  tl.events.push_back(make_event(0.03, EventKind::LinkUp, 0.0));
  cfg.scenario = tl;
  const auto flapped = flow::run_packet_sim(cfg);
  auto clean_cfg = packet_cfg();
  const auto clean = flow::run_packet_sim(clean_cfg);
  EXPECT_LT(flapped.delivered_bytes, clean.delivered_bytes);
  EXPECT_GT(flapped.segments_lost_path, 0u);
}

// ---- engine agreement -----------------------------------------------------

// The same 5% loss burst must cut delivery in both engines, and each cut
// must sit inside its own calibrated band. The bands are deliberately far
// apart — that *is* the divergence: the fluid engine models CC backoff (a
// 5% episode collapses the window, measured ~82% cut), the packet engine
// models a fixed window with 3-RTT retransmits (measured ~3% cut). A band
// violation means one engine's loss response regressed.
TEST(ScenarioDivergence, LossBurstCutsSitInCalibratedBands) {
  auto fspec_clean = wan_spec(Timeline{});
  auto fspec_lossy = wan_spec(loss_burst(1.0, 0.05, 4.0));
  fspec_clean.repeats = fspec_lossy.repeats = 1;
  const double fluid_clean = harness::run_test(fspec_clean).avg_gbps;
  const double fluid_lossy = harness::run_test(fspec_lossy).avg_gbps;
  const double fluid_cut = 1.0 - fluid_lossy / fluid_clean;

  auto pcfg_clean = packet_cfg();
  auto pcfg_lossy = packet_cfg();
  pcfg_lossy.scenario = loss_burst(0.008, 0.05, 0.034);  // same 2/3 coverage
  const double pkt_clean =
      flow::run_packet_sim(pcfg_clean).delivered_bytes;
  const double pkt_lossy =
      flow::run_packet_sim(pcfg_lossy).delivered_bytes;
  const double pkt_cut = 1.0 - pkt_lossy / pkt_clean;

  EXPECT_GT(fluid_cut, 0.30) << "CC backoff response vanished";
  EXPECT_LT(fluid_cut, 0.95);
  EXPECT_GT(pkt_cut, 0.005) << "forced loss not reaching the packet path";
  EXPECT_LT(pkt_cut, 0.30) << "fixed-window retransmit response blew up";
  // And the structural ordering: CC backoff always costs more than the
  // packet engine's pure retransmit delay.
  EXPECT_GT(fluid_cut, pkt_cut);
}

// ---- event-log schema golden ----------------------------------------------

TEST(ScenarioGolden, EventLogSchemaMatchesGolden) {
  EventLog log;
  AppliedEvent ev;
  log.events.push_back(ev);
  const auto j = wire::to_json(log);
  std::vector<std::string> got = j.keys();  // sorted
  const auto* events = j.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  for (const auto& k : events->at(0)->keys()) got.push_back("events." + k);
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(golden::matches(got, "scenario_log_keys.txt",
                              "event log schema changed; regenerate tests/"
                              "golden/scenario_log_keys.txt (see docs/"
                              "SCENARIO.md)",
                              golden::blank));
}

// ---- shipped example timelines --------------------------------------------

TEST(ScenarioExamples, ShippedTimelinesValidate) {
  const fs::path dir = fs::path(DTNSIM_SOURCE_DIR) / "scenarios";
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++seen;
    EXPECT_NO_THROW(load_timeline(entry.path().string()))
        << entry.path().string();
  }
  EXPECT_GE(seen, 4u);  // link_flap, loss_burst, bg_surge, optmem_knee
}

}  // namespace
}  // namespace dtnsim::scenario

// dtnsim::report tests: series analysis on hand-computed fixtures, the
// RunRecord JSON contract, and the harness/CLI integration points.
//
// The subsystem's promises, each enforced here:
//   - every analysis function matches numbers computable by hand (the
//     percentile/dip/recovery definitions in docs/REPORT.md are the spec);
//   - a RunRecord round-trips through JSON bit-exactly (dump -> parse ->
//     rebuild -> dump is the identity), and its top-level schema is golden
//     (tests/golden/run_record_keys.txt);
//   - spec.record attaches a record whose numbers equal the TestResult's
//     and whose analysis block re-derives cleanly from its own data, while
//     record-off runs are untouched;
//   - records are byte-identical at --jobs 1 vs --jobs N;
//   - scenario::timeline_from_log is the inverse of running a timeline
//     (the '--record-timeline' artifact replays to the same event log);
//   - the campaign plot emitter writes parseable .gp/.dat pairs whose
//     overlays track the columns the rows actually carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/core/dtnsim.hpp"
#include "dtnsim/report/analysis.hpp"
#include "dtnsim/report/record.hpp"

namespace dtnsim::report {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A rectangular series: time_s plus one value column, one row per second.
obs::SeriesTable make_series(const std::string& column,
                             const std::vector<double>& times,
                             const std::vector<double>& values) {
  obs::SeriesTable t;
  t.columns = {"time_s", column};
  for (std::size_t i = 0; i < times.size(); ++i)
    t.rows.push_back({times[i], values[i]});
  return t;
}

units::SimTime sec(double s) { return units::SimTime::from_seconds(s); }

// ---- percentile -----------------------------------------------------------

TEST(ReportAnalysis, PercentileInterpolatesByHand) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 1.0), 42.0);
  // rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0}, 0.5), 25.0);
  // rank = 0.99 * 3 = 2.97 -> 30 + 0.97 * 10.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0}, 0.99), 39.7);
  // Input order must not matter (the function sorts its copy).
  EXPECT_DOUBLE_EQ(percentile({40.0, 10.0, 30.0, 20.0}, 0.5), 25.0);
  // Out-of-range quantiles clamp to the extremes.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 2.0), 20.0);
}

// ---- rate_stats -----------------------------------------------------------

TEST(ReportAnalysis, RateStatsOverClosedWindowByHand) {
  const auto series = make_series("x_bps", {0, 1, 2, 3, 4, 5},
                                  {1e9, 2e9, 3e9, 4e9, 5e9, 6e9});
  const SeriesStats st = rate_stats(series, "x_bps", sec(1), sec(3));
  EXPECT_EQ(st.samples, 3u);  // t = 1, 2, 3 (closed window)
  EXPECT_DOUBLE_EQ(st.mean.bps(), 3e9);
  EXPECT_DOUBLE_EQ(st.p50.bps(), 3e9);
  // rank = 0.99 * 2 = 1.98 -> 3e9 + 0.98 * 1e9.
  EXPECT_DOUBLE_EQ(st.p99.bps(), 3.98e9);
}

TEST(ReportAnalysis, RateStatsMissingColumnOrEmptyWindowIsZero) {
  const auto series = make_series("x_bps", {0, 1}, {1e9, 2e9});
  EXPECT_EQ(rate_stats(series, "nope_bps", sec(0), sec(9)).samples, 0u);
  const SeriesStats st = rate_stats(series, "x_bps", sec(5), sec(9));
  EXPECT_EQ(st.samples, 0u);
  EXPECT_DOUBLE_EQ(st.mean.bps(), 0.0);
}

// ---- analyze_recovery -----------------------------------------------------

// Episode at [20, 25]: flat 10 Gbps before, hand-placed dip during, first
// sample back at >= 90% of baseline lands at t = 27.
obs::SeriesTable recovery_series(double after_stop_bps = 9.5e9) {
  std::vector<double> t, v;
  for (int i = 5; i <= 30; ++i) {
    t.push_back(i);
    double bps = 10e9;
    if (i >= 20 && i <= 25) bps = std::vector<double>{4e9, 2e9, 3e9, 5e9,
                                                      6e9, 7e9}[i - 20];
    if (i == 26) bps = 8e9;             // still below 9 Gbps
    if (i >= 27) bps = after_stop_bps;  // >= 9e9 -> recovered at t = 27
    v.push_back(bps);
  }
  return make_series("flow.goodput_bps", t, v);
}

TEST(ReportAnalysis, RecoveryStatsByHand) {
  const RecoveryStats st =
      analyze_recovery(recovery_series(), "flow.goodput_bps", sec(20), sec(25));
  // Baseline window is [10, 20): ten samples, all 10 Gbps.
  EXPECT_DOUBLE_EQ(st.baseline.gbps(), 10.0);
  EXPECT_DOUBLE_EQ(st.dip.gbps(), 2.0);
  EXPECT_DOUBLE_EQ(st.retained(), 0.2);
  EXPECT_EQ(st.samples, 16u);  // 10 baseline + 6 episode rows
  ASSERT_TRUE(st.recovered);
  EXPECT_DOUBLE_EQ(st.recovery.seconds(), 2.0);  // t = 27, relative to 25
}

TEST(ReportAnalysis, RecoveryNeverIsExplicit) {
  const RecoveryStats st = analyze_recovery(recovery_series(8e9),
                                            "flow.goodput_bps", sec(20), sec(25));
  EXPECT_FALSE(st.recovered);
  EXPECT_DOUBLE_EQ(st.recovery.seconds(), 0.0);
}

TEST(ReportAnalysis, DipClampsAtZeroAndEmptyBaselineIsZero) {
  const auto series = make_series("flow.goodput_bps", {20, 21}, {-1e9, 5e9});
  const RecoveryStats st =
      analyze_recovery(series, "flow.goodput_bps", sec(20), sec(25));
  EXPECT_DOUBLE_EQ(st.dip.bps(), 0.0);       // clamped
  EXPECT_DOUBLE_EQ(st.baseline.bps(), 0.0);  // no rows before the episode
  EXPECT_DOUBLE_EQ(st.retained(), 0.0);
}

// ---- per_flow_skew --------------------------------------------------------

TEST(ReportAnalysis, PerFlowSkewByHand) {
  obs::SeriesTable t;
  t.columns = {"time_s", "flow.per_flow_min_bps", "flow.per_flow_max_bps"};
  t.rows = {{0, 1e9, 2e9}, {1, 2e9, 4e9}, {2, 3e9, 3e9}};
  // Diffs 1e9, 2e9, 0 -> mean 1e9.
  EXPECT_DOUBLE_EQ(per_flow_skew(t, sec(0), sec(2)).bps(), 1e9);
  // Window [1, 1] keeps only the middle row.
  EXPECT_DOUBLE_EQ(per_flow_skew(t, sec(1), sec(1)).bps(), 2e9);
  // Single-flow series (no per-flow columns) reads as zero skew.
  const auto single = make_series("flow.goodput_bps", {0}, {1e9});
  EXPECT_DOUBLE_EQ(per_flow_skew(single, sec(0), sec(9)).bps(), 0.0);
}

// ---- episode_window / goodput_column --------------------------------------

scenario::AppliedEvent applied_event(double fire, double end, bool applied) {
  scenario::AppliedEvent ev;
  ev.fire_sec = fire;
  ev.end_sec = end;
  ev.kind = scenario::EventKind::LossBurst;
  ev.value = 0.02;
  ev.applied = applied;
  return ev;
}

TEST(ReportAnalysis, EpisodeWindowSpansAppliedEventsOnly) {
  scenario::EventLog log;
  EXPECT_FALSE(episode_window(log).has_value());

  log.events.push_back(applied_event(20.0, 25.0, true));
  log.events.push_back(applied_event(22.0, 0.0, true));   // permanent: -> 22
  log.events.push_back(applied_event(5.0, 50.0, false));  // ignored
  const auto w = episode_window(log);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(w->first.seconds(), 20.0);
  EXPECT_DOUBLE_EQ(w->second.seconds(), 25.0);

  scenario::EventLog unapplied;
  unapplied.events.push_back(applied_event(1.0, 2.0, false));
  EXPECT_FALSE(episode_window(unapplied).has_value());
}

TEST(ReportAnalysis, GoodputColumnPrefersFluidThenPacket) {
  EXPECT_EQ(goodput_column(make_series("flow.goodput_bps", {0}, {1})),
            "flow.goodput_bps");
  EXPECT_EQ(goodput_column(make_series("pkt.goodput_bps", {0}, {1})),
            "pkt.goodput_bps");
  EXPECT_EQ(goodput_column(make_series("other_bps", {0}, {1})), "");
}

// ---- RunRecord JSON contract ----------------------------------------------

RunRecord sample_record() {
  RunRecord rec;
  rec.meta.name = "rt-test";
  rec.meta.engine = "fluid";
  rec.meta.streams = 2;
  rec.meta.repeats = 3;
  rec.meta.duration_sec = 30.0;
  // Above 2^53: survives only because base_seed ships as a string.
  rec.meta.base_seed = 18446744073709551615ull;
  rec.meta.scenario = "loss";
  rec.summary.avg_gbps = 9.25;
  rec.summary.min_gbps = 9.0;
  rec.summary.max_gbps = 9.5;
  rec.summary.stdev_gbps = 0.25;
  rec.summary.avg_retransmits = 12.0;
  rec.summary.samples_gbps = {9.0, 9.25, 9.5};
  rec.series = recovery_series();
  rec.scenario_log.engine = "fluid";
  rec.scenario_log.timeline = "loss";
  rec.scenario_log.events.push_back(applied_event(20.0, 25.0, true));
  rec.analysis = analyze_record(rec);
  return rec;
}

TEST(ReportRecord, JsonRoundTripIsBitExact) {
  const RunRecord rec = sample_record();
  const std::string first = to_json(rec).dump();
  const auto parsed = Json::parse(first);
  ASSERT_TRUE(parsed.has_value());
  const RunRecord back = run_record_from_json(*parsed);
  EXPECT_EQ(to_json(back).dump(), first);
  EXPECT_EQ(back.meta.base_seed, rec.meta.base_seed);
  EXPECT_EQ(back.schema, kRunRecordSchema);
  EXPECT_EQ(back.series.rows.size(), rec.series.rows.size());
  ASSERT_EQ(back.scenario_log.events.size(), 1u);
  EXPECT_TRUE(back.scenario_log.events[0].applied);
}

TEST(ReportRecord, AnalysisDerivesFromOwnSeriesAndLog) {
  const RunRecord rec = sample_record();
  EXPECT_DOUBLE_EQ(rec.analysis.baseline.gbps(), 10.0);
  EXPECT_DOUBLE_EQ(rec.analysis.dip.gbps(), 2.0);
  EXPECT_TRUE(rec.analysis.has_episode);
  EXPECT_DOUBLE_EQ(rec.analysis.episode_start.seconds(), 20.0);
  EXPECT_DOUBLE_EQ(rec.analysis.episode_end.seconds(), 25.0);
  ASSERT_TRUE(rec.analysis.recovered);
  EXPECT_DOUBLE_EQ(rec.analysis.recovery.seconds(), 2.0);
  EXPECT_EQ(rec.analysis.samples, 26u);  // whole series, t = 5..30
}

TEST(ReportRecord, WriteLoadRoundTripAndLoadErrors) {
  const RunRecord rec = sample_record();
  const fs::path path = fs::path(::testing::TempDir()) / "dtnsim_record.json";
  ASSERT_TRUE(write_run_record(path.string(), rec));
  const RunRecord back = load_run_record(path.string());
  EXPECT_EQ(to_json(back).dump(), to_json(rec).dump());

  try {
    load_run_record("/nonexistent/rec.json");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/rec.json"),
              std::string::npos);
  }

  // A future-schema document must be refused, not half-read.
  Json j = to_json(rec);
  j["schema"] = 999;
  std::ofstream(path.string()) << j.dump(2);
  EXPECT_THROW(load_run_record(path.string()), std::runtime_error);

  // An object where an array belongs is a named error, not a crash (Json
  // counts an object's members in size() but at() only indexes arrays), and
  // so is a number that does not fit the member it is read into.
  const std::pair<const char*, const char*> malformed[] = {
      {R"({"schema":1,"summary":{"avg_gbps":1,"samples_gbps":{"a":1}}})",
       "summary.samples_gbps is not an array"},
      {R"({"schema":1,"series":{"columns":{"a":"time_s"}}})",
       "series.columns is not an array"},
      {R"({"schema":1,"series":{"columns":["time_s"],"rows":[[0],{"a":1}]}})",
       "series.rows[1] is not an array"},
      {R"({"schema":1,"meta":{"streams":1e10}})", "meta.streams is out of range"},
      {R"({"schema":1,"analysis":{"episode_end_sec":1e300}})",
       "analysis.episode_end_sec is out of range"},
  };
  for (const auto& [doc, what] : malformed) {
    std::ofstream(path.string(), std::ios::trunc) << doc;
    try {
      load_run_record(path.string());
      ADD_FAILURE() << "expected a throw for " << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  fs::remove(path);
}

TEST(ReportRecord, SchemaMatchesGolden) {
  const std::string golden_path =
      std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/run_record_keys.txt";
  const std::string golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  std::vector<std::string> want;
  std::stringstream in(golden);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);

  const Json j = to_json(sample_record());
  std::vector<std::string> got = j.keys();  // sorted
  for (const char* sub : {"meta", "summary", "analysis", "series"}) {
    const Json* s = j.find(sub);
    ASSERT_NE(s, nullptr) << sub;
    for (const auto& k : s->keys()) got.push_back(std::string(sub) + "." + k);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << "RunRecord schema changed; bump kRunRecordSchema "
                          "and regenerate tests/golden/run_record_keys.txt "
                          "(see docs/REPORT.md)";
}

// ---- renderers ------------------------------------------------------------

TEST(ReportRender, FormatAndDiffCarryTheHeadlines) {
  const RunRecord rec = sample_record();
  const std::string text = format_run_record(rec);
  EXPECT_NE(text.find("rt-test"), std::string::npos);
  EXPECT_NE(text.find("scenario loss"), std::string::npos);
  EXPECT_NE(text.find("dip 2.00 Gbps"), std::string::npos);
  EXPECT_NE(text.find("recovery 2.0 s"), std::string::npos);

  RunRecord b = rec;
  b.meta.name = "rt-after";
  b.summary.avg_gbps = 10.25;
  const std::string diff = format_record_diff(rec, b);
  EXPECT_NE(diff.find("rt-test vs rt-after"), std::string::npos);
  EXPECT_NE(diff.find("avg_gbps"), std::string::npos);
  EXPECT_NE(diff.find("+1.000"), std::string::npos);
}

TEST(ReportRender, RecordPlotWritesGpAndDat) {
  const RunRecord rec = sample_record();
  const fs::path base = fs::path(::testing::TempDir()) / "dtnsim_rec_plot";
  ASSERT_TRUE(write_record_plot(base.string(), rec));
  const std::string gp = slurp(base.string() + ".gp");
  const std::string dat = slurp(base.string() + ".dat");
  EXPECT_NE(gp.find("plot '"), std::string::npos);
  EXPECT_NE(gp.find(" noenhanced\n"), std::string::npos);  // labels print literally
  EXPECT_NE(gp.find("set label 'episode'"), std::string::npos);  // has episode
  EXPECT_NE(dat.find("time_s goodput_gbps"), std::string::npos);
  fs::remove(base.string() + ".gp");
  fs::remove(base.string() + ".dat");
}

TEST(ReportRender, CampaignPlotOverlaysTrackRowColumns) {
  const auto row = [](const char* name, bool perf, bool dip) {
    Json j = Json::object();
    j["index"] = 0;
    j["name"] = std::string(name);
    j["avg_gbps"] = 9.0;
    j["stdev_gbps"] = 0.5;
    j["min_gbps"] = 8.5;
    j["max_gbps"] = 9.5;
    if (perf) {
      j["tx_cyc_per_byte"] = 1.25;
      j["rx_cyc_per_byte"] = 2.5;
    }
    if (dip) {
      j["dip_gbps"] = 2.0;
      j["recovery_sec"] = 3.0;
    }
    return j;
  };
  const fs::path base = fs::path(::testing::TempDir()) / "dtnsim_camp_plot";

  // Plain rows: no overlays, no second axis.
  ASSERT_TRUE(write_campaign_plot(base.string(), "t", {row("a", false, false)}));
  std::string gp = slurp(base.string() + ".gp");
  EXPECT_NE(gp.find(" noenhanced\n"), std::string::npos);  // labels print literally
  EXPECT_EQ(gp.find("y2label"), std::string::npos);
  EXPECT_EQ(gp.find("episode dip"), std::string::npos);

  // Any row carrying the columns switches the overlays on.
  ASSERT_TRUE(write_campaign_plot(
      base.string(), "t", {row("a", false, false), row("b", true, true)}));
  gp = slurp(base.string() + ".gp");
  EXPECT_NE(gp.find("set y2label 'cycles/byte'"), std::string::npos);
  EXPECT_NE(gp.find("episode dip"), std::string::npos);
  EXPECT_NE(gp.find("tx cyc/B"), std::string::npos);

  // The .dat is tab-separated with the name last; missing overlays fill.
  const std::string dat = slurp(base.string() + ".dat");
  std::vector<std::string> lines;
  std::stringstream in(dat);
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find('\t'), std::string::npos);
  EXPECT_EQ(lines[0].substr(lines[0].size() - 1), "a");
  EXPECT_EQ(lines[1].substr(lines[1].size() - 1), "b");
  EXPECT_NE(lines[1].find("1.250000"), std::string::npos);
  fs::remove(base.string() + ".gp");
  fs::remove(base.string() + ".dat");
}

// ---- harness integration --------------------------------------------------

scenario::Timeline tiny_loss() {
  scenario::Timeline tl;
  tl.name = "tiny-loss";
  scenario::Event e;
  e.at_sec = 2.0;
  e.kind = scenario::EventKind::LossBurst;
  e.value = 0.05;
  e.duration_sec = 1.0;
  tl.events.push_back(e);
  return tl;
}

Experiment quick_experiment() {
  return Experiment(harness::esnet(kern::KernelVersion::V6_8))
      .path("WAN 63ms")
      .pacing(units::Rate::from_gbps(10))
      .duration(units::SimTime::from_seconds(6))
      .repeats(2);
}

TEST(ReportHarness, RecordBundlesEveryArtifactLayer) {
  const auto r = quick_experiment().scenario(tiny_loss()).record().run();
  ASSERT_NE(r.record, nullptr);
  const RunRecord& rec = *r.record;
  // The record's numbers are the TestResult's numbers.
  EXPECT_EQ(rec.meta.name, r.name);
  EXPECT_EQ(rec.meta.engine, "fluid");
  EXPECT_EQ(rec.meta.repeats, 2);
  EXPECT_EQ(rec.meta.scenario, "tiny-loss");
  EXPECT_DOUBLE_EQ(rec.summary.avg_gbps, r.avg_gbps);
  EXPECT_EQ(rec.summary.samples_gbps, r.samples_gbps);
  // record implies telemetry + ss + perf: every layer is populated.
  EXPECT_FALSE(rec.series.rows.empty());
  EXPECT_FALSE(rec.ss_log.empty());
  EXPECT_FALSE(rec.perf_log.empty());
  EXPECT_EQ(rec.scenario_log.events.size(), 1u);
  EXPECT_GT(rec.analysis.tx_cyc_per_byte, 0.0);
  EXPECT_TRUE(rec.analysis.has_episode);
  // The stored analysis re-derives cleanly from the record's own data —
  // the exact check `dtnsim-report --summarize` runs on loaded files.
  EXPECT_EQ(to_json(analyze_record(rec)).dump(), to_json(rec.analysis).dump());
}

TEST(ReportHarness, RecordOffLeavesResultUntouched) {
  const auto off = quick_experiment().run();
  EXPECT_EQ(off.record, nullptr);
  // Turning the record on must not change the simulation's numbers (the
  // record only implies telemetry, which is already observation-only).
  const auto on = quick_experiment().record().run();
  EXPECT_EQ(on.samples_gbps, off.samples_gbps);
  EXPECT_DOUBLE_EQ(on.avg_gbps, off.avg_gbps);
}

TEST(ReportHarness, RecordsAreByteIdenticalAcrossJobCounts) {
  std::vector<harness::TestSpec> specs;
  specs.push_back(
      quick_experiment().scenario(tiny_loss()).record().label("a").spec());
  specs.push_back(quick_experiment().streams(2).record().label("b").spec());
  const auto serial = harness::run_tests(specs, 1);
  const auto parallel = harness::run_tests(specs, 2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_NE(serial[i].record, nullptr);
    ASSERT_NE(parallel[i].record, nullptr);
    EXPECT_EQ(to_json(*serial[i].record).dump(),
              to_json(*parallel[i].record).dump())
        << specs[i].name;
  }
}

// ---- timeline recorder round-trip (--record-timeline) ----------------------

TEST(ReportTimeline, RecordedTimelineReplaysToTheSameEventLog) {
  // Jitter forces the drawn fire time away from the nominal one, so the
  // round-trip below only holds because timeline_from_log pins fire times.
  scenario::Timeline tl = tiny_loss();
  tl.events[0].jitter_sec = 0.5;
  const auto first = quick_experiment().repeats(1).scenario(tl).run();
  ASSERT_EQ(first.scenario_log.events.size(), 1u);
  const auto& ev = first.scenario_log.events[0];

  const scenario::Timeline rec =
      scenario::timeline_from_log(first.scenario_log);
  EXPECT_NO_THROW(rec.validate());
  EXPECT_EQ(rec.name, "tiny-loss");
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.events[0].at_sec, ev.fire_sec);
  EXPECT_DOUBLE_EQ(rec.events[0].duration_sec, ev.end_sec - ev.fire_sec);
  EXPECT_DOUBLE_EQ(rec.events[0].jitter_sec, 0.0);
  EXPECT_EQ(rec.events[0].kind, scenario::EventKind::LossBurst);

  // Replaying the recording reproduces the original crossings exactly.
  const auto second = quick_experiment().repeats(1).scenario(rec).run();
  ASSERT_EQ(second.scenario_log.events.size(), 1u);
  EXPECT_DOUBLE_EQ(second.scenario_log.events[0].fire_sec, ev.fire_sec);
  EXPECT_DOUBLE_EQ(second.scenario_log.events[0].end_sec, ev.end_sec);
  EXPECT_EQ(second.samples_gbps, first.samples_gbps);
}

}  // namespace
}  // namespace dtnsim::report

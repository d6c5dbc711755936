// RunRecord: one self-describing JSON artifact per run.
//
// The paper's whole argument joins layers of evidence — throughput curves,
// ss -i counters, CPU-cycle attribution, fault events — into one story per
// experiment, yet our obs artifacts (metrics CSV, ss log, perf log,
// scenario event log) ship as disjoint files that only humans correlate. A
// RunRecord bundles everything one run produced plus the derived analysis
// (steady-state stats, dip depth, time to recovery, cycles/byte) into a
// single schema-versioned document: `--record-out` writes it, TestResult
// carries it, and tools/dtnsim-report summarizes/diffs/plots it offline.
//
// Layering: report sits between scenario/app and harness, so these are
// plain-data structs the harness fills in — no harness types appear here.
// The JSON round-trip is bit-exact (Json preserves parse == dump precision),
// and each struct's key list below drives both directions (util/fields.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtnsim/obs/perf.hpp"
#include "dtnsim/obs/probe.hpp"
#include "dtnsim/obs/ss.hpp"
#include "dtnsim/report/analysis.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/util/fields.hpp"

namespace dtnsim::report {

// Bumped when the JSON layout changes shape (tests/golden/run_record_keys.txt
// pins the top-level key set).
inline constexpr int kRunRecordSchema = 1;

// What was run: the spec-side identity of the record.
struct RunMeta {
  std::string name;          // harness test label
  std::string engine;        // "fluid" | "packet"
  int streams = 1;
  int repeats = 1;
  double duration_sec = 0.0;
  std::uint64_t base_seed = 0;
  std::string scenario;      // timeline name; "" when none attached
};

// The harness aggregate — harness::TestResult's base, decoupled from the
// harness so tools can read records without linking the simulator stack.
struct RunSummary {
  double avg_gbps = 0.0;
  double min_gbps = 0.0;
  double max_gbps = 0.0;
  double stdev_gbps = 0.0;
  double avg_retransmits = 0.0;
  // Per-flow spread, averaged over repeats (Table III's "Range" column).
  double flow_min_gbps = 0.0;
  double flow_max_gbps = 0.0;
  double snd_cpu_pct = 0.0;  // "TX Cores" (iperf3 + IRQ), percent of a core
  double rcv_cpu_pct = 0.0;  // "RX Cores"
  double zc_fallback_ratio = 0.0;  // fraction of zerocopy bytes that fell back
  std::vector<double> samples_gbps;  // one per repeat (released raw data)
};

// Derived figures (analysis.hpp definitions), computed once at record build
// so consumers never re-derive them inconsistently.
struct RunAnalysis {
  // Steady-state goodput over the whole series (repeat 0).
  std::size_t samples = 0;
  units::Rate mean;
  units::Rate p50;
  units::Rate p99;
  units::Rate flow_skew;  // mean fastest-slowest spread, 0 when single-flow
  // Scenario episode, when applied events define a window.
  bool has_episode = false;
  units::SimTime episode_start;
  units::SimTime episode_end;
  units::Rate baseline;
  units::Rate dip;
  bool recovered = false;
  units::SimTime recovery;
  // Perf headline, from the final PerfReport (0 when perf was off).
  double tx_cyc_per_byte = 0.0;
  double rx_cyc_per_byte = 0.0;

  // Fraction of the baseline retained at the bottom of the dip.
  double retained() const {
    return baseline.bps() > 0.0 ? dip.bps() / baseline.bps() : 0.0;
  }
};

struct RunRecord {
  int schema = kRunRecordSchema;
  RunMeta meta;
  RunSummary summary;
  RunAnalysis analysis;
  obs::SeriesTable series;                // repeat 0's probe series
  std::vector<obs::SsReport> ss_log;      // repeat 0's ss snapshots
  std::vector<obs::PerfReport> perf_log;  // repeat 0's attribution samples
  scenario::EventLog scenario_log;        // repeat 0's applied events
};

// The analysis of one run's probe series, perf log and scenario event log:
// what a record stores and what a campaign row reports.
RunAnalysis analyze_run(const obs::SeriesTable& series,
                        const std::vector<obs::PerfReport>& perf_log,
                        const scenario::EventLog& scenario_log);

// analyze_run over the record's own blocks — what the harness stores in a
// new record, and what --summarize uses to verify a loaded record's numbers
// still match its data.
RunAnalysis analyze_record(const RunRecord& record);

// ---- JSON round-trip ------------------------------------------------------
template <class V>
constexpr void fields(V& v, RunMeta& m) {
  v("name", m.name);
  v("engine", m.engine);
  v("streams", m.streams);
  v("repeats", m.repeats);
  v("duration_sec", m.duration_sec);
  v("base_seed", wire::decimal(m.base_seed));
  v("scenario", m.scenario);
}
static_assert(wire::field_count<RunMeta>() == wire::member_count<RunMeta>());

// Also the flat summary columns of a sweep cache entry and a campaign row
// (harness::TestResult derives from RunSummary). The headline mean is what
// makes a document a summary, so it is required.
template <class V>
constexpr void fields(V& v, RunSummary& s) {
  v("avg_gbps", s.avg_gbps, wire::required);
  v("min_gbps", s.min_gbps);
  v("max_gbps", s.max_gbps);
  v("stdev_gbps", s.stdev_gbps);
  v("avg_retransmits", s.avg_retransmits);
  v("flow_min_gbps", s.flow_min_gbps);
  v("flow_max_gbps", s.flow_max_gbps);
  v("snd_cpu_pct", s.snd_cpu_pct);
  v("rcv_cpu_pct", s.rcv_cpu_pct);
  v("zc_fallback_ratio", s.zc_fallback_ratio);
  v("samples_gbps", s.samples_gbps);
}
static_assert(wire::field_count<RunSummary>() == wire::member_count<RunSummary>());

template <class V>
constexpr void fields(V& v, RunAnalysis& a) {
  v("samples", a.samples);
  v("mean_bps", a.mean);
  v("p50_bps", a.p50);
  v("p99_bps", a.p99);
  v("flow_skew_bps", a.flow_skew);
  v("has_episode", a.has_episode);
  v("episode_start_sec", a.episode_start);
  v("episode_end_sec", a.episode_end);
  v("baseline_bps", a.baseline);
  v("dip_bps", a.dip);
  v("recovered", a.recovered);
  v("recovery_sec", a.recovery);
  v("tx_cyc_per_byte", a.tx_cyc_per_byte);
  v("rx_cyc_per_byte", a.rx_cyc_per_byte);
}
static_assert(wire::field_count<RunAnalysis>() == wire::member_count<RunAnalysis>());

template <class V>
constexpr void fields(V& v, RunRecord& r) {
  v("schema", r.schema, wire::required);
  v("meta", r.meta);
  v("summary", r.summary);
  v("analysis", r.analysis);
  v("series", r.series);
  v("ss_log", obs::SsLog{r.ss_log});
  v("perf_log", obs::PerfLog{r.perf_log});
  v("scenario_log", r.scenario_log);
}
static_assert(wire::field_count<RunRecord>() == wire::member_count<RunRecord>());

Json to_json(const RunAnalysis& analysis);
Json to_json(const RunRecord& record);
// Throws std::runtime_error naming the first malformed key.
RunRecord run_record_from_json(const Json& j);

// Pretty-printed JSON to `path`; false on I/O failure.
bool write_run_record(const std::string& path, const RunRecord& record);
// Read + parse; throws std::runtime_error naming the path (and the first
// malformed key) on failure.
RunRecord load_run_record(const std::string& path);

// ---- renderers (tools/dtnsim-report) --------------------------------------
// Human-readable one-run summary: meta, summary table, analysis figures.
std::string format_run_record(const RunRecord& record);
// Side-by-side A/B comparison with absolute and percent deltas.
std::string format_record_diff(const RunRecord& a, const RunRecord& b);

}  // namespace dtnsim::report

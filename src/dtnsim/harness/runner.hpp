// Test harness: the ESnet "Network Test Harness" methodology.
//
// Every paper result is "60-second runs, at least 10 repeats, mpstat
// alongside". TestSpec describes one configuration; run_test executes the
// repeats on deterministic seed substreams and aggregates mean / min / max /
// stddev / retransmits / per-flow range / CPU — the exact columns the
// paper's tables print.
//
// The repeats run concurrently on sweep::parallel_for's shared pool, each
// with its own config copy, seed and Telemetry, and are folded in repeat
// order, so a TestResult is bit-identical to running them one by one.
// When run_tests or a campaign already runs cells on several threads, each
// cell's repeats run one by one on its thread instead.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dtnsim/app/iperf.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/scenario/scenario.hpp"

namespace dtnsim::harness {

struct TestSpec {
  std::string name;
  host::HostConfig sender;
  host::HostConfig receiver;
  net::PathSpec path;
  app::IperfOptions iperf;
  bool link_flow_control = false;
  int repeats = 10;
  std::uint64_t base_seed = 0x5eed;
  // Telemetry knob: when enabled (or ss or perf is), every repeat runs with
  // an interval probe and trace sink; the per-repeat series and repeat 0's
  // trace land on the TestResult (the iperf3 `-i 1` + ss/ethtool side
  // channel, always wired). See run_telemetry.
  obs::TelemetryConfig telemetry;
  // Mid-run fault/condition timeline, applied to every repeat (each repeat
  // jitters event times from its own seed substream). Empty = no scenario.
  dtnsim::scenario::Timeline scenario;
  // Bundle the run into a report::RunRecord on the TestResult (--record-out).
  // Implies telemetry + ss + perf so the record carries every artifact
  // layer; record-off runs stay bit-identical to builds without this field.
  bool record = false;

  // The testbed's hosts and the path named `path_name` (empty: the LAN),
  // running `opts`; named `label`, or "<testbed> <path>" without one.
  // Other knobs are plain field writes on the result, e.g.
  //   auto s = TestSpec::on(tb, "WAN 63ms", {.parallel = 8, .fq_rate_bps = 15e9});
  //   for (auto* h : {&s.sender, &s.receiver}) h->tuning.sysctl.optmem_max = 3405376;
  static TestSpec on(const Testbed& tb, const std::string& path_name,
                     app::IperfOptions opts, std::string label = {});
};

// The spec as the sweep cache keys it (sweep/cache.hpp): every entry but the
// unkeyed ones. The timeline's display name is cosmetic, so its events stand
// for it; an empty timeline writes nothing.
template <class V>
constexpr void fields(V& v, TestSpec& s) {
  v("name", s.name, wire::unkeyed);
  v("sender", s.sender);
  v("receiver", s.receiver);
  v("path", s.path);
  v("iperf", s.iperf);
  v("link_flow_control", s.link_flow_control);
  v("repeats", s.repeats);
  v("base_seed", s.base_seed);
  v("telemetry", s.telemetry, wire::unkeyed);
  v("scenario", s.scenario.events);
  v("record", s.record, wire::unkeyed);
}
static_assert(wire::field_count<TestSpec>() == wire::member_count<TestSpec>());

// The aggregate columns live in the RunSummary base, so RunRecords, sweep
// cache entries and campaign rows serialise them through its one field list.
struct TestResult : report::RunSummary {
  std::string name;
  int repeats = 0;

  // Populated only when run_telemetry(spec).enabled: one probe series per repeat
  // and the trace of repeat 0 (shared_ptr keeps the Telemetry alive).
  std::vector<obs::SeriesTable> repeat_series;
  std::shared_ptr<const obs::TraceSink> trace;
  // Populated only when spec.telemetry.ss_enabled: repeat 0's dtnsim-ss
  // snapshot log (every watch sample plus the end-of-run sample).
  std::vector<obs::SsReport> ss_log;
  // Populated only when spec.telemetry.perf_enabled: repeat 0's dtnsim-perf
  // attribution log (every sampler firing plus the end-of-run report).
  std::vector<obs::PerfReport> perf_log;
  // Populated only when spec.scenario is non-empty: repeat 0's event log
  // (what fired, when, and whether the engine applied it).
  dtnsim::scenario::EventLog scenario_log;
  // Populated only when spec.record: the whole run as one self-describing
  // artifact (summary + series + ss/perf logs + scenario events + derived
  // analysis). shared_ptr so copying a TestResult stays cheap.
  std::shared_ptr<const report::RunRecord> record;
};

// A sweep cache entry, a campaign row and a dataset's test: the label, the
// repeat count and the RunSummary columns. The run's outputs stay in memory.
template <class V>
constexpr void fields(V& v, TestResult& r) {
  v("name", r.name);
  v("repeats", r.repeats, wire::required);
  wire::flatten(v, static_cast<report::RunSummary&>(r));
  v("repeat_series", r.repeat_series, wire::skipped);
  v("trace", r.trace, wire::skipped);
  v("ss_log", r.ss_log, wire::skipped);
  v("perf_log", r.perf_log, wire::skipped);
  v("scenario_log", r.scenario_log, wire::skipped);
  v("record", r.record, wire::skipped);
}
static_assert(wire::field_count<TestResult>() == wire::member_count<TestResult>());

// The telemetry a run arms: spec.telemetry, switched on when it asks for ss
// snapshots or perf attribution, with every layer on when spec.record asks
// for a RunRecord.
obs::TelemetryConfig run_telemetry(const TestSpec& spec);

TestResult run_test(const TestSpec& spec);

// Run a batch on at most `jobs` threads of sweep::parallel_for's shared pool
// (1 = cells one by one on the calling thread, 0 = one per usable CPU).
// Cells that run one by one fan their repeats out as run_test does; cells
// that run concurrently run their repeats one by one on their own thread.
//
// Ordering guarantee (load-bearing; callers index results by spec position):
// the returned vector is pre-sized to specs.size() and results[i] is always
// the result of specs[i], no matter how many jobs ran or in what order cells
// finished. Each spec simulates with its own Rng/engine/telemetry, so the
// parallel output is bit-identical to the serial output.
std::vector<TestResult> run_tests(const std::vector<TestSpec>& specs, int jobs = 1);

}  // namespace dtnsim::harness

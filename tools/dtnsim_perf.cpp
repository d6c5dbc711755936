// dtnsim-perf: the simulator's `perf record` / `perf report`.
//
// Runs a scenario (same flags as dtnsim-iperf3) with exact per-stage cycle
// attribution enabled and renders each sample the way `perf report` would,
// or emits collapsed stacks for flamegraph.pl, or replays a previously
// written attribution log without re-simulating.
//
//   $ dtnsim-perf --testbed amlight --path LAN --kernel 6.5 -t 5
//   $ dtnsim-perf --testbed esnet -Z --fq-rate 50G -t 5 --record 1 --flame
//   $ dtnsim-perf --replay run.perf.json --report
//   $ dtnsim-perf --flame --diff before.perf.json after.perf.json
//
// --diff writes differential collapsed stacks ("stack beforeN afterN", the
// difffolded.pl shape); flamegraph.pl --negate renders the red/blue view.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/obs/perf.hpp"
#include "dtnsim/util/file.hpp"

namespace {

enum class Mode { Report, Flame, Json };

void render(const std::vector<dtnsim::obs::PerfReport>& log, Mode mode) {
  using namespace dtnsim::obs;
  switch (mode) {
    case Mode::Json:
      std::fputs((perf_log_to_json(log).dump(2) + "\n").c_str(), stdout);
      break;
    case Mode::Flame:
      // Flamegraphs show a cumulative profile; the last sample holds the
      // whole run's attribution (samples are run totals, not deltas).
      std::fputs(format_flamegraph(log.back()).c_str(), stdout);
      break;
    case Mode::Report:
      for (const auto& r : log) std::fputs(format_perf_report(r).c_str(), stdout);
      break;
  }
}

// Load a recorded attribution log; empty vector (with a message) on error.
std::vector<dtnsim::obs::PerfReport> load_log(const std::string& path) {
  const auto text = dtnsim::read_file(path);
  if (!text) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return {};
  }
  const auto doc = dtnsim::Json::parse(*text);
  if (!doc) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return {};
  }
  const auto log = dtnsim::obs::perf_log_from_json(*doc);
  if (log.empty()) {
    std::fprintf(stderr, "error: %s holds no samples\n", path.c_str());
  }
  return log;
}

int replay(const std::string& path, Mode mode) {
  const auto log = load_log(path);
  if (log.empty()) return 2;
  render(log, mode);
  return 0;
}

// `--flame --diff A B`: differential profile between two recorded logs. The
// final sample of each log carries the whole run's attribution, so the diff
// compares run totals — before (A) against after (B).
int diff(const std::string& a_path, const std::string& b_path, Mode mode) {
  if (mode != Mode::Flame) {
    std::fprintf(stderr, "error: --diff needs --flame (differential stacks)\n");
    return 2;
  }
  const auto a = load_log(a_path);
  if (a.empty()) return 2;
  const auto b = load_log(b_path);
  if (b.empty()) return 2;
  std::fputs(dtnsim::obs::format_flamegraph_diff(a.back(), b.back()).c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnsim::cli;
  CliOptions opts;
  std::string replay_path;
  std::vector<std::string> diff_logs;
  Mode mode = Mode::Report;
  FlagGroup tool{"tool flags:", {
    {{"--record"}, "SEC", "sample every SEC of sim time (as --perf-watch)",
     set_seconds(opts.perf_watch_sec)},
    {{"--report"}, "", "perf-report-style text output (default)", set_to(mode, Mode::Report)},
    {{"--flame"}, "", "collapsed stacks for flamegraph.pl", set_to(mode, Mode::Flame)},
    {{"--replay"}, "FILE", "render a recorded log, no simulation", set_text(replay_path)},
    {{"--diff"}, "A B", "with --flame: differential stacks of two logs", set_texts(diff_logs)},
    {{"-J", "--json"}, "", "emit the attribution log as JSON", set_to(mode, Mode::Json)}}};
  const Grammar grammar = tool_grammar(
      "dtnsim-perf — exact per-stage CPU-cycle attribution of a dtnsim run\n"
      "Without --record only the end-of-run report is taken.",
      std::move(tool), opts);
  const std::string error = parse_args(grammar, {argv + 1, argv + argc});
  if (!error.empty() || opts.show_help) {
    std::fputs(usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return error.empty() ? 0 : 2;
  }
  if (!diff_logs.empty()) return diff(diff_logs[0], diff_logs[1], mode);
  if (!replay_path.empty()) return replay(replay_path, mode);
  opts.force_perf = true;

  dtnsim::harness::TestSpec spec;
  try {
    spec = spec_from_cli(opts);
  } catch (const std::exception& e) {  // unknown testbed or path name
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto result = dtnsim::harness::run_test(spec);
  const auto& log = result.perf_log;
  if (log.empty()) {
    std::fprintf(stderr, "error: run produced no samples\n");
    return 1;
  }
  if (!opts.perf_out.empty() && !dtnsim::obs::write_perf_log(opts.perf_out, log)) {
    std::fprintf(stderr, "error: cannot write perf log to %s\n",
                 opts.perf_out.c_str());
    return 1;
  }
  render(log, mode);
  return 0;
}

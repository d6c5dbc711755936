// dtnsim-perf: the simulator's `perf record` / `perf report`.
//
// Runs a scenario (same flags as dtnsim-iperf3) with exact per-stage cycle
// attribution enabled and renders each sample the way `perf report` would,
// or emits collapsed stacks for flamegraph.pl, or replays the perf_log of a
// run record (--record-out) without re-simulating.
//
//   $ dtnsim-perf --testbed amlight --path LAN --kernel 6.5 -t 5
//   $ dtnsim-perf --testbed esnet -Z --fq-rate 50G -t 5 --record 1 --flame
//   $ dtnsim-perf --replay run.json --report
//   $ dtnsim-perf --flame --diff before.json after.json
//
// --diff writes differential collapsed stacks ("stack beforeN afterN", the
// difffolded.pl shape); flamegraph.pl --negate renders the red/blue view.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/obs/perf.hpp"

namespace {

using dtnsim::obs::PerfReport;

enum class Mode { Report, Flame, Json };

void render(const std::vector<PerfReport>& log, Mode mode) {
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

// A run record's perf_log; empty (with a message naming the file) when the
// record does not load or holds no samples.
std::vector<PerfReport> load_log(const std::string& path) {
  std::vector<PerfReport> log;
  try {
    log = dtnsim::report::load_run_record(path).perf_log;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return log;
  }
  if (log.empty()) std::fprintf(stderr, "error: %s holds no perf samples\n", path.c_str());
  return log;
}

int replay(const std::string& path, Mode mode) {
  const auto log = load_log(path);
  if (log.empty()) return 2;
  render(log, mode);
  return 0;
}

// `--flame --diff A B`: differential profile between two run records. The
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
    {{"--replay"}, "FILE", "render a run record's perf_log, no simulation",
     set_text(replay_path)},
    {{"--diff"}, "A B", "with --flame: differential stacks of two records",
     set_texts(diff_logs)},
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
  const CliRun run = run_command(opts);
  if (run.code != 0) {
    std::fputs(run.error.c_str(), stderr);
    return run.code;
  }
  render(run.result.perf_log, mode);
  // Notes follow the text report; JSON and collapsed stacks stay parseable.
  if (mode == Mode::Report) std::fputs(run.notes.c_str(), stdout);
  return 0;
}

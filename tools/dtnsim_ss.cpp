// dtnsim-ss: the simulator's `ss -i` / `ethtool -S` / `tc -s qdisc`.
//
// Runs a scenario (same flags as dtnsim-iperf3) with kernel-eye snapshots
// enabled and prints each snapshot the way the real tools would, or replays
// the ss_log of a run record (--record-out) without re-simulating.
//
//   $ dtnsim-ss --testbed amlight --path "WAN 104ms" --kernel 6.5 -Z
//               --fq-rate 50G --optmem 20480 -t 5 --watch 1
//   $ dtnsim-ss --testbed esnet -P 8 --fq-rate 15G -t 5 --json
//   $ dtnsim-ss --replay run.json
//   $ dtnsim-ss --diff sick.json tuned.json
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/obs/ss.hpp"

namespace {

using dtnsim::obs::SsReport;

// A run record's ss_log; empty (with a message naming the file) when the
// record does not load or holds no snapshots.
std::vector<SsReport> load_log(const std::string& path) {
  std::vector<SsReport> log;
  try {
    log = dtnsim::report::load_run_record(path).ss_log;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return log;
  }
  if (log.empty()) std::fprintf(stderr, "error: %s holds no ss snapshots\n", path.c_str());
  return log;
}

int diff(const std::string& path_a, const std::string& path_b) {
  const auto log_a = load_log(path_a);
  const auto log_b = load_log(path_b);
  if (log_a.empty() || log_b.empty()) return 2;
  // The final snapshot of each log is the end-of-run state.
  std::fputs(dtnsim::obs::format_ss_diff(log_a.back(), log_b.back()).c_str(),
             stdout);
  return 0;
}

void render(const std::vector<SsReport>& log, bool json) {
  if (json) {
    std::fputs((dtnsim::obs::ss_log_to_json(log).dump(2) + "\n").c_str(), stdout);
  } else {
    for (const auto& r : log) std::fputs(dtnsim::obs::format_ss(r).c_str(), stdout);
  }
}

int replay(const std::string& path, bool json) {
  const auto log = load_log(path);
  if (log.empty()) return 2;
  render(log, json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnsim::cli;
  CliOptions opts;
  std::string replay_path;
  std::vector<std::string> diff_logs;
  bool json = false;
  FlagGroup tool{"tool flags:", {
    {{"--watch"}, "SEC", "snapshot every SEC of sim time (as --ss-watch)",
     set_seconds(opts.ss_watch_sec)},
    {{"--replay"}, "FILE", "pretty-print a run record's ss_log, no simulation",
     set_text(replay_path)},
    {{"--diff"}, "A B", "compare two run records' final snapshots", set_texts(diff_logs)},
    {{"-J", "--json"}, "", "emit the snapshot log as JSON", set_true(json)}}};
  const Grammar grammar = tool_grammar(
      "dtnsim-ss — kernel-eye socket/NIC/qdisc snapshots of a dtnsim run\n"
      "Without --watch only the end-of-run snapshot is taken.",
      std::move(tool), opts);
  const std::string error = parse_args(grammar, {argv + 1, argv + argc});
  if (!error.empty() || opts.show_help) {
    std::fputs(usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return error.empty() ? 0 : 2;
  }
  if (!diff_logs.empty()) return diff(diff_logs[0], diff_logs[1]);
  if (!replay_path.empty()) return replay(replay_path, json);

  opts.force_ss = true;
  const CliRun run = run_command(opts);
  if (run.code != 0) {
    std::fputs(run.error.c_str(), stderr);
    return run.code;
  }
  render(run.result.ss_log, json);
  if (!json) std::fputs(run.notes.c_str(), stdout);
  return 0;
}

// dtnsim-ss: the simulator's `ss -i` / `ethtool -S` / `tc -s qdisc`.
//
// Runs a scenario (same flags as dtnsim-iperf3) with kernel-eye snapshots
// enabled and prints each snapshot the way the real tools would, or replays
// a previously written snapshot log without re-simulating.
//
//   $ dtnsim-ss --testbed amlight --path "WAN 104ms" --kernel 6.5 -Z
//               --fq-rate 50G --optmem 20480 -t 5 --watch 1
//   $ dtnsim-ss --testbed esnet -P 8 --fq-rate 15G -t 5 --json
//   $ dtnsim-ss --replay run.ss.json
//   $ dtnsim-ss --diff sick.ss.json tuned.ss.json
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/obs/ss.hpp"
#include "dtnsim/util/file.hpp"

namespace {

// Loads a --ss-out / --json dump; empty vector (with a message) on failure.
std::vector<dtnsim::obs::SsReport> load_log(const std::string& path) {
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
  auto log = dtnsim::obs::ss_log_from_json(*doc);
  if (log.empty()) {
    std::fprintf(stderr, "error: %s holds no snapshots\n", path.c_str());
  }
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

void render(const std::vector<dtnsim::obs::SsReport>& log, bool json) {
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
    {{"--replay"}, "FILE", "pretty-print a recorded log, no simulation", set_text(replay_path)},
    {{"--diff"}, "A B", "compare two recorded logs' final snapshots", set_texts(diff_logs)},
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

  dtnsim::harness::TestSpec spec;
  try {
    spec = spec_from_cli(opts);
  } catch (const std::exception& e) {  // unknown testbed or path name
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto result = dtnsim::harness::run_test(spec);
  const auto& log = result.ss_log;
  if (log.empty()) {
    std::fprintf(stderr, "error: run produced no snapshots\n");
    return 1;
  }
  if (!opts.ss_out.empty() && !dtnsim::obs::write_ss_log(opts.ss_out, log)) {
    std::fprintf(stderr, "error: cannot write ss log to %s\n", opts.ss_out.c_str());
    return 1;
  }
  render(log, json);
  return 0;
}

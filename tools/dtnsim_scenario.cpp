// dtnsim-scenario: author, check and replay mid-run fault timelines.
//
// The scenario subsystem (docs/SCENARIO.md) turns a static dtnsim run into a
// time-varying one — loss bursts, link flaps, background surges, mid-transfer
// retunes. This tool is the workflow around those timeline files:
//
//   $ dtnsim-scenario --validate scenarios/loss_burst.json
//   $ dtnsim-scenario --preview scenarios/link_flap.json --seed 7
//   $ dtnsim-scenario --run --scenario scenarios/bg_surge.json
//         --testbed amlight --path "WAN 106ms" -C bbr -t 60
//   $ dtnsim-scenario --replay run.json     (a --record-out run record)
//
// --preview and --run honour the shared --seed flag; the same seed that
// produced a run reproduces its jittered fire times exactly.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace {

using dtnsim::strfmt;
using dtnsim::scenario::EventLog;

// One line per crossed event, mirroring the --preview layout so a rendered
// log diffs cleanly against the timeline that produced it.
void render_event_log(const EventLog& log) {
  std::size_t applied = 0;
  for (const auto& e : log.events) applied += e.applied ? 1 : 0;
  std::printf("event log: timeline \"%s\" on %s engine", log.timeline.c_str(),
              log.engine.empty() ? "?" : log.engine.c_str());
  if (!log.label.empty()) std::printf(" (%s)", log.label.c_str());
  std::printf(" — %zu event%s crossed, %zu applied\n", log.events.size(),
              log.events.size() == 1 ? "" : "s", applied);
  for (const auto& e : log.events) {
    std::string window = strfmt("t=%8.3fs", e.fire_sec);
    if (e.end_sec > 0.0) window += strfmt(" ..%8.3fs", e.end_sec);
    std::printf("  %-22s %-18s value=%-14g %s%s%s\n", window.c_str(),
                std::string(dtnsim::scenario::kind_name(e.kind)).c_str(),
                e.value, e.applied ? "applied" : "UNSUPPORTED",
                e.note.empty() ? "" : "  # ", e.note.c_str());
  }
}

int validate(const std::string& path) {
  try {
    const auto tl = dtnsim::scenario::load_timeline(path);
    std::printf("ok: %s — timeline \"%s\", %zu event%s\n", path.c_str(),
                tl.name.c_str(), tl.events.size(),
                tl.events.size() == 1 ? "" : "s");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int preview(const std::string& path, std::uint64_t seed) {
  try {
    const auto tl = dtnsim::scenario::load_timeline(path);
    std::fputs(dtnsim::scenario::preview_timeline(tl, seed).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// Renders a run record's scenario_log.
int replay(const std::string& path) {
  EventLog log;
  try {
    log = dtnsim::report::load_run_record(path).scenario_log;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // A run without --scenario leaves the log at its defaults, engine unset.
  if (log.engine.empty()) {
    std::fprintf(stderr, "error: %s holds no scenario event log\n", path.c_str());
    return 2;
  }
  render_event_log(log);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnsim::cli;
  CliOptions opts;
  std::string validate_path, preview_path, replay_path;
  bool run_mode = false;
  FlagGroup tool{"tool flags:", {
    {{"--validate"}, "FILE", "parse + validate a timeline and exit", set_text(validate_path)},
    {{"--preview"}, "FILE", "render fire windows (honours --seed)", set_text(preview_path)},
    {{"--replay"}, "FILE", "render a run record's scenario_log", set_text(replay_path)},
    {{"--run"}, "", "simulate with --scenario FILE, print the log", set_true(run_mode)}}};
  const Grammar grammar = tool_grammar(
      "dtnsim-scenario — author, check and replay mid-run fault timelines\n"
      "(docs/SCENARIO.md has the event taxonomy)",
      std::move(tool), opts);
  const std::string error = parse_args(grammar, {argv + 1, argv + argc});
  const bool no_mode =
      validate_path.empty() && preview_path.empty() && replay_path.empty() && !run_mode;
  if (!error.empty() || opts.show_help || no_mode) {
    std::fputs(usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return opts.show_help && error.empty() ? 0 : 2;
  }

  if (!validate_path.empty()) return validate(validate_path);
  if (!preview_path.empty()) return preview(preview_path, opts.seed);
  if (!replay_path.empty()) return replay(replay_path);

  // --run: simulate with the timeline and print the crossed-event log.
  if (opts.scenario_file.empty()) {
    std::fprintf(stderr, "error: --run needs --scenario FILE\n");
    return 2;
  }
  const CliRun run = run_command(opts);
  if (run.code != 0) {
    std::fputs(run.error.c_str(), stderr);
    return run.code;
  }
  const auto& result = run.result;
  std::printf("%s: %.2f Gbps mean over %d repeat%s, %.0f retransmits\n",
              run.spec.name.empty() ? "run" : run.spec.name.c_str(), result.avg_gbps,
              result.repeats, result.repeats == 1 ? "" : "s",
              result.avg_retransmits);
  render_event_log(result.scenario_log);
  std::fputs(run.notes.c_str(), stdout);
  return 0;
}

// dtnsim-report: inspect, compare and plot RunRecord artifacts.
//
// A RunRecord (written by `dtnsim-iperf3 --record-out run.json`, or any
// harness caller that sets spec.record) bundles one run's summary, probe
// series, ss/perf logs, scenario events and derived analysis into a single
// JSON document. This tool works on those files offline — no simulation.
//
//   $ dtnsim-report --summarize run.json
//   $ dtnsim-report --diff before.json after.json
//   $ dtnsim-report --plot run.json --plot-base fig/run
//   $ dtnsim-report --json run.json | jq .analysis
//
// --summarize re-derives the analysis from the record's own series and logs
// and flags any drift from the stored block.
#include <cstdio>
#include <string>
#include <vector>

#include "dtnsim/cli/flags.hpp"
#include "dtnsim/report/plot.hpp"

namespace {

using dtnsim::report::RunRecord;

// Load or die with a message; RunRecord loading throws with the path baked in.
bool load(const std::string& path, RunRecord* out) {
  try {
    *out = dtnsim::report::load_run_record(path);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

int summarize(const std::string& path) {
  RunRecord rec;
  if (!load(path, &rec)) return 2;
  std::fputs(dtnsim::report::format_run_record(rec).c_str(), stdout);
  // The stored analysis block is derived data; recompute it from the
  // record's own series/logs so a hand-edited or stale file is caught.
  const auto fresh = dtnsim::report::analyze_record(rec);
  const bool clean = dtnsim::report::to_json(fresh).dump() ==
                     dtnsim::report::to_json(rec.analysis).dump();
  std::fprintf(stdout, "  analysis   : %s\n",
               clean ? "verified (matches the recorded series/logs)"
                     : "STALE — does not match the recorded series/logs");
  return clean ? 0 : 1;
}

int diff(const std::string& a_path, const std::string& b_path) {
  RunRecord a, b;
  if (!load(a_path, &a) || !load(b_path, &b)) return 2;
  std::fputs(dtnsim::report::format_record_diff(a, b).c_str(), stdout);
  return 0;
}

int plot(const std::string& path, std::string base) {
  RunRecord rec;
  if (!load(path, &rec)) return 2;
  if (base.empty()) {
    base = path;
    const std::string suffix = ".json";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
      base.resize(base.size() - suffix.size());
    }
  }
  const std::string failed =
      dtnsim::report::write_figure(base, dtnsim::report::record_figure(rec));
  if (!failed.empty()) {
    std::fprintf(stderr, "error: cannot write %s\n", failed.c_str());
    return 1;
  }
  std::fprintf(stdout, "plot: %s.gp + %s.dat (render with: %s)\n", base.c_str(),
               base.c_str(), dtnsim::report::render_command(base).c_str());
  return 0;
}

int emit_json(const std::string& path) {
  RunRecord rec;
  if (!load(path, &rec)) return 2;
  std::fputs((dtnsim::report::to_json(rec).dump(2) + "\n").c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnsim::cli;
  enum class Mode { Summarize, Diff, Plot, Json } mode = Mode::Summarize;
  std::vector<std::string> files;
  std::string plot_base;
  bool help = false;
  // Each mode flag names its record(s) and picks the mode; a bare FILE is
  // summarized.
  const auto files_for = [&](Mode m) -> Setter {
    return [&, m](const std::string&, const std::vector<std::string>& values) {
      mode = m;
      files.insert(files.end(), values.begin(), values.end());
      return std::string();
    };
  };
  const FlagGroup flags{"", {
    {{"--summarize"}, "FILE", "summary + analysis check", files_for(Mode::Summarize)},
    {{"--diff"}, "A B", "compare two records (absolute and % deltas)", files_for(Mode::Diff)},
    {{"--plot"}, "FILE", "write figure-ready <base>.gp + <base>.dat", files_for(Mode::Plot)},
    {{"--plot-base"}, "BASE", "with --plot: output base (default: FILE minus\n.json)",
     set_text(plot_base)},
    {{"-J", "--json"}, "FILE", "re-emit the record as canonical JSON", files_for(Mode::Json)},
    {{"-h", "--help"}, "", "print this help and exit", set_true(help)}}};
  const Grammar grammar{
      "dtnsim-report [flags] [FILE] — unified run records: summarize, diff, plot\n"
      "Records come from `dtnsim-iperf3 --record-out FILE` (docs/REPORT.md).",
      {flags}, [&files](const std::string& file) { files.push_back(file); }};
  const std::string error = parse_args(grammar, {argv + 1, argv + argc});
  if (!error.empty() || help || files.empty()) {
    std::fputs(usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return help && error.empty() ? 0 : 2;
  }
  switch (mode) {
    case Mode::Summarize:
      return summarize(files.front());
    case Mode::Diff:
      if (files.size() != 2) {
        std::fprintf(stderr, "error: --diff needs exactly two records\n");
        return 2;
      }
      return diff(files[0], files[1]);
    case Mode::Plot:
      return plot(files.front(), plot_base);
    case Mode::Json:
      return emit_json(files.front());
  }
  return 0;
}

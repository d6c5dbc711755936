// dtnsim-repro: run the paper's experiments by id, check the paper's claims
// on their results, and export raw datasets. Exits 1 when a claim fails.
//
//   $ dtnsim-repro --list
//   $ dtnsim-repro fig5 table3 --out data/
//   $ dtnsim-repro --all --quick --out data/
//   $ dtnsim-repro fig9 --trace-out trace.json --metrics-out flow.csv
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/harness/dataset.hpp"
#include "dtnsim/harness/experiments.hpp"
#include "dtnsim/obs/probe.hpp"
#include "dtnsim/obs/trace.hpp"
#include "dtnsim/report/plot.hpp"
#include "dtnsim/util/strfmt.hpp"
#include "dtnsim/util/table.hpp"

namespace {

// One row per cell: the columns the paper's tables and figures print.
std::string cell_table(const std::vector<dtnsim::harness::TestResult>& results) {
  using dtnsim::strfmt;
  dtnsim::Table table({"Cell", "Gbps avg ± sd", "Min", "Max", "Retr", "Flow range",
                       "TX/RX cores", "zc fallback"});
  for (const auto& r : results) {
    table.add_row({r.name, strfmt("%.1f ± %.1f", r.avg_gbps, r.stdev_gbps),
                   strfmt("%.1f", r.min_gbps), strfmt("%.1f", r.max_gbps),
                   strfmt("%.0f", r.avg_retransmits),
                   strfmt("%.1f-%.1f", r.flow_min_gbps, r.flow_max_gbps),
                   strfmt("%.0f%% / %.0f%%", r.snd_cpu_pct, r.rcv_cpu_pct),
                   strfmt("%.0f%%", r.zc_fallback_ratio * 100.0)});
  }
  return table.to_ascii();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnsim::harness;
  using namespace dtnsim::cli;

  std::vector<std::string> ids;
  std::string out_dir = ".";
  std::string metrics_out, trace_out;
  double probe_interval_sec = 1.0;
  bool list = false, all = false, quick = false, help = false;
  const FlagGroup flags{"", {
    {{"--list"}, "", "list the experiment ids and exit", set_true(list)},
    {{"--all"}, "", "run every experiment", set_true(all)},
    {{"--quick"}, "", "20 s x 3 repeats instead of the paper's 60 s x 10", set_true(quick)},
    {{"--out"}, "DIR", "dataset directory (default ., created if missing)", set_text(out_dir)},
    {{"--metrics-out"}, "F", "per-interval telemetry series (all tests) as CSV",
     set_text(metrics_out)},
    {{"--trace-out"}, "F", "chrome://tracing / Perfetto trace_event JSON", set_text(trace_out)},
    {{"--probe-interval"}, "SEC", "telemetry cadence (default 1)", set_seconds(probe_interval_sec)},
    {{"-h", "--help"}, "", "print this help and exit", set_true(help)}}};
  const Grammar grammar{
      "dtnsim-repro [flags] [ids...] — run the paper's experiments by id\n"
      "Prints each cell and a PASS/FAIL line per paper claim, and writes\n"
      "<id>_raw.csv, <id>_summary.csv and <id>.json per experiment (and a\n"
      "figure's <id>.dat + <id>.gp) into --out. Exits 1 if any claim fails\n"
      "or a file cannot be written.",
      {flags}, [&ids](const std::string& id) { ids.push_back(id); }};
  const std::string error = parse_args(grammar, {argv + 1, argv + argc});
  if (!error.empty() || help) {
    std::fputs(usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return error.empty() ? 0 : 2;
  }
  dtnsim::obs::TelemetryConfig telemetry;
  telemetry.enabled = !metrics_out.empty() || !trace_out.empty();
  telemetry.probe_interval = dtnsim::units::seconds(probe_interval_sec);

  if (list || (ids.empty() && !all)) {
    std::printf("%-18s %s\n", "id", "experiment");
    for (const auto& def : experiment_registry()) {
      std::printf("%-18s %s (%zu cells, %zu claims)\n", def.id.c_str(), def.title.c_str(),
                  def.specs().size(), def.claims.size());
    }
    return 0;
  }

  if (all) {
    ids.clear();
    for (const auto& def : experiment_registry()) ids.push_back(def.id);
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec || !std::filesystem::is_directory(out_dir, ec)) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n", out_dir.c_str(),
                 ec ? ec.message().c_str() : "not a directory");
    return 1;
  }

  const double duration = quick ? 20.0 : 60.0;
  const int repeats = quick ? 3 : 10;
  int failures = 0;
  // Telemetry accumulated across every test of every experiment; written
  // once at the end as a merged CSV / merged chrome trace.
  struct OwnedSeries {
    std::string test;
    int repeat;
    dtnsim::obs::SeriesTable series;
  };
  std::vector<OwnedSeries> all_series;
  std::vector<std::pair<std::string, std::shared_ptr<const dtnsim::obs::TraceSink>>>
      all_traces;
  for (const auto& id : ids) {
    const auto* def = find_experiment(id);
    if (!def) {
      std::fprintf(stderr, "unknown experiment id: %s (see --list)\n", id.c_str());
      ++failures;
      continue;
    }
    std::printf("running %-16s (%s) ...\n", def->id.c_str(), def->title.c_str());
    ExperimentRun run = run_experiment(*def, duration, repeats, telemetry);
    std::printf("%s", cell_table(run.results).c_str());
    for (const auto& claim : run.claims) {
      std::printf("  %s\n", format_claim(claim).c_str());
    }
    if (!run.passed()) ++failures;
    Dataset ds(def->id);
    for (auto& res : run.results) {
      for (std::size_t r = 0; r < res.repeat_series.size(); ++r) {
        all_series.push_back({res.name, static_cast<int>(r), std::move(res.repeat_series[r])});
      }
      if (res.trace) all_traces.emplace_back(res.name, res.trace);
      ds.add(res);
    }
    if (!ds.write_to(out_dir)) {
      std::fprintf(stderr, "  failed to write dataset to %s\n", out_dir.c_str());
      ++failures;
      continue;
    }
    // Entries whose cells form a series x path grid also get the paper's
    // bar chart.
    std::string figure;
    if (const auto fig = bar_chart(def->title, run.specs, run.results)) {
      const std::string failed = dtnsim::report::write_figure(out_dir + "/" + def->id, *fig);
      if (!failed.empty()) {
        std::fprintf(stderr, "  failed to write %s\n", failed.c_str());
        ++failures;
        continue;
      }
      figure = dtnsim::strfmt(" + %s.dat/.gp", def->id.c_str());
    }
    std::printf("  wrote %s/%s_{raw,summary}.csv and %s.json (%zu tests)%s\n",
                out_dir.c_str(), def->id.c_str(), def->id.c_str(), ds.size(), figure.c_str());
  }
  if (!metrics_out.empty()) {
    std::vector<dtnsim::obs::LabeledSeries> labeled;
    labeled.reserve(all_series.size());
    for (const auto& s : all_series) labeled.push_back({s.test, s.repeat, &s.series});
    if (dtnsim::obs::write_merged_series_csv(metrics_out, labeled)) {
      std::printf("wrote %s (%zu series)\n", metrics_out.c_str(), labeled.size());
    } else {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      ++failures;
    }
  }
  if (!trace_out.empty()) {
    std::vector<std::pair<std::string, const dtnsim::obs::TraceSink*>> sinks;
    sinks.reserve(all_traces.size());
    for (const auto& [label, sink] : all_traces) sinks.emplace_back(label, sink.get());
    if (dtnsim::obs::write_merged_chrome_trace(trace_out, sinks)) {
      std::printf("wrote %s (%zu traces)\n", trace_out.c_str(), sinks.size());
    } else {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

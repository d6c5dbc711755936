#include "dtnsim/sweep/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/report/plot.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/pool.hpp"
#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

// Seconds on a monotonic clock. Wall time and occupancy are reporting-only;
// results stay seed-deterministic (tests/link_audit.py allows this read).
double now_sec() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

// The result's columns (its name is the cell's: run_test and a cache hit
// both label it with the spec's name), then the cell's place in the grid.
Json row_json(const CellOutcome& out) {
  const auto& r = out.result;
  Json j = wire::to_json(r);
  j["index"] = static_cast<std::int64_t>(out.index);
  j["key"] = out.key_hex;
  Json coords = Json::object();
  for (const auto& [axis, value] : out.coords) coords[axis] = value;
  j["coords"] = std::move(coords);
  j["cached"] = out.cached;
  // Telemetry extras, presence-driven: --report grows the matching columns
  // only when some row carries them. Cached rows never have them (cells
  // with telemetry enabled bypass the result cache).
  const obs::SeriesTable none;
  const report::RunAnalysis a = report::analyze_run(
      r.repeat_series.empty() ? none : r.repeat_series.front(), r.perf_log, r.scenario_log);
  if (!r.perf_log.empty()) {
    j["tx_cyc_per_byte"] = a.tx_cyc_per_byte;
    j["rx_cyc_per_byte"] = a.rx_cyc_per_byte;
  }
  if (a.has_episode) {
    j["baseline_gbps"] = a.baseline.gbps();
    j["dip_gbps"] = a.dip.gbps();
    j["recovery_sec"] = a.recovered ? a.recovery.seconds() : -1.0;
    j["retained"] = a.retained();
  }
  return j;
}

// The documents of a campaign's rows, one per line that parses: a line a
// kill cut short is skipped. nullopt when the file cannot be read.
std::optional<std::vector<Json>> read_jsonl(const std::string& path) {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  std::vector<Json> docs;
  std::string_view rest = *text;
  while (!rest.empty()) {
    const std::size_t end = std::min(rest.find('\n'), rest.size());
    if (auto doc = Json::parse(rest.substr(0, end))) docs.push_back(std::move(*doc));
    rest.remove_prefix(std::min(end + 1, rest.size()));
  }
  return docs;
}

// An append-or-truncate line stream that flushes after every line, so the
// results stream survives a kill between cells, and throws naming the file
// when a line does not reach it. Appending to a file whose last line a kill
// cut short first ends that line, so the fragment stays a torn line of its
// own and the new lines still parse.
class LineWriter {
 public:
  LineWriter(const std::string& path, bool append) : path_(path) {
    if (path.empty()) return;
    bool torn = false;
    if (append) {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      if (in && in.tellg() > 0) {
        in.seekg(-1, std::ios::end);
        torn = in.get() != '\n';
      }
    }
    out_.open(path, append ? std::ios::app : std::ios::trunc);
    if (!out_) throw std::runtime_error("sweep: cannot open " + path + " for writing");
    if (torn) out_ << '\n';
  }
  void line(const std::string& text) {
    if (!out_.is_open()) return;
    out_ << text << '\n';
    out_.flush();
    if (!out_) throw std::runtime_error("sweep: cannot write " + path_);
  }

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace

CampaignReport run_campaign(const GridSpec& grid, const CampaignOptions& opts) {
  const double t0 = now_sec();
  if (opts.resume && opts.results_path.empty()) {
    throw std::invalid_argument(
        "sweep resume: a campaign resumes from its rows, so resuming needs the "
        "results stream path (--out FILE)");
  }
  const std::vector<Cell> cells = expand(grid);  // throws on a malformed grid

  CampaignReport report;
  report.name = grid.name;
  report.total = cells.size();
  report.jobs = std::min(resolve_jobs(opts.jobs), resolve_jobs(0));
  report.cells.resize(cells.size());
  // Each cell's content address, hashed once in expand(): the resume check,
  // the rows and the cache read it.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellOutcome& out = report.cells[i];
    out.index = i;
    out.key_hex = key_hex(cells[i].key);
    out.coords = cells[i].coords;
  }

  // Resume: each row of the stream is a done cell, and its result is read
  // back from the row. A row whose key is not the key of the cell at its
  // index was written for another grid.
  const std::string& path = opts.results_path;
  if (const auto rows = opts.resume ? read_jsonl(path) : std::nullopt) {
    for (const Json& row : *rows) {
      const double at = row.number_at("index", -1);
      const std::string key = row.string_at("key", "");
      if (!(at >= 0 && at < static_cast<double>(cells.size()) && at == std::floor(at)) ||
          key != report.cells[static_cast<std::size_t>(at)].key_hex) {
        throw std::runtime_error(strfmt(
            "sweep resume: %s holds a row (index %g, key %s) that is not a cell of this "
            "grid — refusing to mix campaigns",
            path.c_str(), at, key.c_str()));
      }
      CellOutcome& out = report.cells[static_cast<std::size_t>(at)];
      if (const std::string error = wire::read(row, out.result); !error.empty()) {
        throw std::runtime_error(strfmt("sweep resume: %s: the row of cell %s is not a result (%s)",
                                        path.c_str(), key.c_str(), error.c_str()));
      }
      out.result.name = cells[out.index].spec.name;  // the label is not part of the key
      if (!out.resumed) ++report.resumed;
      out.resumed = out.done = true;
    }
  }

  std::unique_ptr<ResultCache> cache;
  if (!opts.cache_dir.empty()) cache = std::make_unique<ResultCache>(opts.cache_dir);

  LineWriter results(path, opts.resume);

  std::vector<std::size_t> todo;
  for (const CellOutcome& out : report.cells) {
    if (!out.done) todo.push_back(out.index);
  }

  std::mutex io_mu;  // serializes row writes, counters, busy time
  double busy_sec = 0.0;
  // Set when a row write throws: the campaign has failed, so no further cell
  // starts. Cells already running finish; parallel_for then rethrows the
  // write's error.
  std::atomic<bool> write_failed{false};
  parallel_for(todo.size(), report.jobs, [&](std::size_t k) {
    if (write_failed) return;
    const double start = now_sec();
    const Cell& cell = cells[todo[k]];
    CellOutcome& out = report.cells[todo[k]];
    bool cached = false;
    harness::TestResult result;
    // Telemetry payloads are not cacheable; bypass the store for them.
    const bool cacheable = cache && !cell.spec.telemetry.enabled;
    if (cacheable && cache->load(cell.key, cell.spec.name, &result)) {
      cached = true;
    } else {
      result = harness::run_test(cell.spec);
      if (cacheable) cache->store(cell.key, result);
    }

    const std::lock_guard<std::mutex> lock(io_mu);
    out.result = std::move(result);
    out.cached = cached;
    out.done = true;
    if (cached) {
      ++report.cached;
    } else {
      ++report.simulated;
    }
    try {
      results.line(row_json(out).dump());
    } catch (...) {
      write_failed = true;
      throw;
    }
    busy_sec += now_sec() - start;
  });

  report.wall_sec = now_sec() - t0;
  report.worker_occupancy =
      report.wall_sec > 0 ? busy_sec / (static_cast<double>(report.jobs) * report.wall_sec) : 0.0;
  return report;
}

// ---- dtnsim-sweep command line ------------------------------------------

namespace {

// --max-age-days: a whole-token number >= 0 (inf included).
std::optional<double> parse_days(const std::string& text) {
  char* end = nullptr;
  const double days = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !(days >= 0)) return std::nullopt;
  return days;
}

cli::Grammar sweep_grammar(SweepCli& o) {
  using namespace cli;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const auto bit = [](const std::string& item) {
    return item == "0" || item == "1" ? std::optional(item == "1") : std::nullopt;
  };
  const auto gbps = [](const std::string& item) {
    const auto bps = parse_rate(item);
    return bps ? std::optional(*bps / 1e9) : std::nullopt;
  };
  const auto bytes = [](const std::string& item) {
    return item == "default" ? std::optional<double>(-1.0) : parse_rate(item);
  };
  const auto ring = [](const std::string& item) {
    return item == "default" ? std::optional<int>(-1) : parse_integer(item, 1, kIntMax);
  };
  // "none" is the scenario-less axis value; a file that fails to load names
  // its problem.
  const Setter scenarios = [&o](const std::string& flag, const std::vector<std::string>& list) {
    std::vector<scenario::Timeline> timelines;
    for (const auto& item : split_list(list.front())) {
      try {
        timelines.push_back(item == "none" ? scenario::Timeline{}
                                           : scenario::load_timeline(item));
      } catch (const std::exception& e) {
        return "bad " + flag + " entry: " + e.what();
      }
    }
    if (timelines.empty()) return bad_value(flag + " list", list.front(), "'none' or timelines");
    o.grid.scenarios = std::move(timelines);
    return std::string();
  };
  const Setter perf = [&o](const std::string&, const std::vector<std::string>&) {
    o.grid.telemetry.enabled = o.grid.telemetry.perf_enabled = true;
    return std::string();
  };
  const Setter quick = [&o](const std::string&, const std::vector<std::string>&) {
    o.grid.duration_sec = 2.0;
    o.grid.repeats = 2;
    return std::string();
  };
  auto& g = o.grid;
  const FlagGroup axes{"grid axes (comma-separated lists; every combination is one cell):", {
    {{"--kernels"}, "LIST", "e.g. 5.15,6.5,6.8",
     set_list(g.kernels, parse_kernel, "5.10, 5.15, 6.5, 6.8 or 6.11")},
    {{"--paths"}, "LIST", "e.g. LAN,WAN 63ms  (empty item = testbed LAN)",
     set_list(g.paths, [](const std::string& path) { return path; }, "path names")},
    {{"--streams"}, "LIST", "iperf -P values, e.g. 1,8,16",
     set_list(g.streams, [](const std::string& n) { return parse_integer(n, 1, 128); },
              "whole numbers in [1, 128]")},
    {{"--pacing"}, "LIST", "per-stream fq rates, e.g. 0,20G,50G (0 = unpaced)",
     set_list(g.pacing_gbps, gbps, "rates, e.g. 0,20G,50G")},
    {{"--zerocopy"}, "LIST", "0,1", set_list(g.zerocopy, bit, "0/1")},
    {{"--optmem"}, "LIST", "bytes or 'default', e.g. default,1M",
     set_list(g.optmem_max, bytes, "'default' or byte counts")},
    {{"--big-tcp"}, "LIST", "0,1", set_list(g.big_tcp, bit, "0/1")},
    {{"--ring"}, "LIST", "descriptors or 'default', e.g. default,8192",
     set_list(g.ring, ring, "'default' or whole numbers in [1, " + std::to_string(kIntMax) + "]")},
    {{"--scenarios"}, "LIST",
     "timeline JSON files or 'none', e.g.\nnone,scenarios/link_flap.json (docs/SCENARIO.md)",
     scenarios}}};
  const FlagGroup constants{"grid constants:", {
    {{"--name"}, "S", "campaign name (default 'campaign')", set_text(g.name)},
    {{"--testbed"}, "NAME", "amlight | amlight-baremetal | esnet | production",
     set_text(g.testbed)},
    {{"--congestion"}, "A", "cubic | bbr | bbr3 | reno",
     set_value(g.congestion, parse_congestion, "cubic, bbr, bbr3 or reno")},
    {{"--skip-rx-copy"}, "", "MSG_TRUNC receives in every cell", set_true(g.skip_rx_copy)},
    {{"--time"}, "SEC", "per-run duration (default 60)", set_seconds(g.duration_sec)},
    {{"--repeats"}, "N", "harness repeats per cell (default 10)", set_whole(g.repeats, 1, kIntMax)},
    {{"--seed"}, "N", "campaign base seed (cell seeds derive from it)",
     set_whole(g.base_seed, 0, std::numeric_limits<std::uint64_t>::max())},
    {{"--quick"}, "",
     "smoke preset: --time 2 --repeats 2; a later\n--time or --repeats overrides it", quick}}};
  const FlagGroup execution{"execution (docs/SWEEP.md):", {
    {{"--jobs"}, "N", "at most N threads (default 1; 0 = usable CPUs)",
     set_whole(o.run.jobs, 0, kIntMax)},
    {{"--cache"}, "DIR", "content-addressed result cache directory", set_text(o.run.cache_dir)},
    {{"--out"}, "FILE", "JSONL row per finished cell", set_text(o.run.results_path)},
    {{"--resume"}, "", "with --out: skip the cells FILE has rows for", set_true(o.run.resume)},
    {{"--telemetry"}, "",
     "interval probes in every cell (rows gain dip/\nrecovery columns with --scenarios; uncached)",
     set_true(g.telemetry.enabled)},
    {{"--perf"}, "", "cycle attribution in every cell; rows gain\ncycles/byte; implies --telemetry",
     perf},
    {{"--report"}, "FILE", "summary table of a finished campaign's\nJSONL stream (no simulation)",
     set_text(o.report_path)},
    {{"--plot-out"}, "BASE", "with --report: also write BASE.gp + BASE.dat",
     set_text(o.plot_out)},
    {{"-h", "--help"}, "", "print this help and exit", set_true(o.show_help)}}};
  const FlagGroup cache{"cache maintenance:", {
    {{"--gc"}, "", "garbage-collect the --cache directory and exit", set_true(o.gc)},
    {{"--max-age-days"}, "D", "with --gc: evict entries older than D days",
     set_value(o.gc_opts.max_age_days, parse_days, "a number of days >= 0")},
    {{"--salt-mismatch"}, "", "with --gc: evict other schemas' and unreadable\nentries",
     set_true(o.gc_opts.salt_mismatch)},
    {{"--dry-run"}, "", "with --gc: report what would go, delete nothing",
     set_true(o.gc_opts.dry_run)}}};
  return {"dtnsim-sweep — parallel campaign engine over the dtnsim harness",
          {axes, constants, execution, cache},
          nullptr};
}

}  // namespace

SweepCli parse_sweep_cli(const std::vector<std::string>& args) {
  SweepCli o;
  o.error = cli::parse_args(sweep_grammar(o), args);
  return o;
}

namespace {

// `dtnsim-sweep --report results.jsonl`: re-render a finished campaign's
// streamed rows as the paper-style summary table, offline.
// Two passes over the rows: the first discovers which optional columns any
// row carries (cycles/byte from --perf, dip/recovery from --telemetry +
// --scenarios), the second renders the table with exactly those columns.
int render_campaign_report(const std::string& path, const std::vector<Json>& rows,
                           std::string& output) {
  if (rows.empty()) {
    output = strfmt("error: %s holds no result rows\n", path.c_str());
    return 2;
  }
  bool has_perf = false, has_dip = false;
  for (const Json& doc : rows) {
    if (doc.find("tx_cyc_per_byte")) has_perf = true;
    if (doc.find("dip_gbps")) has_dip = true;
  }

  std::size_t cached = 0;
  std::string table;
  table += strfmt("  %4s %-44s %16s %7s %7s %8s %4s %4s", "idx", "cell",
                  "Gbps (avg±sd)", "min", "max", "retrans", "TX%", "RX%");
  if (has_perf) table += strfmt(" %8s %8s", "tx cyc/B", "rx cyc/B");
  if (has_dip) table += strfmt(" %8s %7s %6s", "dip Gbps", "rec s", "kept%");
  table += '\n';
  for (const Json& doc : rows) {
    if (doc.bool_at("cached", false)) ++cached;
    // The row's name is the full spec label; coords alone are shorter but
    // the label is what the live campaign output prints.
    table += strfmt("  %4.0f %-44s %8.2f ± %5.2f %7.2f %7.2f %8.0f %4.0f %4.0f",
                    doc.number_at("index", -1),
                    doc.string_at("name", "?").c_str(),
                    doc.number_at("avg_gbps", 0), doc.number_at("stdev_gbps", 0),
                    doc.number_at("min_gbps", 0), doc.number_at("max_gbps", 0),
                    doc.number_at("avg_retransmits", 0),
                    doc.number_at("snd_cpu_pct", 0),
                    doc.number_at("rcv_cpu_pct", 0));
    if (has_perf) {
      if (doc.find("tx_cyc_per_byte")) {
        table += strfmt(" %8.2f %8.2f", doc.number_at("tx_cyc_per_byte", 0),
                        doc.number_at("rx_cyc_per_byte", 0));
      } else {
        table += strfmt(" %8s %8s", "-", "-");
      }
    }
    if (has_dip) {
      if (doc.find("dip_gbps")) {
        const double rec_sec = doc.number_at("recovery_sec", -1);
        table += strfmt(" %8.2f", doc.number_at("dip_gbps", 0));
        table += rec_sec < 0 ? strfmt(" %7s", "never")
                             : strfmt(" %7.1f", rec_sec);
        table += strfmt(" %6.0f", 100.0 * doc.number_at("retained", 0));
      } else {
        table += strfmt(" %8s %7s %6s", "-", "-", "-");
      }
    }
    table += '\n';
  }
  output = strfmt("campaign report: %s (%zu rows, %zu cached)\n", path.c_str(), rows.size(),
                  cached);
  output += table;
  return 0;
}

}  // namespace

int run_sweep_cli(const SweepCli& cli, std::string& output) {
  if (!cli.error.empty() || cli.show_help) {
    SweepCli unused;
    output = cli::usage(sweep_grammar(unused), cli.error);
    return cli.error.empty() ? 0 : 2;
  }
  if (!cli.report_path.empty()) {
    const auto rows = read_jsonl(cli.report_path);
    if (!rows) {
      output = strfmt("error: cannot read %s\n", cli.report_path.c_str());
      return 2;
    }
    const int code = render_campaign_report(cli.report_path, *rows, output);
    if (code != 0) return code;
    if (!cli.plot_out.empty()) {
      // Rows carry spec labels, not the campaign name; the stream path is
      // the most recognizable figure title available offline.
      const std::string failed = report::write_figure(
          cli.plot_out, report::campaign_figure(cli.report_path, *rows));
      if (!failed.empty()) {
        output += strfmt("error: cannot write %s\n", failed.c_str());
        return 1;
      }
      output += strfmt("plot: %s.gp + %s.dat (render with: %s)\n", cli.plot_out.c_str(),
                       cli.plot_out.c_str(), report::render_command(cli.plot_out).c_str());
    }
    return 0;
  }
  if (!cli.plot_out.empty()) {
    output = "error: --plot-out needs --report FILE (rows to plot)\n";
    return 2;
  }
  if (cli.gc) {
    if (cli.run.cache_dir.empty()) {
      output = "error: --gc needs --cache DIR\n";
      return 2;
    }
    if (cli.gc_opts.max_age_days < 0 && !cli.gc_opts.salt_mismatch) {
      output = "error: --gc needs --max-age-days and/or --salt-mismatch\n";
      return 2;
    }
    try {
      const ResultCache cache(cli.run.cache_dir);
      const GcReport gc = cache.gc(cli.gc_opts);
      output = strfmt(
          "cache gc: %s%s\n"
          "  scanned  : %zu entries\n"
          "  evicted  : %zu (%.1f KiB%s)\n"
          "  kept     : %zu\n",
          cli.run.cache_dir.c_str(), gc.dry_run ? " (dry run)" : "", gc.scanned,
          gc.evicted, static_cast<double>(gc.reclaimed_bytes) / 1024.0,
          gc.dry_run ? " would be reclaimed" : " reclaimed", gc.kept);
      return 0;
    } catch (const std::exception& e) {
      output = strfmt("error: %s\n", e.what());
      return 2;
    }
  }

  CampaignReport report;
  try {
    report = run_campaign(cli.grid, cli.run);
  } catch (const std::exception& e) {
    output = strfmt("error: %s\n", e.what());
    return 2;
  }

  output = strfmt("campaign '%s': %zu cells, jobs=%d\n", report.name.c_str(),
                  report.total, report.jobs);
  for (const auto& cell : report.cells) {
    const char* tag = cell.resumed ? " [resumed]" : cell.cached ? " [cached]" : "";
    output += strfmt("  #%03zu %-56s %7.2f ± %5.2f Gbps%s\n", cell.index,
                     cell.result.name.c_str(), cell.result.avg_gbps, cell.result.stdev_gbps,
                     tag);
  }
  output += strfmt(
      "summary: total=%zu simulated=%zu cached=%zu resumed=%zu\n"
      "wall=%.2fs occupancy=%.0f%%\n",
      report.total, report.simulated, report.cached, report.resumed, report.wall_sec,
      report.worker_occupancy * 100.0);
  return 0;
}

}  // namespace dtnsim::sweep

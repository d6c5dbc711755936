#include "dtnsim/sweep/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/report/analysis.hpp"
#include "dtnsim/report/record.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/pool.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

// Seconds on a monotonic clock. Wall time and occupancy are reporting-only;
// results stay seed-deterministic (tests/link_audit.py allows this read).
double now_sec() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

// Fingerprint of the expanded grid: hashes every cell's content address, so
// any change to any knob, axis value or ordering-relevant property shows up.
std::string grid_fingerprint(const std::vector<CellOutcome>& cells) {
  std::string text(kCacheSalt);
  for (const auto& cell : cells) {
    text += '\n';
    text += cell.key_hex;
  }
  return key_hex(fnv1a64(text));
}

Json row_json(const CellOutcome& out, const std::string& spec_name) {
  const auto& r = out.result;
  Json j = wire::to_json(static_cast<const report::RunSummary&>(r));
  j["index"] = static_cast<std::int64_t>(out.index);
  j["key"] = out.key_hex;
  j["name"] = spec_name;
  Json coords = Json::object();
  for (const auto& [axis, value] : out.coords) coords[axis] = value;
  j["coords"] = std::move(coords);
  j["cached"] = out.cached;
  j["repeats"] = r.repeats;
  // Telemetry extras, presence-driven: --report grows the matching columns
  // only when some row carries them. Cached rows never have them (cells
  // with telemetry enabled bypass the result cache).
  if (!r.perf_log.empty()) {
    j["tx_cyc_per_byte"] = r.perf_log.back().tx_cyc_per_byte();
    j["rx_cyc_per_byte"] = r.perf_log.back().rx_cyc_per_byte();
  }
  if (!r.repeat_series.empty()) {
    const obs::SeriesTable& series = r.repeat_series.front();
    const std::string col = report::goodput_column(series);
    const auto window = report::episode_window(r.scenario_log);
    if (!col.empty() && window) {
      const report::RecoveryStats rec =
          report::analyze_recovery(series, col, window->first, window->second);
      j["baseline_gbps"] = rec.baseline.gbps();
      j["dip_gbps"] = rec.dip.gbps();
      j["recovery_sec"] = rec.recovered ? rec.recovery.seconds() : -1.0;
      j["retained"] = rec.retained();
    }
  }
  return j;
}

struct Checkpoint {
  std::string grid;            // fingerprint from the header line
  std::size_t cells = 0;       // grid size from the header line
  std::set<std::string> done_keys;
};

// Parse an existing manifest; nullopt when the file does not exist.
// Truncated trailing lines (killed mid-write) are ignored.
std::optional<Checkpoint> read_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Checkpoint ckpt;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = Json::parse(line);
    if (!doc) continue;  // torn final line from an interrupt
    if (!have_header) {
      ckpt.grid = doc->string_at("grid", "");
      ckpt.cells = static_cast<std::size_t>(doc->number_at("cells", 0));
      have_header = true;
      continue;
    }
    const std::string key = doc->string_at("key", "");
    if (!key.empty()) ckpt.done_keys.insert(key);
  }
  if (!have_header) return std::nullopt;
  return ckpt;
}

// An append-or-truncate line stream that flushes after every line, so the
// manifest and the results stream survive a kill between cells. Appending
// to a file whose last line a kill cut short first ends that line, so the
// fragment stays a torn line of its own and the new lines still parse.
class LineWriter {
 public:
  LineWriter(const std::string& path, bool append) {
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
  bool enabled() const { return out_.is_open(); }
  void line(const std::string& text) {
    if (!out_.is_open()) return;
    out_ << text << '\n';
    out_.flush();
  }

 private:
  std::ofstream out_;
};

}  // namespace

CampaignReport run_campaign(const GridSpec& grid, const CampaignOptions& opts) {
  const double t0 = now_sec();
  if (opts.resume && opts.results_path.empty()) {
    throw std::invalid_argument(
        "sweep resume: the manifest lives at <out>.ckpt, so resuming needs the "
        "results stream path (--out FILE)");
  }
  const std::vector<Cell> cells = expand(grid);  // throws on a malformed grid

  CampaignReport report;
  report.name = grid.name;
  report.total = cells.size();
  report.jobs = std::min(resolve_jobs(opts.jobs), resolve_jobs(0));
  report.cells.resize(cells.size());
  // Each cell's content address, hashed once in expand(): the fingerprint,
  // the resume check, the rows, the manifest lines and the cache read it.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellOutcome& out = report.cells[i];
    out.index = i;
    out.key_hex = key_hex(cells[i].key);
    out.coords = cells[i].coords;
  }

  // Resume: collect the keys the manifest says are complete.
  const std::string fingerprint = grid_fingerprint(report.cells);
  const std::string manifest_path = opts.results_path.empty() ? "" : opts.results_path + ".ckpt";
  std::set<std::string> done_keys;
  bool appending = false;
  if (opts.resume) {
    if (auto ckpt = read_checkpoint(manifest_path)) {
      if (ckpt->grid != fingerprint || ckpt->cells != cells.size()) {
        throw std::runtime_error(strfmt(
            "sweep resume: checkpoint %s was written for a different grid "
            "(fingerprint %s vs %s) — refusing to mix campaigns",
            manifest_path.c_str(), ckpt->grid.c_str(), fingerprint.c_str()));
      }
      done_keys = std::move(ckpt->done_keys);
      appending = true;  // keep prior rows; append the rest
    }
  }

  std::unique_ptr<ResultCache> cache;
  if (!opts.cache_dir.empty()) cache = std::make_unique<ResultCache>(opts.cache_dir);

  LineWriter results(opts.results_path, appending);
  LineWriter manifest(manifest_path, appending);
  if (manifest.enabled() && !appending) {
    Json header = Json::object();
    header["schema"] = std::string(kCacheSalt);
    header["campaign"] = grid.name;
    header["grid"] = fingerprint;
    header["cells"] = static_cast<std::int64_t>(cells.size());
    manifest.line(header.dump());
  }

  // Metrics registered up front so export order is stable.
  obs::Gauge* m_total = nullptr;
  obs::Counter* m_done = nullptr;
  obs::Counter* m_cached = nullptr;
  obs::Counter* m_simulated = nullptr;
  obs::Counter* m_resumed = nullptr;
  obs::Gauge* m_jobs = nullptr;
  obs::Gauge* m_wall = nullptr;
  obs::Gauge* m_occupancy = nullptr;
  if (opts.metrics) {
    m_total = opts.metrics->gauge("sweep.cells_total", "cells", "grid size");
    m_done = opts.metrics->counter("sweep.cells_done", "cells",
                                   "cells completed this invocation");
    m_cached = opts.metrics->counter("sweep.cells_cached", "cells",
                                     "cells served from the result cache");
    m_simulated = opts.metrics->counter("sweep.cells_simulated", "cells",
                                        "cells that ran the simulator");
    m_resumed = opts.metrics->counter("sweep.cells_resumed", "cells",
                                      "cells skipped via the checkpoint manifest");
    m_jobs = opts.metrics->gauge("sweep.jobs", "threads", "most threads running cells");
    m_wall = opts.metrics->gauge("sweep.wall_sec", "s", "campaign wall time");
    m_occupancy = opts.metrics->gauge("sweep.worker_occupancy", "frac",
                                      "summed cell busy time / (jobs * wall)");
    m_total->set(static_cast<double>(cells.size()));
    m_jobs->set(static_cast<double>(report.jobs));
  }

  // Cells the manifest marks done are set aside and re-served from the
  // cache when possible; the rest run on the shared pool.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellOutcome& out = report.cells[i];
    if (!done_keys.contains(out.key_hex)) {
      todo.push_back(i);
      continue;
    }
    out.resumed = true;
    out.done = true;
    ++report.resumed;
    if (m_resumed) m_resumed->increment();
    if (cache && cache->load(cells[i].key, cells[i].spec.name, &out.result)) out.cached = true;
  }

  std::mutex io_mu;  // serializes row/manifest writes, counters, busy time
  double busy_sec = 0.0;
  parallel_for(todo.size(), report.jobs, [&](std::size_t k) {
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
      if (m_cached) m_cached->increment();
    } else {
      ++report.simulated;
      if (m_simulated) m_simulated->increment();
    }
    if (m_done) m_done->increment();
    // Result row first, then the manifest line: a cell is only ever
    // marked done after its row is on disk.
    results.line(row_json(out, cell.spec.name).dump());
    Json done = Json::object();
    done["index"] = static_cast<std::int64_t>(out.index);
    done["key"] = out.key_hex;
    manifest.line(done.dump());
    busy_sec += now_sec() - start;
  });

  report.wall_sec = now_sec() - t0;
  report.worker_occupancy =
      report.wall_sec > 0 ? busy_sec / (static_cast<double>(report.jobs) * report.wall_sec) : 0.0;
  if (opts.metrics) {
    m_wall->set(report.wall_sec);
    m_occupancy->set(report.worker_occupancy);
  }
  return report;
}

// ---- dtnsim-sweep command line ------------------------------------------

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(text);
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

bool parse_bool_list(const std::string& text, std::vector<bool>* out) {
  std::vector<bool> values;
  for (const auto& item : split_list(text)) {
    if (item == "0") values.push_back(false);
    else if (item == "1") values.push_back(true);
    else return false;
  }
  if (values.empty()) return false;
  *out = values;
  return true;
}

// Whole-token integers in [lo, hi], or the word "default" (-> -1).
bool parse_int_list(const std::string& text, std::vector<int>* out, int lo, int hi,
                    bool allow_default) {
  std::vector<int> values;
  for (const auto& item : split_list(text)) {
    if (allow_default && item == "default") {
      values.push_back(-1);
      continue;
    }
    const auto v = cli::parse_integer(item, lo, hi);
    if (!v) return false;
    values.push_back(*v);
  }
  if (values.empty()) return false;
  *out = values;
  return true;
}

// Rates with suffixes ("50G") or the word "default" (-> -1).
bool parse_rate_list(const std::string& text, std::vector<double>* out,
                     bool allow_default) {
  std::vector<double> values;
  for (const auto& item : split_list(text)) {
    if (allow_default && item == "default") {
      values.push_back(-1.0);
      continue;
    }
    const auto rate = cli::parse_rate(item);
    if (!rate) return false;
    values.push_back(*rate);
  }
  if (values.empty()) return false;
  *out = values;
  return true;
}

bool needs_value(const std::string& flag) {
  return flag == "--name" || flag == "--testbed" || flag == "--kernels" ||
         flag == "--paths" || flag == "--streams" || flag == "--pacing" ||
         flag == "--zerocopy" || flag == "--optmem" || flag == "--big-tcp" ||
         flag == "--ring" || flag == "--congestion" || flag == "--time" ||
         flag == "--repeats" || flag == "--seed" || flag == "--jobs" ||
         flag == "--cache" || flag == "--out" || flag == "--report" ||
         flag == "--scenarios" || flag == "--max-age-days" || flag == "--plot-out";
}

}  // namespace

SweepCli parse_sweep_cli(const std::vector<std::string>& args) {
  SweepCli o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    bool has_inline_value = false;
    if (flag.rfind("--", 0) == 0) {
      const std::size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        value = flag.substr(eq + 1);
        flag = flag.substr(0, eq);
        has_inline_value = true;
      }
    }
    if (needs_value(flag) && !has_inline_value) {
      if (i + 1 >= args.size()) {
        o.error = "missing value for " + flag;
        return o;
      }
      value = args[++i];
    } else if (has_inline_value && !needs_value(flag)) {
      o.error = "flag does not take a value: " + flag;
      return o;
    }

    // Stores the flag's whole-token integer in `out`, or sets o.error naming
    // the flag.
    const auto take_integer = [&](auto& out, auto lo, auto hi) {
      const auto n = cli::parse_integer(value, lo, hi);
      if (!n) {
        o.error = "bad " + flag + ": " + value + " (want a whole number in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "])";
      }
      out = n.value_or(out);
      return n.has_value();
    };
    constexpr int kIntMax = std::numeric_limits<int>::max();

    if (flag == "-h" || flag == "--help") {
      o.show_help = true;
    } else if (flag == "--name") {
      o.grid.name = value;
    } else if (flag == "--testbed") {
      o.grid.testbed = value;
    } else if (flag == "--kernels") {
      o.grid.kernels.clear();
      for (const auto& item : split_list(value)) {
        const auto k = cli::parse_kernel(item);
        if (!k) {
          o.error = "unknown kernel in --kernels: " + item;
          return o;
        }
        o.grid.kernels.push_back(*k);
      }
      if (o.grid.kernels.empty()) {
        o.error = "--kernels list is empty";
        return o;
      }
    } else if (flag == "--paths") {
      o.grid.paths = split_list(value);
      if (o.grid.paths.empty()) {
        o.error = "--paths list is empty";
        return o;
      }
    } else if (flag == "--streams") {
      if (!parse_int_list(value, &o.grid.streams, 1, 128, /*allow_default=*/false)) {
        o.error = "bad --streams list: " + value + " (want whole numbers in [1, 128])";
        return o;
      }
    } else if (flag == "--pacing") {
      std::vector<double> bps;
      if (!parse_rate_list(value, &bps, /*allow_default=*/false)) {
        o.error = "bad --pacing list: " + value;
        return o;
      }
      o.grid.pacing_gbps.clear();
      for (const double b : bps) o.grid.pacing_gbps.push_back(b / 1e9);
    } else if (flag == "--zerocopy") {
      if (!parse_bool_list(value, &o.grid.zerocopy)) {
        o.error = "bad --zerocopy list (0/1): " + value;
        return o;
      }
    } else if (flag == "--optmem") {
      if (!parse_rate_list(value, &o.grid.optmem_max, /*allow_default=*/true)) {
        o.error = "bad --optmem list: " + value;
        return o;
      }
    } else if (flag == "--big-tcp") {
      if (!parse_bool_list(value, &o.grid.big_tcp)) {
        o.error = "bad --big-tcp list (0/1): " + value;
        return o;
      }
    } else if (flag == "--ring") {
      if (!parse_int_list(value, &o.grid.ring, 1, kIntMax, /*allow_default=*/true)) {
        o.error = "bad --ring list: " + value +
                  " (want 'default' or whole numbers in [1, " + std::to_string(kIntMax) + "])";
        return o;
      }
    } else if (flag == "--scenarios") {
      // Comma list of timeline JSON files; the word "none" is the empty
      // (scenario-less) axis value.
      o.grid.scenarios.clear();
      for (const auto& item : split_list(value)) {
        if (item == "none") {
          o.grid.scenarios.emplace_back();
          continue;
        }
        try {
          o.grid.scenarios.push_back(scenario::load_timeline(item));
        } catch (const std::exception& e) {
          o.error = std::string("bad --scenarios entry: ") + e.what();
          return o;
        }
      }
      if (o.grid.scenarios.empty()) {
        o.error = "--scenarios list is empty";
        return o;
      }
    } else if (flag == "--congestion") {
      const auto algo = cli::parse_congestion(value);
      if (!algo) {
        o.error = "unknown congestion algorithm: " + value;
        return o;
      }
      o.grid.congestion = *algo;
    } else if (flag == "--skip-rx-copy") {
      o.grid.skip_rx_copy = true;
    } else if (flag == "--time") {
      const auto sec = cli::parse_seconds(value);
      if (!sec) {
        o.error = "bad --time: " + value + " (want finite seconds > 0, below ~292 years)";
        return o;
      }
      o.grid.duration_sec = *sec;
    } else if (flag == "--repeats") {
      if (!take_integer(o.grid.repeats, 1, kIntMax)) return o;
    } else if (flag == "--seed") {
      if (!take_integer(o.grid.base_seed, std::uint64_t{0},
                        std::numeric_limits<std::uint64_t>::max())) {
        return o;
      }
    } else if (flag == "--jobs") {
      // 0 = one thread per usable CPU.
      if (!take_integer(o.run.jobs, 0, kIntMax)) return o;
    } else if (flag == "--cache") {
      o.run.cache_dir = value;
    } else if (flag == "--out") {
      o.run.results_path = value;
    } else if (flag == "--resume") {
      o.run.resume = true;
    } else if (flag == "--report") {
      o.report_path = value;
    } else if (flag == "--plot-out") {
      o.plot_out = value;
    } else if (flag == "--telemetry") {
      o.grid.telemetry.enabled = true;
    } else if (flag == "--perf") {
      o.grid.telemetry.enabled = true;
      o.grid.telemetry.perf_enabled = true;
    } else if (flag == "--quick") {
      o.quick = true;
    } else if (flag == "--gc") {
      o.gc = true;
    } else if (flag == "--max-age-days") {
      char* end = nullptr;
      const double days = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() || !(days >= 0)) {
        o.error = "bad --max-age-days (need >= 0): " + value;
        return o;
      }
      o.gc_opts.max_age_days = days;
    } else if (flag == "--salt-mismatch") {
      o.gc_opts.salt_mismatch = true;
    } else if (flag == "--dry-run") {
      o.gc_opts.dry_run = true;
    } else {
      o.error = "unknown flag: " + flag;
      return o;
    }
  }
  if (o.quick) {
    o.grid.duration_sec = 2.0;
    o.grid.repeats = 2;
  }
  return o;
}

std::string sweep_cli_help() {
  return
      "dtnsim-sweep — parallel campaign engine over the dtnsim harness\n"
      "\n"
      "grid axes (comma-separated lists; every combination is one cell):\n"
      "      --kernels LIST     e.g. 5.15,6.5,6.8\n"
      "      --paths LIST       e.g. LAN,WAN 63ms  (empty item = testbed LAN)\n"
      "      --streams LIST     iperf -P values, e.g. 1,8,16\n"
      "      --pacing LIST      per-stream fq rates, e.g. 0,20G,50G (0 = unpaced)\n"
      "      --zerocopy LIST    0,1\n"
      "      --optmem LIST      bytes or 'default', e.g. default,1M\n"
      "      --big-tcp LIST     0,1\n"
      "      --ring LIST        descriptors or 'default', e.g. default,8192\n"
      "      --scenarios LIST   timeline JSON files or 'none', e.g.\n"
      "                         none,scenarios/link_flap.json (docs/SCENARIO.md)\n"
      "grid constants:\n"
      "      --name S           campaign name (default 'campaign')\n"
      "      --testbed NAME     amlight | amlight-baremetal | esnet | production\n"
      "      --congestion A     cubic | bbr | bbr3 | reno\n"
      "      --skip-rx-copy     MSG_TRUNC receives in every cell\n"
      "      --time SEC         per-run duration (default 60)\n"
      "      --repeats N        harness repeats per cell (default 10)\n"
      "      --seed N           campaign base seed (cell seeds derive from it)\n"
      "      --quick            smoke preset: --time 2 --repeats 2\n"
      "execution (docs/SWEEP.md):\n"
      "      --jobs N           at most N threads (default 1; 0 = usable CPUs)\n"
      "      --cache DIR        content-addressed result cache directory\n"
      "      --out FILE         stream one JSONL row per finished cell, and\n"
      "                         keep the manifest of done cells at FILE.ckpt\n"
      "      --resume           with --out: skip cells the manifest marks\n"
      "                         complete\n"
      "      --telemetry        attach interval probes to every cell; with\n"
      "                         --scenarios the rows gain dip/recovery columns\n"
      "                         (telemetry cells bypass the result cache)\n"
      "      --perf             cycle attribution in every cell; rows gain\n"
      "                         cycles/byte columns (implies --telemetry)\n"
      "      --report FILE      render the summary table from a finished\n"
      "                         campaign's JSONL stream (no simulation);\n"
      "                         cycles/byte and dip/recovery columns appear\n"
      "                         when the rows carry them\n"
      "      --plot-out BASE    with --report: also write BASE.gp + BASE.dat\n"
      "                         (figure-ready gnuplot) from the same rows\n"
      "cache maintenance:\n"
      "      --gc               garbage-collect the --cache directory and exit\n"
      "      --max-age-days D   with --gc: evict entries older than D days\n"
      "      --salt-mismatch    with --gc: evict entries from other schema\n"
      "                         versions (and unreadable entries)\n"
      "      --dry-run          with --gc: report what would go, delete nothing\n";
}

namespace {

// Parse a campaign JSONL stream into rows; torn trailing lines (killed
// mid-write) are skipped. Empty result + false on an unreadable file.
bool read_campaign_rows(const std::string& path, std::vector<Json>* rows) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = Json::parse(line);
    if (!doc) continue;  // torn final line from an interrupt
    rows->push_back(std::move(*doc));
  }
  return true;
}

// `dtnsim-sweep --report results.jsonl`: re-render a finished campaign's
// streamed rows as the paper-style summary table, offline. Rows whose cells
// were served from a prior output (repeats == 0) are counted but not shown.
// Two passes over the rows: the first discovers which optional columns any
// row carries (cycles/byte from --perf, dip/recovery from --telemetry +
// --scenarios), the second renders the table with exactly those columns.
int render_campaign_report(const std::string& path, const std::vector<Json>& rows,
                           std::string& output) {
  bool has_perf = false, has_dip = false;
  for (const Json& doc : rows) {
    if (doc.find("tx_cyc_per_byte")) has_perf = true;
    if (doc.find("dip_gbps")) has_dip = true;
  }

  std::string name;
  std::size_t shown = 0, cached = 0, skipped = 0;
  std::string table;
  table += strfmt("  %4s %-44s %16s %7s %7s %8s %4s %4s", "idx", "cell",
                  "Gbps (avg±sd)", "min", "max", "retrans", "TX%", "RX%");
  if (has_perf) table += strfmt(" %8s %8s", "tx cyc/B", "rx cyc/B");
  if (has_dip) table += strfmt(" %8s %7s %6s", "dip Gbps", "rec s", "kept%");
  table += '\n';
  for (const Json& doc : rows) {
    if (name.empty()) name = doc.string_at("name", "");
    if (doc.bool_at("cached", false)) ++cached;
    if (doc.number_at("repeats", 0) <= 0) {
      ++skipped;  // resumed cell whose result lives in a prior stream
      continue;
    }
    ++shown;
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
  if (shown + skipped == 0) {
    output = strfmt("error: %s holds no result rows\n", path.c_str());
    return 2;
  }
  output = strfmt("campaign report: %s (%zu rows, %zu cached", path.c_str(),
                  shown + skipped, cached);
  if (skipped > 0) output += strfmt(", %zu in prior streams", skipped);
  output += ")\n" + table;
  return 0;
}

}  // namespace

int run_sweep_cli(const SweepCli& cli, std::string& output) {
  if (!cli.error.empty()) {
    output = "error: " + cli.error + "\n\n" + sweep_cli_help();
    return 2;
  }
  if (cli.show_help) {
    output = sweep_cli_help();
    return 0;
  }
  if (!cli.report_path.empty()) {
    std::vector<Json> rows;
    if (!read_campaign_rows(cli.report_path, &rows)) {
      output = strfmt("error: cannot read %s\n", cli.report_path.c_str());
      return 2;
    }
    const int code = render_campaign_report(cli.report_path, rows, output);
    if (code != 0) return code;
    if (!cli.plot_out.empty()) {
      // Rows carry spec labels, not the campaign name; the stream path is
      // the most recognizable figure title available offline.
      if (!report::write_campaign_plot(cli.plot_out, cli.report_path, rows)) {
        output += strfmt("error: cannot write plot to %s.{gp,dat}\n",
                         cli.plot_out.c_str());
        return 1;
      }
      output += strfmt("plot: %s.gp + %s.dat (render with: gnuplot %s.gp)\n",
                       cli.plot_out.c_str(), cli.plot_out.c_str(),
                       cli.plot_out.c_str());
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
    if (cell.result.repeats > 0) {
      output += strfmt("  #%03zu %-56s %7.2f ± %5.2f Gbps%s\n", cell.index,
                       cell.result.name.c_str(), cell.result.avg_gbps,
                       cell.result.stdev_gbps, tag);
    } else {
      output += strfmt("  #%03zu (result in prior output; not cached)%s\n",
                       cell.index, tag);
    }
  }
  output += strfmt(
      "summary: total=%zu simulated=%zu cached=%zu resumed=%zu\n"
      "wall=%.2fs occupancy=%.0f%%\n",
      report.total, report.simulated, report.cached, report.resumed, report.wall_sec,
      report.worker_occupancy * 100.0);
  return 0;
}

}  // namespace dtnsim::sweep

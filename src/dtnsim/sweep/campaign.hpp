// Campaign engine: run a parameter grid on sweep::parallel_for's shared
// pool, streaming results and a manifest so an interrupted campaign resumes
// where it died.
//
// Execution pipeline per cell:
//   manifest says done?  -> skip (resume), re-emit from cache if possible
//   cache hit?           -> serve the stored result, no simulation
//   otherwise            -> simulate on a pool thread, write-through cache
// As cells finish (in completion order) the engine appends one JSONL row to
// the results stream and one line to the manifest (<results_path>.ckpt),
// flushing both — a kill between cells loses nothing, a kill mid-cell loses
// only that cell. Results returned to the caller are always in cell-index
// order.
//
// sweep.* metrics (cells total/done/cached/simulated/resumed, wall time,
// worker occupancy) land in the caller's obs::Registry when provided.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/grid.hpp"

namespace dtnsim::sweep {

struct CampaignOptions {
  int jobs = 1;  // at most this many threads; 0 = one per usable CPU

  std::string cache_dir;  // "" -> content-addressed result cache disabled

  // JSONL, one row per finished cell; "" disables it. Streaming the rows
  // also keeps the manifest (grid fingerprint + done cells) at
  // "<results_path>.ckpt".
  std::string results_path;

  // Resume a previous run: cells listed in the manifest are not re-run
  // (their results are re-served from the cache when available). Needs
  // results_path. The manifest's grid fingerprint must match; a mismatch
  // throws.
  bool resume = false;

  obs::Registry* metrics = nullptr;  // optional sweep.* registration target
};

struct CellOutcome {
  std::size_t index = 0;
  std::string key_hex;  // content address of the cell's spec
  harness::TestResult result;
  bool done = false;     // result is populated (simulated, cached or resumed)
  bool cached = false;   // served from the result cache
  bool resumed = false;  // the manifest said it was already complete
  std::vector<std::pair<std::string, std::string>> coords;
};

struct CampaignReport {
  std::string name;
  std::vector<CellOutcome> cells;  // one per grid cell, in cell-index order
  std::size_t total = 0;
  std::size_t simulated = 0;  // actually ran the simulator this invocation
  std::size_t cached = 0;     // served from the result cache
  std::size_t resumed = 0;    // skipped because the manifest marked them done
  int jobs = 1;  // most threads running cells: opts.jobs capped at the usable CPUs
  double wall_sec = 0.0;
  double worker_occupancy = 0.0;  // summed cell busy time / (jobs * wall)
};

// Run the campaign. Throws std::invalid_argument for a malformed grid or a
// resume without results_path, and std::runtime_error for unusable
// cache/manifest/results files or a manifest written for another grid.
CampaignReport run_campaign(const GridSpec& grid, const CampaignOptions& opts);

// ---- dtnsim-sweep command line ------------------------------------------
// Parsing lives here (not in the tool binary) so it is unit-testable, the
// same split the iperf3 front end uses.

struct SweepCli {
  bool show_help = false;
  std::string error;  // non-empty -> parse failed
  GridSpec grid;
  CampaignOptions run;
  // Non-empty: render the paper-style summary table from a finished
  // campaign's JSONL results stream (--out file) and exit — no simulation.
  std::string report_path;
  // With --report: also emit figure-ready gnuplot (<base>.gp + <base>.dat)
  // from the same rows (report::campaign_figure).
  std::string plot_out;
  // --gc: garbage-collect the --cache directory and exit — no simulation.
  // Criteria come from --max-age-days / --salt-mismatch, --dry-run previews.
  bool gc = false;
  GcOptions gc_opts;
};

SweepCli parse_sweep_cli(const std::vector<std::string>& args);

// Run and render a text report. Returns a process exit code.
int run_sweep_cli(const SweepCli& cli, std::string& output);

}  // namespace dtnsim::sweep

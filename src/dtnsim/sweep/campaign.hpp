// Campaign engine: run a parameter grid on the worker pool, streaming
// results and checkpoints so an interrupted campaign resumes where it died.
//
// Execution pipeline per cell:
//   checkpoint says done?  -> skip (resume), re-emit from cache if possible
//   cache hit?             -> serve the stored result, no simulation
//   otherwise              -> simulate on a pool worker, write-through cache
// As cells finish (in completion order) the engine appends one JSONL row to
// the results stream and one line to the checkpoint manifest, flushing both
// — a kill between cells loses nothing, a kill mid-cell loses only that
// cell. Results returned to the caller are always in cell-index order.
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
  int jobs = 1;  // worker pool size; 0 = one per usable CPU

  std::string cache_dir;  // "" -> content-addressed result cache disabled

  // Streamed outputs. "" disables each. checkpoint_path defaults to
  // "<results_path>.ckpt" when results are streamed and no explicit
  // manifest path is given.
  std::string results_path;     // JSONL, one row per finished cell
  std::string checkpoint_path;  // manifest: grid fingerprint + done cells

  // Resume a previous run: cells listed in the checkpoint manifest are not
  // re-run (their results are re-served from the cache when available).
  // The manifest's grid fingerprint must match; a mismatch throws.
  bool resume = false;

  // Run at most this many not-yet-done cells this invocation (0 = all).
  // The deterministic "interrupt after k cells" hook used by the resume
  // tests and handy for smoke runs.
  std::size_t max_cells = 0;

  obs::Registry* metrics = nullptr;  // optional sweep.* registration target
};

struct CellOutcome {
  std::size_t index = 0;
  std::string key_hex;  // content address of the cell's spec
  harness::TestResult result;
  bool done = false;     // result is populated (simulated, cached or resumed)
  bool cached = false;   // served from the result cache
  bool resumed = false;  // checkpoint said it was already complete
  std::vector<std::pair<std::string, std::string>> coords;
};

struct CampaignReport {
  std::string name;
  // One entry per grid cell, in cell-index order. Cells beyond max_cells
  // are present with done = false.
  std::vector<CellOutcome> cells;
  std::size_t total = 0;
  std::size_t simulated = 0;  // actually ran the simulator this invocation
  std::size_t cached = 0;     // served from the result cache
  std::size_t resumed = 0;    // skipped because the checkpoint marked them done
  std::size_t pending = 0;    // not attempted (max_cells cutoff)
  int jobs = 1;
  double wall_sec = 0.0;
  double worker_occupancy = 0.0;  // pool busy time / (jobs * wall)
};

// Run the campaign. Throws std::invalid_argument for a malformed grid and
// std::runtime_error for unusable cache/checkpoint/results files.
CampaignReport run_campaign(const GridSpec& grid, const CampaignOptions& opts);

// ---- dtnsim-sweep command line ------------------------------------------
// Parsing lives here (not in the tool binary) so it is unit-testable, the
// same split the iperf3 front end uses.

struct SweepCli {
  bool show_help = false;
  std::string error;  // non-empty -> parse failed
  GridSpec grid;
  CampaignOptions run;
  bool quick = false;  // 2 s x 2 repeats preset for smokes
  // Non-empty: render the paper-style summary table from a finished
  // campaign's JSONL results stream (--out file) and exit — no simulation.
  std::string report_path;
  // With --report: also emit figure-ready gnuplot (<base>.gp + <base>.dat)
  // from the same rows (report::write_campaign_plot).
  std::string plot_out;
  // --gc: garbage-collect the --cache directory and exit — no simulation.
  // Criteria come from --max-age-days / --salt-mismatch, --dry-run previews.
  bool gc = false;
  GcOptions gc_opts;
};

SweepCli parse_sweep_cli(const std::vector<std::string>& args);
std::string sweep_cli_help();

// Run and render a text report. Returns a process exit code.
int run_sweep_cli(const SweepCli& cli, std::string& output);

}  // namespace dtnsim::sweep

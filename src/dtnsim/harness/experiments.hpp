// Registry of the paper's experiments.
//
// Each entry maps a paper artifact (figure/table/ablation) to the list of
// TestSpecs that regenerate it and the claims its results must meet: the
// paper's statements about those cells, written as bands on RunSummary
// columns. `dtnsim-repro` runs any subset by id, prints each cell and a
// PASS/FAIL line per claim, and exports the raw per-repeat data as CSV/JSON
// (the paper releases all of its collected data; so do we).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dtnsim/harness/runner.hpp"

namespace dtnsim::harness {

// One checkable statement about an entry's cells: `column` of cell `of`, or
// its ratio to the same column of cell `over`, lies in [lo, hi]. Ratios also
// express orderings (lo = 1), gains and knees. A cell label the results
// lack, or a ratio over zero, fails the claim.
struct Claim {
  std::string what;  // the paper's statement, in a few words
  std::string of;    // cell label (TestSpec::name)
  std::string over;  // the ratio's denominator cell; "" for a value claim
  double report::RunSummary::*column = &report::RunSummary::avg_gbps;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  // The paper's number for the same quantity; NaN where it prints none.
  double paper = std::numeric_limits<double>::quiet_NaN();
};

struct ClaimResult {
  const Claim* claim = nullptr;  // into the list check_claims was given
  double measured = 0.0;  // NaN when a named cell is missing
  bool pass = false;
};

struct ExperimentDef {
  std::string id;     // "fig5", "table2", "ablation_iommu", ...
  std::string title;  // what the paper calls it
  std::function<std::vector<TestSpec>()> specs;
  std::vector<Claim> claims;  // each names cells of `specs` by label
};

// All registered experiments, in paper order.
const std::vector<ExperimentDef>& experiment_registry();

// Lookup by id; nullptr if unknown.
const ExperimentDef* find_experiment(const std::string& id);

// The column's key in RunSummary's field list, e.g. "avg_gbps".
const char* column_name(double report::RunSummary::*column);

// Evaluate `claims` against `results`, finding cells by TestResult::name.
std::vector<ClaimResult> check_claims(const std::vector<Claim>& claims,
                                      const std::vector<TestResult>& results);

// One line: PASS or FAIL, the statement, the measured value, band and paper
// value, e.g. "PASS  BIG TCP adds up to 16% on the LAN: avg_gbps bigtcp150k
// LAN / default LAN = 1.15, band [1.05, 1.25], paper 1.16".
std::string format_claim(const ClaimResult& result);

struct ExperimentRun {
  std::vector<TestSpec> specs;       // as run
  std::vector<TestResult> results;   // results[i] is specs[i]'s
  std::vector<ClaimResult> claims;   // one per claim, in the entry's order
  bool passed() const;
};

// Run every cell of `def` for `duration_sec` x `repeats` (a cell that pins
// its own repeat count keeps it), with `telemetry` armed on each cell when
// enabled, and check the entry's claims against the results.
ExperimentRun run_experiment(const ExperimentDef& def, double duration_sec, int repeats,
                             const obs::TelemetryConfig& telemetry = {});

}  // namespace dtnsim::harness

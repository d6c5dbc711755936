// Series analysis: the statistics layer every run-level verdict reads from.
//
// bench/scenario_recovery grew the first dip-depth / time-to-recovery
// calculations inline; dtnsim-sweep wants the same columns per campaign
// cell and dtnsim-report wants them per RunRecord, so the math lives here
// once, unit-typed, and everything else calls in. All functions are pure
// reads of a probe SeriesTable (obs/probe.hpp) — the exact artifact every
// telemetry-enabled run already produces — so the analysis of a finished
// run never depends on job count or cell order (byte-identical at --jobs 1
// vs --jobs N).
//
// Definitions (docs/REPORT.md spells out the rationale for each):
//   steady-state stats  mean / p50 / p99 of a bps column over a window
//   baseline            mean goodput over the 10 s before an episode
//   dip depth           minimum goodput during [start, stop], clamped >= 0
//   time to recovery    first sample past `stop` back at >= 90% of baseline,
//                       reported relative to `stop`; "never" is explicit
//   per-flow skew       mean (fastest - slowest stream) over a window
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/obs/probe.hpp"
#include "dtnsim/scenario/scenario.hpp"
#include "dtnsim/units/units.hpp"

namespace dtnsim::report {

// Interpolated percentile of `values` at quantile q in [0, 1] (linear
// between order statistics, the gnuplot/numpy default). 0 on empty input.
double percentile(std::vector<double> values, double q);

// Stats of a bps-valued probe column over the closed window [from, to].
struct SeriesStats {
  std::size_t samples = 0;  // rows of the column inside the window
  units::Rate mean;
  units::Rate p50;
  units::Rate p99;
};
SeriesStats rate_stats(const obs::SeriesTable& series, const std::string& column,
                       units::SimTime from, units::SimTime to);

// What one run's probe series says about an episode in [start, stop] —
// the bench/scenario_recovery calculation, verbatim.
struct RecoveryStats {
  units::Rate baseline;       // mean over the 10 s before the episode
  units::Rate dip;            // minimum during [start, stop], clamped >= 0
  bool recovered = false;     // reached >= 90% of baseline after `stop`
  units::SimTime recovery;    // first such time, relative to `stop`
  std::size_t samples = 0;    // rows considered (baseline + episode windows)

  // Fraction of the baseline retained at the bottom of the dip.
  double retained() const {
    return baseline.bps() > 0.0 ? dip.bps() / baseline.bps() : 0.0;
  }
};
RecoveryStats analyze_recovery(const obs::SeriesTable& series,
                               const std::string& column, units::SimTime start,
                               units::SimTime stop);

// Mean spread between the fastest and slowest stream over [from, to], read
// from the flow.per_flow_{max,min}_bps columns. Zero when either column is
// absent (single-flow runs, packet engine).
units::Rate per_flow_skew(const obs::SeriesTable& series, units::SimTime from,
                          units::SimTime to);

// The episode window an event log implies: [earliest fire, latest end]
// over the applied events (permanent events extend to their fire time).
// nullopt when nothing fired.
std::optional<std::pair<units::SimTime, units::SimTime>> episode_window(
    const scenario::EventLog& log);

// The goodput column this series carries: the fluid or the packet
// engine's goodput_bps (obs::kFluidMetrics / kPacketMetrics); "" when
// neither exists.
std::string goodput_column(const obs::SeriesTable& series);

}  // namespace dtnsim::report

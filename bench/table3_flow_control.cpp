// Table III: ESnet production DTNs, IEEE 802.3x flow control available,
// RTT 63 ms, 8 streams (kernel 5.15).
//
// Paper values:
//   unpaced      : 98 Gbps, 29K retr, per-flow range  9-16 Gbps
//   15 G/stream  : 98 Gbps, 27K retr, per-flow range 10-13 Gbps
//   12 G/stream  : 93 Gbps,  8K retr, per-flow range 11-12 Gbps
//   10 G/stream  : 79 Gbps,  1K retr, per-flow range 10-10 Gbps
// With flow control, pacing reduces retransmits and evens the flows out but
// does not change average throughput — until it undershoots the path.
//
// Ported to the sweep campaign engine: the pacing ladder is one GridSpec
// axis, cells run on the shared pool (at most --jobs N threads), and the
// grid's telemetry knob arms the interval probe for every cell
// (telemetry-enabled cells are never cached, so --cache only matters for
// cache-dir plumbing smokes).
// Cells come back in grid order: cells[i] is the i-th pacing value.
//
// This bench doubles as the per-flow-telemetry demo: the per-flow skew
// gauges (flow.per_flow_range_bps as a time series) show pacing collapsing
// the spread *during* the run, not just in the end-of-run Range column.
// Flags (on top of the shared --jobs/--cache):
//   --quick              1 repeat x 5 s (CI smoke; shape only)
//   --probe-interval S   sampling cadence in seconds (default 1)
//   --metrics-out F      merged per-repeat interval series -> CSV
//   --ss-out F           end-of-run dtnsim-ss snapshot per pacing config
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main(int argc, char** argv) {
  bool quick = false;
  double probe_interval_sec = 1.0;
  std::string metrics_out;
  std::string ss_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--probe-interval") == 0 && i + 1 < argc) {
      probe_interval_sec = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--ss-out") == 0 && i + 1 < argc) {
      ss_out = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 || std::strcmp(argv[i], "--cache") == 0) {
      ++i;  // consumed by parse_bench_campaign_flags
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const std::vector<double> pacing = {0.0, 15.0, 12.0, 10.0};
  sweep::GridSpec grid;
  grid.name = "table3";
  grid.testbed = "production";
  grid.kernels = {kern::KernelVersion::V5_15};
  grid.paths = {"production 63ms"};
  grid.streams = {8};
  grid.pacing_gbps = pacing;
  grid.duration_sec = quick ? 5.0 : 60.0;
  grid.repeats = quick ? 1 : 10;
  grid.telemetry.enabled = true;
  grid.telemetry.probe_interval = units::seconds(probe_interval_sec);
  if (!ss_out.empty()) grid.telemetry.ss_enabled = true;

  print_header("Table III", "ESnet production DTNs, with 802.3x flow control (63 ms)",
               strfmt("8 streams, pacing {unpaced, 15, 12, 10} G/flow, %.0f s x %d",
                      grid.duration_sec, grid.repeats));

  sweep::CampaignOptions run = parse_bench_campaign_flags(argc, argv);
  const auto report = sweep::run_campaign(grid, run);

  const char* paper[] = {"98 / 29K / 9-16", "98 / 27K / 10-13", "93 / 8K / 11-12",
                         "79 / 1K / 10-10"};

  Table table({"Test Config", "Ave Tput", "Retr", "Range", "Skew p50", "paper (tput/retr/range)"});
  std::vector<obs::LabeledSeries> labeled;
  std::vector<double> skew_p50;  // median in-run per-flow spread, per config
  for (std::size_t i = 0; i < pacing.size(); ++i) {
    const double pace = pacing[i];
    const std::string label = pace > 0 ? strfmt("%.0fG/stream", pace) : "unpaced";
    const auto& r = report.cells[i].result;

    // In-run skew: median of the flow.per_flow_range_bps probe series from
    // repeat 0 — pacing should push this down monotonically, live.
    double p50 = 0.0;
    if (!r.repeat_series.empty()) {
      auto range = r.repeat_series[0].column("flow.per_flow_range_bps");
      // Drop leading zeros (slow-start samples before the first full round).
      std::vector<double> nonzero;
      for (double v : range)
        if (v > 0) nonzero.push_back(v);
      if (!nonzero.empty()) {
        std::sort(nonzero.begin(), nonzero.end());
        p50 = nonzero[nonzero.size() / 2];
      }
    }
    skew_p50.push_back(p50);

    for (std::size_t rep = 0; rep < r.repeat_series.size(); ++rep)
      labeled.push_back({label, static_cast<int>(rep), &report.cells[i].result.repeat_series[rep]});

    table.add_row({pace > 0 ? strfmt("%.0f Gbps / stream", pace) : "unpaced",
                   gbps(r.avg_gbps), count(r.avg_retransmits),
                   strfmt("%.0f-%.0f Gbps", r.flow_min_gbps, r.flow_max_gbps),
                   strfmt("%.1f Gbps", units::to_gbps(p50)), paper[i]});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("%s\n", campaign_summary(report).c_str());

  if (!metrics_out.empty()) {
    if (!obs::write_merged_series_csv(metrics_out, labeled)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("interval metrics (incl. per-flow tcp.cwnd_bytes{flow=N} tracks): %s\n\n",
                metrics_out.c_str());
  }

  if (!ss_out.empty()) {
    std::vector<obs::SsReport> ss_log;
    for (std::size_t i = 0; i < pacing.size(); ++i) {
      for (auto rep : report.cells[i].result.ss_log) {
        rep.label = pacing[i] > 0 ? strfmt("%.0fG/stream", pacing[i]) : "unpaced";
        ss_log.push_back(std::move(rep));
      }
    }
    if (!obs::write_ss_log(ss_out, ss_log)) {
      std::fprintf(stderr, "cannot write %s\n", ss_out.c_str());
      return 1;
    }
    std::printf("dtnsim-ss snapshots (8 sockets per config): %s\n\n", ss_out.c_str());
  }

  // Verdict: the paper's ordering claim — deeper pacing never widens the
  // in-run per-flow spread (checked on medians to ignore slow-start noise).
  bool monotone = true;
  for (std::size_t k = 1; k < skew_p50.size(); ++k) {
    if (skew_p50[k] > skew_p50[k - 1] * 1.10) monotone = false;  // 10% slack
  }
  std::printf("Shape: throughput flat at the path ceiling until pacing undershoots\n"
              "(8 x 10 = 80 < path); retransmits fall and the per-flow range\n"
              "narrows monotonically with deeper pacing (exactly 10-10 at 10G).\n"
              "In-run skew ordering (p50 of flow.per_flow_range_bps): %s\n",
              monotone ? "OK, narrows with pacing" : "VIOLATED");
  return monotone ? 0 : 1;
}

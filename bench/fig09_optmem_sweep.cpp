// Fig. 9: Sender performance with zerocopy for various optmem_max values
// (Intel host, kernel 6.5, zerocopy + pacing 50G).
//
// Paper shape: at the default 20 KB the sender is completely CPU-limited
// and WAN throughput collapses; 1 MB restores pacing-limited throughput on
// the shorter paths but only ~40G at 104 ms with the sender CPU as the
// bottleneck; ~3.25 MB reaches 50G on every path and cuts sender CPU
// further. Values above 3.25 MB add nothing.
#include "bench_common.hpp"

using namespace dtnsim;
using namespace dtnsim::bench;

int main(int argc, char** argv) {
  print_header("Figure 9", "optmem_max sweep with zerocopy (Intel, kernel 6.5)",
               "zerocopy + pacing 50G, 60 s x 10, LAN + 25/54/104 ms");

  // Optional output directory for the telemetry artifacts (default cwd).
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  const auto tb = harness::amlight(kern::KernelVersion::V6_5);
  struct OptmemRow {
    const char* label;
    double bytes;
  };
  const OptmemRow rows[] = {
      {"20 KB (default)", 20480},
      {"1 MB (recommended)", 1048576},
      {"3.25 MB (best, 6.5)", 3405376},
      {"8 MB (no further gain)", 8388608},
  };

  // Telemetry rides along on the WAN 104ms runs: the per-second
  // zc.optmem_used_bytes series is the paper's missing "why" plot — at
  // 20 KB occupancy pins to the ceiling (fallback knee), at 3.25 MB the
  // in-flight charge floats well below it.
  struct OccupancySeries {
    const char* label;
    double optmem_bytes;
    obs::SeriesTable series;
    std::shared_ptr<const obs::TraceSink> trace;
  };
  std::vector<OccupancySeries> occupancy;

  Table table({"optmem_max", "Path", "Throughput", "TX Cores", "zc fallback"});
  for (const auto& om : rows) {
    for (const char* p : {"LAN", "WAN 25ms", "WAN 54ms", "WAN 104ms"}) {
      const bool probe_this = std::string(p) == "WAN 104ms";
      auto spec = harness::TestSpec::on(tb, p, {.fq_rate_bps = 50e9, .zerocopy = true});
      for (auto* h : {&spec.sender, &spec.receiver}) h->tuning.sysctl.optmem_max = om.bytes;
      spec.telemetry.enabled = probe_this;
      const auto r = harness::run_test(spec);
      table.add_row({om.label, p, gbps_pm(r), pct(r.snd_cpu_pct),
                     strfmt("%.0f%%", r.zc_fallback_ratio * 100.0)});
      if (probe_this && !r.repeat_series.empty()) {
        occupancy.push_back({om.label, om.bytes, r.repeat_series.front(), r.trace});
      }
    }
    table.add_separator();
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("Mechanism on display: MSG_ZEROCOPY charges ~%g B of optmem per\n"
              "in-flight super-packet until the ACK returns; undersized optmem\n"
              "silently degrades to copy-with-zerocopy-overhead on long paths.\n\n",
              kern::kZcChargePerSuperPkt);

  // The fallback knee, from the probe series (WAN 104ms, repeat 0).
  std::printf("optmem occupancy on WAN 104ms (per-second probe, repeat 0):\n");
  std::vector<obs::LabeledSeries> labeled;
  std::vector<std::pair<std::string, const obs::TraceSink*>> sinks;
  for (const auto& o : occupancy) {
    const double peak = o.series.max_of("zc.optmem_used_bytes");
    const std::size_t knees = o.trace ? o.trace->count("zc_fallback") : 0;
    std::printf("  %-22s peak in-flight %9.0f B of %9.0f (%5.1f%%), "
                "%zu fallback onset%s\n",
                o.label, peak, o.optmem_bytes, 100.0 * peak / o.optmem_bytes,
                knees, knees == 1 ? "" : "s");
    labeled.push_back({o.label, 0, &o.series});
    if (o.trace) sinks.emplace_back(o.label, o.trace.get());
  }
  const std::string csv_path = out_dir + "/fig09_optmem_series.csv";
  const std::string trace_path = out_dir + "/fig09_trace.json";
  if (obs::write_merged_series_csv(csv_path, labeled) &&
      obs::write_merged_chrome_trace(trace_path, sinks)) {
    std::printf("\nwrote %s and %s (load the trace in ui.perfetto.dev)\n",
                csv_path.c_str(), trace_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write telemetry artifacts under %s\n",
                 out_dir.c_str());
    return 1;
  }
  return 0;
}

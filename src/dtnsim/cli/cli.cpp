#include "dtnsim/cli/cli.hpp"

#include <algorithm>
#include <limits>

#include "dtnsim/obs/trace.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::cli {

std::optional<kern::KernelVersion> parse_kernel(const std::string& text) {
  using enum kern::KernelVersion;
  for (const auto v : {V5_10, V5_15, V6_5, V6_8, V6_11}) {
    if (text == kern::kernel_version_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<kern::CongestionAlgo> parse_congestion(const std::string& text) {
  using enum kern::CongestionAlgo;
  for (const auto c : {Cubic, BbrV1, BbrV3, Reno}) {
    if (text == kern::congestion_name(c)) return c;
  }
  return std::nullopt;
}

std::vector<FlagGroup> run_flags(CliOptions& o) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const Setter big_tcp = [&o](const std::string& flag, const std::vector<std::string>& size) {
    if (!size.empty()) {
      const auto bytes = parse_rate(size.front());
      if (!bytes) return "bad " + flag + " size: " + size.front();
      o.big_tcp_bytes = *bytes;
    }
    o.big_tcp = true;
    return std::string();
  };
  const FlagGroup iperf3{"iperf3 flags:", {
    {{"-P", "--parallel"}, "N", "parallel streams (multithreaded, iperf3 >= 3.16)",
     set_whole(o.iperf.parallel, 1, 128)},
    {{"-t", "--time"}, "SEC", "duration per run (default 60)", set_seconds(o.iperf.duration_sec)},
    {{"-C", "--congestion"}, "ALGO", "cubic | bbr | bbr3 | reno",
     set_value(o.iperf.congestion, parse_congestion, "cubic, bbr, bbr3 or reno")},
    {{"--fq-rate"}, "RATE", "per-stream pacing, e.g. 50G (patch #1728)",
     set_rate(o.iperf.fq_rate_bps)},
    {{"-Z", "--zerocopy", "--zerocopy=z"}, "", "MSG_ZEROCOPY sends (patch #1690)",
     set_true(o.iperf.zerocopy)},
    {{"--skip-rx-copy"}, "", "MSG_TRUNC receives (patch #1690)", set_true(o.iperf.skip_rx_copy)},
    {{"-J", "--json"}, "", "JSON output", set_true(o.iperf.json)},
    {{"-h", "--help"}, "", "print this help and exit", set_true(o.show_help)}}};
  const FlagGroup simulator{"simulator flags:", {
    {{"--testbed"}, "NAME", "amlight | amlight-baremetal | esnet | production",
     set_text(o.testbed)},
    {{"--path"}, "NAME", "e.g. 'WAN 63ms' (default: testbed LAN)", set_text(o.path)},
    {{"--kernel"}, "VER", "5.10 | 5.15 | 6.5 | 6.8 | 6.11",
     set_value(o.kernel, parse_kernel, "5.10, 5.15, 6.5, 6.8 or 6.11")},
    {{"--optmem"}, "BYTES", "net.core.optmem_max (e.g. 1M, 3405376)", set_rate(o.optmem_max)},
    {{"--big-tcp"}, "[SIZE]", "enable BIG TCP (default 150K)", big_tcp},
    {{"--ring"}, "N", "RX/TX ring descriptors", set_whole(o.ring, 1, kIntMax)},
    {{"--repeats"}, "N", "repeats with seed substreams (default 1)",
     set_whole(o.repeats, 1, kIntMax)},
    {{"--seed"}, "N", "RNG seed",
     set_whole(o.seed, 0, std::numeric_limits<std::uint64_t>::max())}}};
  const FlagGroup observability{"observability flags (docs/OBSERVABILITY.md):", {
    {{"--probe-interval"}, "SEC", "telemetry sampling cadence (default 1)",
     set_seconds(o.probe_interval_sec)},
    {{"--metrics-out"}, "F", "write per-interval metric series as CSV", set_text(o.metrics_out)},
    {{"--trace-out"}, "F", "write chrome://tracing / Perfetto JSON trace", set_text(o.trace_out)},
    {{"--trace-stream"}, "F",
     "stream every trace event of repeat 0 to F as\nit happens (no ring-capacity ceiling)",
     set_text(o.trace_stream)},
    {{"--ss-watch"}, "SEC", "ss/ethtool/tc snapshots every SEC of sim time",
     set_seconds(o.ss_watch_sec)},
    {{"--perf-watch"}, "SEC", "per-stage cycle attribution samples every SEC",
     set_seconds(o.perf_watch_sec)}}};
  const FlagGroup scenario{"scenario flags (docs/SCENARIO.md):", {
    {{"--scenario"}, "F", "mid-run fault/condition timeline (JSON), fired\nin every repeat",
     set_text(o.scenario_file)},
    {{"--record-timeline"}, "F",
     "write the events repeat 0 crossed as a loadable\n--scenario timeline (needs --scenario)",
     set_text(o.record_timeline)}}};
  const FlagGroup report{"report flags (docs/REPORT.md):", {
    {{"--record-out"}, "F",
     "bundle the run into one RunRecord JSON for\n"
     "dtnsim-report and the ss, perf and scenario\n"
     "replays (implies telemetry + ss + perf)",
     set_text(o.record_out)}}};
  return {iperf3, simulator, observability, scenario, report};
}

Grammar tool_grammar(std::string about, FlagGroup tool, CliOptions& o) {
  Grammar grammar{std::move(about), run_flags(o), nullptr};
  const auto taken = [&tool](const Flag& shared) {
    return std::ranges::any_of(tool.flags, [&shared](const Flag& mine) {
      return std::ranges::find_first_of(mine.names, shared.names) != mine.names.end();
    });
  };
  for (auto& group : grammar.groups) std::erase_if(group.flags, taken);
  grammar.groups.insert(grammar.groups.begin(), std::move(tool));
  return grammar;
}

constexpr const char* kIperf3About =
    "dtnsim-iperf3 — iperf3-compatible driver for the dtnsim simulator";

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  o.error = parse_args({kIperf3About, run_flags(o), nullptr}, args);
  return o;
}

std::string cli_help() {
  CliOptions o;
  return render_help({kIperf3About, run_flags(o), nullptr});
}

harness::TestSpec spec_from_cli(const CliOptions& opts) {
  // Throws std::invalid_argument for an unknown testbed name.
  const harness::Testbed tb = harness::testbed_by_name(opts.testbed, opts.kernel);

  auto spec = harness::TestSpec::on(tb, opts.path, opts.iperf);
  spec.repeats = opts.repeats;
  spec.base_seed = opts.seed;
  for (auto* h : {&spec.sender, &spec.receiver}) {
    if (opts.optmem_max >= 0) h->tuning.sysctl.optmem_max = opts.optmem_max;
    if (opts.big_tcp) {
      h->tuning.big_tcp_enabled = true;
      h->tuning.big_tcp_bytes = opts.big_tcp_bytes;
    }
    if (opts.ring > 0) h->tuning.ring_descriptors = opts.ring;
  }
  const bool wants_ss = opts.force_ss || opts.ss_watch_sec > 0;
  const bool wants_perf = opts.force_perf || opts.perf_watch_sec > 0;
  if (!opts.metrics_out.empty() || !opts.trace_out.empty() ||
      !opts.trace_stream.empty() || wants_ss || wants_perf) {
    spec.telemetry.enabled = true;
    spec.telemetry.probe_interval = units::seconds(opts.probe_interval_sec);
    spec.telemetry.trace_stream_path = opts.trace_stream;
  }
  if (wants_ss) {
    spec.telemetry.ss_enabled = true;
    if (opts.ss_watch_sec > 0) {
      spec.telemetry.ss_interval = units::seconds(opts.ss_watch_sec);
    }
  }
  if (wants_perf) {
    spec.telemetry.perf_enabled = true;
    if (opts.perf_watch_sec > 0) {
      spec.telemetry.perf_interval = units::seconds(opts.perf_watch_sec);
    }
  }
  if (!opts.scenario_file.empty()) {
    // Throws std::runtime_error on a missing file or invalid timeline.
    spec.scenario = scenario::load_timeline(opts.scenario_file);
  }
  spec.record = !opts.record_out.empty();
  return spec;
}

CliRun run_command(const CliOptions& opts) {
  CliRun run;
  const auto fail = [&run](int code, std::string error) {
    run.code = code;
    run.error = std::move(error);
    return std::move(run);
  };
  try {
    run.spec = spec_from_cli(opts);
  } catch (const std::exception& e) {  // unknown testbed or path, bad timeline
    return fail(2, strfmt("error: %s\n", e.what()));
  }
  if (!opts.record_timeline.empty() && opts.scenario_file.empty()) {
    return fail(2, "error: --record-timeline requires --scenario (nothing to record)\n");
  }
  run.result = harness::run_test(run.spec);
  const harness::TestSpec& spec = run.spec;
  const harness::TestResult& result = run.result;

  if (!opts.metrics_out.empty()) {
    std::vector<obs::LabeledSeries> labeled;
    for (std::size_t r = 0; r < result.repeat_series.size(); ++r)
      labeled.push_back({spec.name, static_cast<int>(r), &result.repeat_series[r]});
    if (!obs::write_merged_series_csv(opts.metrics_out, labeled)) {
      return fail(1, strfmt("error: cannot write metrics to %s\n", opts.metrics_out.c_str()));
    }
    run.notes += strfmt("  metrics    : %s\n", opts.metrics_out.c_str());
  }
  if (!opts.trace_out.empty() && result.trace) {
    if (!result.trace->write_file(opts.trace_out, spec.name)) {
      return fail(1, strfmt("error: cannot write trace to %s\n", opts.trace_out.c_str()));
    }
    run.notes += strfmt("  trace      : %s\n", opts.trace_out.c_str());
  }
  if (!opts.trace_stream.empty()) {
    // Repeat 0 streamed the trace; its sink knows whether every write landed.
    const auto* stream = dynamic_cast<const obs::StreamingTraceSink*>(result.trace.get());
    if (!stream || !stream->ok()) {
      return fail(1, strfmt("error: cannot write trace stream to %s\n",
                            opts.trace_stream.c_str()));
    }
    run.notes += strfmt("  stream     : %s\n", opts.trace_stream.c_str());
  }
  if (!opts.record_timeline.empty()) {
    const scenario::Timeline recorded = scenario::timeline_from_log(result.scenario_log);
    if (!scenario::write_timeline(opts.record_timeline, recorded)) {
      return fail(1, strfmt("error: cannot write timeline to %s\n",
                            opts.record_timeline.c_str()));
    }
    run.notes += strfmt("  timeline   : %s (%zu event%s)\n", opts.record_timeline.c_str(),
                        recorded.events.size(), recorded.events.size() == 1 ? "" : "s");
  }
  if (!opts.record_out.empty()) {
    if (!result.record || !report::write_run_record(opts.record_out, *result.record)) {
      return fail(1, strfmt("error: cannot write run record to %s\n", opts.record_out.c_str()));
    }
    run.notes += strfmt("  record     : %s\n", opts.record_out.c_str());
  }
  return run;
}

int run_cli(const CliOptions& opts, std::string& output) {
  if (!opts.error.empty() || opts.show_help) {
    CliOptions unused;
    output = usage({kIperf3About, run_flags(unused), nullptr}, opts.error);
    return opts.error.empty() ? 0 : 2;
  }
  const CliRun run = run_command(opts);
  if (run.code != 0) {
    output = run.error;
    return run.code;
  }
  const harness::TestResult& result = run.result;
  if (opts.iperf.json) {
    Json j = Json::object();
    j["title"] = run.spec.name;
    j["repeats"] = result.repeats;
    j["end"]["sum_received"]["bits_per_second"] = result.avg_gbps * 1e9;
    j["end"]["sum_received"]["stdev_gbps"] = result.stdev_gbps;
    j["end"]["sum_received"]["min_gbps"] = result.min_gbps;
    j["end"]["sum_received"]["max_gbps"] = result.max_gbps;
    j["end"]["sum_sent"]["retransmits"] = result.avg_retransmits;
    j["end"]["cpu_utilization_percent"]["host_total"] = result.snd_cpu_pct;
    j["end"]["cpu_utilization_percent"]["remote_total"] = result.rcv_cpu_pct;
    Json samples = Json::array();
    for (double g : result.samples_gbps) samples.push_back(g);
    j["samples_gbps"] = std::move(samples);
    output = j.dump(2) + "\n";
  } else {
    output = strfmt(
        "%s\n"
        "  throughput : %.2f Gbps (min %.2f, max %.2f, stdev %.2f, %d repeats)\n"
        "  retransmits: %.0f\n"
        "  sender CPU : %.0f%%   receiver CPU: %.0f%%\n",
        result.name.c_str(), result.avg_gbps, result.min_gbps, result.max_gbps,
        result.stdev_gbps, result.repeats, result.avg_retransmits, result.snd_cpu_pct,
        result.rcv_cpu_pct);
    output += run.notes;
  }
  return 0;
}

}  // namespace dtnsim::cli

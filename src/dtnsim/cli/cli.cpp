#include "dtnsim/cli/cli.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::cli {
using app::IperfOptions;

std::optional<double> parse_rate(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  const std::string suffix(end);
  double scale = 1.0;
  if (suffix.size() > 1) return std::nullopt;
  if (suffix.size() == 1) {
    switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
      case 'k':
        scale = 1e3;
        break;
      case 'm':
        scale = 1e6;
        break;
      case 'g':
        scale = 1e9;
        break;
      case 't':
        scale = 1e12;
        break;
      default:
        return std::nullopt;
    }
  }
  // No number, a negative one, NaN or Inf (also after scaling).
  if (end == text.c_str() || !(value >= 0) || !std::isfinite(value * scale)) return std::nullopt;
  return value * scale;
}

std::optional<double> parse_seconds(const std::string& text) {
  double s = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, s);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  try {
    if (units::SimTime::from_seconds(s).nanos() <= 0) return std::nullopt;
  } catch (const std::invalid_argument&) {  // NaN, Inf or out of range
    return std::nullopt;
  }
  return s;
}

std::optional<kern::KernelVersion> parse_kernel(const std::string& text) {
  if (text == "5.10") return kern::KernelVersion::V5_10;
  if (text == "5.15") return kern::KernelVersion::V5_15;
  if (text == "6.5") return kern::KernelVersion::V6_5;
  if (text == "6.8") return kern::KernelVersion::V6_8;
  if (text == "6.11") return kern::KernelVersion::V6_11;
  return std::nullopt;
}

std::optional<kern::CongestionAlgo> parse_congestion(const std::string& text) {
  if (text == "cubic") return kern::CongestionAlgo::Cubic;
  if (text == "bbr") return kern::CongestionAlgo::BbrV1;
  if (text == "bbr3") return kern::CongestionAlgo::BbrV3;
  if (text == "reno") return kern::CongestionAlgo::Reno;
  return std::nullopt;
}

namespace {

bool needs_value(const std::string& flag) {
  return flag == "-P" || flag == "--parallel" || flag == "-t" || flag == "--time" ||
         flag == "-C" || flag == "--congestion" || flag == "--fq-rate" ||
         flag == "--testbed" || flag == "--path" || flag == "--kernel" ||
         flag == "--optmem" || flag == "--ring" || flag == "--repeats" ||
         flag == "--seed" || flag == "--probe-interval" ||
         flag == "--metrics-out" || flag == "--trace-out" || flag == "--trace-stream" ||
         flag == "--ss-watch" || flag == "--ss-out" || flag == "--perf-watch" ||
         flag == "--perf-out" || flag == "--scenario" || flag == "--scenario-out" ||
         flag == "--record-out" || flag == "--record-timeline";
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    bool has_inline_value = false;
    // Long flags accept --flag=value; "--zerocopy=z" stays a valid spelling.
    if (flag.rfind("--", 0) == 0) {
      const std::size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        value = flag.substr(eq + 1);
        flag = flag.substr(0, eq);
        has_inline_value = true;
      }
    }
    if (flag == "--zerocopy" && has_inline_value) {
      if (value != "z") {
        o.error = "bad --zerocopy mode: " + value;
        return o;
      }
      has_inline_value = false;  // handled below as the plain switch
      value.clear();
    }
    if (flag == "--big-tcp" && has_inline_value) {
      const auto sz = parse_rate(value);
      if (!sz) {
        o.error = "bad --big-tcp size: " + value;
        return o;
      }
      o.big_tcp = true;
      o.big_tcp_bytes = *sz;
      continue;
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

    // Each stores the flag's value in `out`, or sets o.error naming it.
    const auto take_seconds = [&](double& out) {
      const auto sec = parse_seconds(value);
      if (!sec) {
        o.error = "bad " + flag + ": " + value + " (want finite seconds > 0, below ~292 years)";
      }
      out = sec.value_or(out);
      return sec.has_value();
    };
    const auto take_integer = [&](auto& out, auto lo, auto hi) {
      const auto n = parse_integer(value, lo, hi);
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
    } else if (flag == "-P" || flag == "--parallel") {
      if (!take_integer(o.iperf.parallel, 1, 128)) return o;
    } else if (flag == "-t" || flag == "--time") {
      if (!take_seconds(o.iperf.duration_sec)) return o;
    } else if (flag == "-C" || flag == "--congestion") {
      const auto algo = parse_congestion(value);
      if (!algo) {
        o.error = "unknown congestion algorithm: " + value;
        return o;
      }
      o.iperf.congestion = *algo;
    } else if (flag == "--fq-rate") {
      const auto rate = parse_rate(value);
      if (!rate) {
        o.error = "bad --fq-rate: " + value;
        return o;
      }
      o.iperf.fq_rate_bps = *rate;
    } else if (flag == "-Z" || flag == "--zerocopy" || flag == "--zerocopy=z") {
      o.iperf.zerocopy = true;
    } else if (flag == "--skip-rx-copy") {
      o.iperf.skip_rx_copy = true;
    } else if (flag == "-J" || flag == "--json") {
      o.iperf.json = true;
    } else if (flag == "--testbed") {
      o.testbed = value;
    } else if (flag == "--path") {
      o.path = value;
    } else if (flag == "--kernel") {
      const auto k = parse_kernel(value);
      if (!k) {
        o.error = "unknown kernel: " + value + " (5.10/5.15/6.5/6.8/6.11)";
        return o;
      }
      o.kernel = *k;
    } else if (flag == "--optmem") {
      const auto bytes = parse_rate(value);
      if (!bytes) {
        o.error = "bad --optmem: " + value;
        return o;
      }
      o.optmem_max = *bytes;
    } else if (flag == "--big-tcp") {
      o.big_tcp = true;
      // Optional size argument.
      if (i + 1 < args.size() && !args[i + 1].empty() && args[i + 1][0] != '-') {
        if (const auto sz = parse_rate(args[i + 1])) {
          o.big_tcp_bytes = *sz;
          ++i;
        }
      }
    } else if (flag == "--ring") {
      if (!take_integer(o.ring, 1, kIntMax)) return o;
    } else if (flag == "--repeats") {
      if (!take_integer(o.repeats, 1, kIntMax)) return o;
    } else if (flag == "--seed") {
      if (!take_integer(o.seed, std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()))
        return o;
    } else if (flag == "--probe-interval") {
      if (!take_seconds(o.probe_interval_sec)) return o;
    } else if (flag == "--metrics-out") {
      o.metrics_out = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--trace-stream") {
      o.trace_stream = value;
    } else if (flag == "--ss-watch") {
      if (!take_seconds(o.ss_watch_sec)) return o;
    } else if (flag == "--ss-out") {
      o.ss_out = value;
    } else if (flag == "--perf-watch") {
      if (!take_seconds(o.perf_watch_sec)) return o;
    } else if (flag == "--perf-out") {
      o.perf_out = value;
    } else if (flag == "--scenario") {
      o.scenario_file = value;
    } else if (flag == "--scenario-out") {
      o.scenario_out = value;
    } else if (flag == "--record-out") {
      o.record_out = value;
    } else if (flag == "--record-timeline") {
      o.record_timeline = value;
    } else {
      o.error = "unknown flag: " + flag;
      return o;
    }
  }
  return o;
}

std::string cli_help() {
  return
      "dtnsim-iperf3 — iperf3-compatible driver for the dtnsim simulator\n"
      "\n"
      "iperf3 flags:\n"
      "  -P, --parallel N       parallel streams (multithreaded, iperf3 >= 3.16)\n"
      "  -t, --time SEC         duration per run (default 60)\n"
      "  -C, --congestion A     cubic | bbr | bbr3 | reno\n"
      "      --fq-rate RATE     per-stream pacing, e.g. 50G (patch #1728)\n"
      "  -Z, --zerocopy         MSG_ZEROCOPY sends (patch #1690)\n"
      "      --skip-rx-copy     MSG_TRUNC receives (patch #1690)\n"
      "  -J, --json             JSON output\n"
      "simulator flags:\n"
      "      --testbed NAME     amlight | amlight-baremetal | esnet | production\n"
      "      --path NAME        e.g. 'WAN 63ms' (default: testbed LAN)\n"
      "      --kernel VER       5.10 | 5.15 | 6.5 | 6.8 | 6.11\n"
      "      --optmem BYTES     net.core.optmem_max (e.g. 1M, 3405376)\n"
      "      --big-tcp [SIZE]   enable BIG TCP (default 150K)\n"
      "      --ring N           RX/TX ring descriptors\n"
      "      --repeats N        repeats with seed substreams (default 1)\n"
      "      --seed N           RNG seed\n"
      "observability flags (docs/OBSERVABILITY.md):\n"
      "      --probe-interval S telemetry sampling cadence in seconds (default 1)\n"
      "      --metrics-out F    write per-interval metric series as CSV\n"
      "      --trace-out F      write chrome://tracing / Perfetto JSON trace\n"
      "      --trace-stream F   stream every trace event to F as it happens\n"
      "                         (no ring-capacity ceiling; first repeat only)\n"
      "      --ss-watch SEC     ss/ethtool/tc snapshots every SEC of sim time\n"
      "      --ss-out F         write the snapshot log as JSON (dtnsim-ss\n"
      "                         --replay reads it back)\n"
      "      --perf-watch SEC   per-stage cycle attribution samples every SEC\n"
      "      --perf-out F       write the perf log as JSON (dtnsim-perf\n"
      "                         --replay reads it back)\n"
      "scenario flags (docs/SCENARIO.md):\n"
      "      --scenario F       mid-run fault/condition timeline (JSON); events\n"
      "                         fire at their scheduled times in every repeat\n"
      "      --scenario-out F   write repeat 0's applied-event log as JSON\n"
      "      --record-timeline F  write the events repeat 0 crossed back out\n"
      "                         as a loadable --scenario timeline (jitter\n"
      "                         already drawn; requires --scenario)\n"
      "report flags (docs/REPORT.md):\n"
      "      --record-out F     bundle the whole run into one RunRecord JSON\n"
      "                         artifact (summary + series + ss/perf logs +\n"
      "                         scenario events + analysis; dtnsim-report\n"
      "                         reads it). Implies telemetry + ss + perf\n";
}

harness::TestSpec spec_from_cli(const CliOptions& opts) {
  // Throws std::invalid_argument for an unknown testbed name.
  const harness::Testbed tb = harness::testbed_by_name(opts.testbed, opts.kernel);

  const std::string path_name = opts.path.empty() ? tb.lan().name : opts.path;
  auto spec = harness::TestSpec::on(tb, path_name, opts.iperf);
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
  const bool wants_ss =
      opts.force_ss || opts.ss_watch_sec > 0 || !opts.ss_out.empty();
  const bool wants_perf =
      opts.force_perf || opts.perf_watch_sec > 0 || !opts.perf_out.empty();
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

int run_cli(const CliOptions& opts, std::string& output) {
  if (!opts.error.empty()) {
    output = "error: " + opts.error + "\n\n" + cli_help();
    return 2;
  }
  if (opts.show_help) {
    output = cli_help();
    return 0;
  }

  harness::TestSpec spec;
  try {
    spec = spec_from_cli(opts);
  } catch (const std::exception& e) {  // unknown testbed or path name
    output = strfmt("error: %s\n", e.what());
    return 2;
  }
  if (!opts.record_timeline.empty() && opts.scenario_file.empty()) {
    output = "error: --record-timeline requires --scenario (nothing to record)\n";
    return 2;
  }

  const auto result = harness::run_test(spec);

  std::string telemetry_note;
  if (!opts.metrics_out.empty()) {
    std::vector<obs::LabeledSeries> labeled;
    for (std::size_t r = 0; r < result.repeat_series.size(); ++r)
      labeled.push_back({spec.name, static_cast<int>(r), &result.repeat_series[r]});
    if (!obs::write_merged_series_csv(opts.metrics_out, labeled)) {
      output = strfmt("error: cannot write metrics to %s\n", opts.metrics_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  metrics    : %s\n", opts.metrics_out.c_str());
  }
  if (!opts.trace_out.empty() && result.trace) {
    if (!result.trace->write_file(opts.trace_out, spec.name)) {
      output = strfmt("error: cannot write trace to %s\n", opts.trace_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  trace      : %s\n", opts.trace_out.c_str());
  }
  if (!opts.trace_stream.empty()) {
    telemetry_note += strfmt("  stream     : %s\n", opts.trace_stream.c_str());
  }
  if (!opts.ss_out.empty()) {
    if (!obs::write_ss_log(opts.ss_out, result.ss_log)) {
      output = strfmt("error: cannot write ss log to %s\n", opts.ss_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  ss log     : %s (%zu snapshot%s)\n",
                             opts.ss_out.c_str(), result.ss_log.size(),
                             result.ss_log.size() == 1 ? "" : "s");
  }
  if (!opts.perf_out.empty()) {
    if (!obs::write_perf_log(opts.perf_out, result.perf_log)) {
      output = strfmt("error: cannot write perf log to %s\n", opts.perf_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  perf log   : %s (%zu sample%s)\n",
                             opts.perf_out.c_str(), result.perf_log.size(),
                             result.perf_log.size() == 1 ? "" : "s");
  }
  if (!opts.scenario_out.empty()) {
    if (!scenario::write_event_log(opts.scenario_out, result.scenario_log)) {
      output =
          strfmt("error: cannot write scenario log to %s\n", opts.scenario_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  scenario   : %s (%zu event%s)\n",
                             opts.scenario_out.c_str(), result.scenario_log.events.size(),
                             result.scenario_log.events.size() == 1 ? "" : "s");
  }
  if (!opts.record_timeline.empty()) {
    const scenario::Timeline recorded =
        scenario::timeline_from_log(result.scenario_log);
    if (!scenario::write_timeline(opts.record_timeline, recorded)) {
      output = strfmt("error: cannot write timeline to %s\n",
                      opts.record_timeline.c_str());
      return 1;
    }
    telemetry_note += strfmt("  timeline   : %s (%zu event%s)\n",
                             opts.record_timeline.c_str(), recorded.events.size(),
                             recorded.events.size() == 1 ? "" : "s");
  }
  if (!opts.record_out.empty()) {
    if (!result.record ||
        !report::write_run_record(opts.record_out, *result.record)) {
      output = strfmt("error: cannot write run record to %s\n",
                      opts.record_out.c_str());
      return 1;
    }
    telemetry_note += strfmt("  record     : %s\n", opts.record_out.c_str());
  }

  if (opts.iperf.json) {
    Json j = Json::object();
    j["title"] = spec.name;
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
    output += telemetry_note;
  }
  return 0;
}

}  // namespace dtnsim::cli

// Command-line front end: an iperf3-flag-compatible driver for the
// simulator (tools/dtnsim-iperf3) plus the advisor CLI. Parsing lives here
// so it is unit-testable; the tool binaries are thin mains.
//
// Supported surface (mirrors the patched iperf3 v3.17 where it makes sense):
//   -P/--parallel N         parallel streams
//   -t/--time SEC           duration
//   -C/--congestion ALGO    cubic | bbr | bbr3 | reno
//   --fq-rate RATE          per-stream pacing; accepts 50G / 500M / 1000000
//   -Z/--zerocopy[=z]       MSG_ZEROCOPY send path
//   --skip-rx-copy          MSG_TRUNC receive
//   -J/--json               JSON output (iperf3 schema subset)
// Simulator extensions:
//   --testbed NAME          amlight | amlight-baremetal | esnet | production
//   --path NAME             e.g. "WAN 63ms" (default: the testbed LAN)
//   --kernel VER            5.10 | 5.15 | 6.5 | 6.8 | 6.11
//   --optmem BYTES          net.core.optmem_max (accepts suffixes)
//   --big-tcp [SIZE]        enable BIG TCP (default 150K)
//   --ring N                RX/TX descriptors
//   --repeats N             harness repeats (default 1)
//   --seed N                RNG seed
// Observability (see docs/OBSERVABILITY.md):
//   --probe-interval SEC    telemetry sampling cadence (iperf3 -i analogue)
//   --metrics-out PATH      per-interval metric series -> CSV
//   --trace-out PATH        chrome://tracing / Perfetto trace_event JSON
//   --trace-stream PATH     stream events to PATH as recorded (no capacity cap)
//   --ss-watch SEC          kernel-eye ss/ethtool/tc snapshots every SEC
//   --ss-out PATH           snapshot log -> JSON (dtnsim-ss --replay input)
//   --perf-watch SEC        per-stage cycle attribution samples every SEC
//   --perf-out PATH         perf log -> JSON (dtnsim-perf --replay input)
// Scenario (see docs/SCENARIO.md):
//   --scenario PATH         mid-run fault/condition timeline (JSON)
//   --scenario-out PATH     event log of repeat 0 -> JSON
//   --record-timeline PATH  crossed events -> loadable timeline JSON
// Report (see docs/REPORT.md):
//   --record-out PATH       whole run -> one RunRecord JSON artifact
// Long flags also accept --flag=value.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <vector>

#include "dtnsim/harness/runner.hpp"

namespace dtnsim::cli {
using app::IperfOptions;

// "50G" -> 50e9, "1.5m" -> 1.5e6, "1048576" -> 1048576. nullopt on garbage.
std::optional<double> parse_rate(const std::string& text);

// A time flag's value: the whole token as finite seconds whose SimTime is
// positive ("20", "0.5", "1e3"). nullopt on garbage, NaN, Inf, a time that
// rounds to 0 ns or below, or one past SimTime's range (~292 years).
std::optional<double> parse_seconds(const std::string& text);

// The whole token as a base-10 integer in [lo, hi]; nullopt otherwise (a
// sign on an unsigned type, trailing characters, overflow).
template <class Int>
std::optional<Int> parse_integer(const std::string& text, Int lo, Int hi) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<kern::KernelVersion> parse_kernel(const std::string& text);
std::optional<kern::CongestionAlgo> parse_congestion(const std::string& text);

struct CliOptions {
  bool show_help = false;
  std::string error;  // non-empty -> parse failed, message for the user

  std::string testbed = "esnet";
  std::string path;           // empty -> testbed LAN
  kern::KernelVersion kernel = kern::KernelVersion::V6_8;
  IperfOptions iperf;
  double optmem_max = -1.0;   // < 0 -> testbed default
  bool big_tcp = false;
  double big_tcp_bytes = 150.0 * 1024.0;
  int ring = -1;              // < 0 -> testbed default
  int repeats = 1;
  std::uint64_t seed = 0x5eed;
  // Telemetry: any of these switches the probe/trace machinery on.
  double probe_interval_sec = 1.0;
  std::string metrics_out;    // "" -> no CSV series written
  std::string trace_out;      // "" -> no chrome trace written
  std::string trace_stream;   // "" -> no streamed trace (see StreamingTraceSink)
  // Kernel-eye snapshots (dtnsim-ss): watch cadence in simulated seconds
  // (0 = end-of-run snapshot only) and the JSON log destination. Either
  // flag — or force_ss (the dtnsim-ss front end) — enables snapshotting.
  double ss_watch_sec = 0.0;
  std::string ss_out;
  bool force_ss = false;
  // Per-stage cycle attribution (dtnsim-perf): sampler cadence in simulated
  // seconds (0 = end-of-run report only) and the JSON log destination.
  // Either flag — or force_perf (the dtnsim-perf front end) — enables the
  // attribution accumulators.
  double perf_watch_sec = 0.0;
  std::string perf_out;
  bool force_perf = false;
  // Mid-run fault/condition timeline (docs/SCENARIO.md): a JSON timeline to
  // load and the destination for repeat 0's event log.
  std::string scenario_file;
  std::string scenario_out;
  // Unified run record (docs/REPORT.md): bundle summary + series + ss/perf
  // logs + scenario events + derived analysis into one JSON artifact.
  // Implies telemetry + ss + perf.
  std::string record_out;
  // Re-emit the events repeat 0 crossed as a validate()-clean timeline that
  // --scenario can load back (the inverse of running one). Requires
  // --scenario.
  std::string record_timeline;
};

CliOptions parse_cli(const std::vector<std::string>& args);

std::string cli_help();

// Build the harness spec a parsed command line describes. Throws
// std::invalid_argument for an unknown testbed/path.
harness::TestSpec spec_from_cli(const CliOptions& opts);

// Run and render (text or JSON). Returns a process exit code.
int run_cli(const CliOptions& opts, std::string& output);

}  // namespace dtnsim::cli

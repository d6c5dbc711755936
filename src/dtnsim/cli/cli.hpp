// Command-line front end: the run table every simulating tool shares
// (dtnsim-iperf3's flags, which mirror the patched iperf3 v3.17 and add the
// simulator's), spec construction, the one run path every simulating tool
// takes (run_command) and the iperf3 view. Parsing lives here so it is
// unit-testable; the tool binaries are thin mains.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dtnsim/cli/flags.hpp"
#include "dtnsim/harness/runner.hpp"

namespace dtnsim::cli {
using app::IperfOptions;

std::optional<kern::KernelVersion> parse_kernel(const std::string& text);
std::optional<kern::CongestionAlgo> parse_congestion(const std::string& text);

// What a run command line sets; run_flags() documents each flag. An empty
// output path is not written. force_ss and force_perf are the dtnsim-ss /
// dtnsim-perf front ends' own switches: snapshots or cycle attribution
// without a watch flag.
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
  double probe_interval_sec = 1.0;
  std::string metrics_out;
  std::string trace_out;
  std::string trace_stream;
  double ss_watch_sec = 0.0;  // 0 -> end-of-run snapshot only
  bool force_ss = false;
  double perf_watch_sec = 0.0;  // 0 -> end-of-run report only
  bool force_perf = false;
  std::string scenario_file;
  std::string record_out;
  std::string record_timeline;
};

// The run table, writing into `o`; -h/--help sets o.show_help.
std::vector<FlagGroup> run_flags(CliOptions& o);

// A simulating tool's grammar: its own flags first, then the run table
// without the entries whose spellings the tool's flags take over.
Grammar tool_grammar(std::string about, FlagGroup tool, CliOptions& o);

CliOptions parse_cli(const std::vector<std::string>& args);

std::string cli_help();

// Build the harness spec a parsed command line describes. Throws
// std::invalid_argument for an unknown testbed/path.
harness::TestSpec spec_from_cli(const CliOptions& opts);

// One run of a parsed command line, the way every simulating tool makes it.
struct CliRun {
  int code = 0;       // else the exit code: 2 a bad spec, 1 an unwritable file
  std::string error;  // "error: ...\n" when code != 0
  harness::TestSpec spec;
  harness::TestResult result;
  std::string notes;  // one line per output file written, for a text view
};

// spec_from_cli, the check that --record-timeline comes with --scenario,
// harness::run_test, then every output file the line names (--metrics-out,
// --trace-out, --trace-stream, --record-timeline, --record-out).
// dtnsim-iperf3, -ss, -perf and dtnsim-scenario --run call it and render
// their own view.
CliRun run_command(const CliOptions& opts);

// dtnsim-iperf3: run_command, then its text (notes after) or JSON view.
// Returns a process exit code.
int run_cli(const CliOptions& opts, std::string& output);

}  // namespace dtnsim::cli

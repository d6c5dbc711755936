// Unit tests: the command-line front end (rate parsing, flag handling,
// spec construction, end-to-end run).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "dtnsim/cli/cli.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/campaign.hpp"
#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"
#include "golden.hpp"

namespace dtnsim::cli {
namespace {

TEST(ParseRate, SuffixesAndPlainNumbers) {
  EXPECT_DOUBLE_EQ(*parse_rate("50G"), 50e9);
  EXPECT_DOUBLE_EQ(*parse_rate("50g"), 50e9);
  EXPECT_DOUBLE_EQ(*parse_rate("1.5M"), 1.5e6);
  EXPECT_DOUBLE_EQ(*parse_rate("300k"), 300e3);
  EXPECT_DOUBLE_EQ(*parse_rate("1048576"), 1048576.0);
  EXPECT_DOUBLE_EQ(*parse_rate("0"), 0.0);
}

TEST(ParseRate, RejectsGarbage) {
  EXPECT_FALSE(parse_rate("").has_value());
  EXPECT_FALSE(parse_rate("fast").has_value());
  EXPECT_FALSE(parse_rate("50X").has_value());
  EXPECT_FALSE(parse_rate("50GG").has_value());
  EXPECT_FALSE(parse_rate("-5G").has_value());
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "1e300T"}) {
    EXPECT_FALSE(parse_rate(bad).has_value()) << bad;
  }
}

TEST(ParseKernel, KnownVersions) {
  EXPECT_EQ(*parse_kernel("5.15"), kern::KernelVersion::V5_15);
  EXPECT_EQ(*parse_kernel("6.8"), kern::KernelVersion::V6_8);
  EXPECT_FALSE(parse_kernel("4.19").has_value());
}

TEST(ParseCongestion, Algorithms) {
  EXPECT_EQ(*parse_congestion("cubic"), kern::CongestionAlgo::Cubic);
  EXPECT_EQ(*parse_congestion("bbr"), kern::CongestionAlgo::BbrV1);
  EXPECT_EQ(*parse_congestion("bbr3"), kern::CongestionAlgo::BbrV3);
  EXPECT_FALSE(parse_congestion("vegas").has_value());
}

TEST(ParseCli, FullCommandLine) {
  const auto o = parse_cli({"--testbed", "amlight", "--path", "WAN 104ms", "-P", "8",
                            "-t", "30", "-Z", "--skip-rx-copy", "--fq-rate", "50G",
                            "--kernel", "6.5", "--optmem", "1M", "--big-tcp",
                            "--ring", "8192", "--repeats", "5", "--seed", "99",
                            "-C", "bbr3", "-J"});
  ASSERT_TRUE(o.error.empty()) << o.error;
  EXPECT_EQ(o.testbed, "amlight");
  EXPECT_EQ(o.path, "WAN 104ms");
  EXPECT_EQ(o.iperf.parallel, 8);
  EXPECT_DOUBLE_EQ(o.iperf.duration_sec, 30.0);
  EXPECT_TRUE(o.iperf.zerocopy);
  EXPECT_TRUE(o.iperf.skip_rx_copy);
  EXPECT_DOUBLE_EQ(o.iperf.fq_rate_bps, 50e9);
  EXPECT_EQ(o.kernel, kern::KernelVersion::V6_5);
  EXPECT_DOUBLE_EQ(o.optmem_max, 1e6);
  EXPECT_TRUE(o.big_tcp);
  EXPECT_EQ(o.ring, 8192);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.iperf.congestion, kern::CongestionAlgo::BbrV3);
  EXPECT_TRUE(o.iperf.json);
}

TEST(ParseCli, JobsIsAnUnknownFlag) {
  // A single spec runs through harness::run_test, whose repeats already
  // spread over the shared pool; there is no batch for --jobs to size.
  EXPECT_EQ(parse_cli({"--jobs", "4"}).error, "unknown flag: --jobs");
}

TEST(ParseCli, BigTcpOptionalSize) {
  const auto with_size = parse_cli({"--big-tcp", "256k"});
  EXPECT_TRUE(with_size.big_tcp);
  EXPECT_DOUBLE_EQ(with_size.big_tcp_bytes, 256e3);
  const auto without = parse_cli({"--big-tcp", "-Z"});
  EXPECT_TRUE(without.big_tcp);
  EXPECT_DOUBLE_EQ(without.big_tcp_bytes, 150.0 * 1024.0);
  EXPECT_TRUE(without.iperf.zerocopy);
}

TEST(ParseCli, Errors) {
  EXPECT_FALSE(parse_cli({"--bogus"}).error.empty());
  EXPECT_FALSE(parse_cli({"--fq-rate"}).error.empty());        // missing value
  EXPECT_FALSE(parse_cli({"--fq-rate", "quick"}).error.empty());
  EXPECT_FALSE(parse_cli({"--kernel", "4.4"}).error.empty());
  EXPECT_FALSE(parse_cli({"-P", "0"}).error.empty());
  EXPECT_FALSE(parse_cli({"-t", "-3"}).error.empty());
  // Time flags take the whole token as finite seconds > 0 that fit a SimTime.
  for (const char* flag : {"-t", "--probe-interval", "--ss-watch", "--perf-watch"}) {
    for (const char* bad : {"1e12", "inf", "nan", "0", "1e-12", "5s", "abc", ""}) {
      EXPECT_FALSE(parse_cli({flag, bad}).error.empty()) << flag << " " << bad;
    }
  }
  EXPECT_EQ(parse_cli({"-t", "1e12"}).error,
            "bad -t: 1e12 (want finite seconds > 0, below ~292 years)");
  // Integer flags take the whole token as an in-range integer.
  EXPECT_EQ(parse_cli({"--ring", "abc"}).error,
            "bad --ring: abc (want a whole number in [1, 2147483647])");
  EXPECT_FALSE(parse_cli({"--repeats", "2x"}).error.empty());
  EXPECT_FALSE(parse_cli({"--repeats", "0"}).error.empty());
  EXPECT_FALSE(parse_cli({"--repeats", "99999999999"}).error.empty());
  EXPECT_FALSE(parse_cli({"-P", "8.5"}).error.empty());
  EXPECT_FALSE(parse_cli({"--seed", "-1"}).error.empty());
  EXPECT_FALSE(parse_cli({"--seed", "18446744073709551616"}).error.empty());
  EXPECT_EQ(parse_cli({"--seed", "18446744073709551615"}).seed, ~std::uint64_t{0});
}

TEST(ParseCli, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).show_help);
  EXPECT_NE(cli_help().find("--fq-rate"), std::string::npos);
}

TEST(SpecFromCli, BuildsHarnessSpec) {
  auto o = parse_cli({"--testbed", "production", "-P", "8", "--fq-rate", "10G"});
  const auto spec = spec_from_cli(o);
  EXPECT_TRUE(spec.link_flow_control);  // production testbed has 802.3x
  EXPECT_EQ(spec.iperf.parallel, 8);
  EXPECT_NE(spec.name.find("production"), std::string::npos);
}

TEST(SpecFromCli, UnknownTestbedThrows) {
  CliOptions o;
  o.testbed = "fabric";
  EXPECT_THROW(spec_from_cli(o), std::invalid_argument);
}

TEST(RunCli, TextOutput) {
  auto o = parse_cli({"--testbed", "esnet", "-t", "3", "--fq-rate", "10G"});
  std::string out;
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.find("throughput"), std::string::npos);
  EXPECT_NE(out.find("Gbps"), std::string::npos);
}

TEST(RunCli, JsonOutput) {
  auto o = parse_cli({"--testbed", "esnet", "-t", "3", "-J", "--repeats", "2"});
  std::string out;
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.find("\"bits_per_second\""), std::string::npos);
  EXPECT_NE(out.find("\"samples_gbps\""), std::string::npos);
}

TEST(RunCli, BadFlagsReturnUsageError) {
  auto o = parse_cli({"--fq-rate", "banana"});
  std::string out;
  EXPECT_EQ(run_cli(o, out), 2);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(RunCli, UnknownPathFails) {
  auto o = parse_cli({"--testbed", "esnet", "--path", "WAN 999ms"});
  std::string out;
  EXPECT_EQ(run_cli(o, out), 2);
}

TEST(RunCli, DeterministicAcrossInvocations) {
  auto o = parse_cli({"--testbed", "esnet", "-t", "3", "--seed", "7"});
  std::string a, b;
  run_cli(o, a);
  run_cli(o, b);
  EXPECT_EQ(a, b);
}

// ---- documented command lines (tests/golden/cli_corpus.txt) ---------------

// Splits a shell line on spaces; double quotes group a value holding spaces.
std::vector<std::string> shell_words(const std::string& line) {
  std::vector<std::string> words;
  std::string word;
  bool quoted = false, open = false;
  for (const char c : line) {
    if (c == '"') {
      quoted = !quoted;
      open = true;
    } else if (c == ' ' && !quoted) {
      if (open) words.push_back(word);
      word.clear();
      open = false;
    } else {
      word += c;
      open = true;
    }
  }
  if (open) words.push_back(word);
  return words;
}

std::string telemetry_text(const obs::TelemetryConfig& t) {
  return strfmt("telemetry=%d probe_ns=%lld stream=%s ss=%d/%lld perf=%d/%lld", t.enabled,
                static_cast<long long>(t.probe_interval), t.trace_stream_path.c_str(),
                t.ss_enabled, static_cast<long long>(t.ss_interval), t.perf_enabled,
                static_cast<long long>(t.perf_interval));
}

std::string iperf3_parse(const std::vector<std::string>& args) {
  const CliOptions o = parse_cli(args);
  std::string out = strfmt(
      "  opts help=%d error=%s json=%d probe_interval=%.17g metrics_out=%s trace_out=%s "
      "trace_stream=%s ss_watch=%.17g force_ss=%d perf_watch=%.17g force_perf=%d scenario=%s "
      "record_out=%s record_timeline=%s\n",
      o.show_help, o.error.c_str(), o.iperf.json, o.probe_interval_sec, o.metrics_out.c_str(),
      o.trace_out.c_str(), o.trace_stream.c_str(), o.ss_watch_sec, o.force_ss, o.perf_watch_sec,
      o.force_perf, o.scenario_file.c_str(), o.record_out.c_str(), o.record_timeline.c_str());
  if (!o.error.empty()) return out;
  try {
    const auto spec = spec_from_cli(o);
    out += "  spec " + sweep::spec_key_hex(spec) + " " + spec.name + "\n";
    out += "  " + telemetry_text(spec.telemetry) +
           strfmt(" record=%d timeline=%s\n", spec.record, spec.scenario.name.c_str());
  } catch (const std::exception& e) {
    out += std::string("  spec error: ") + e.what() + "\n";
  }
  return out;
}

std::string sweep_parse(const std::vector<std::string>& args) {
  const auto cli = sweep::parse_sweep_cli(args);
  std::string out = strfmt(
      "  run help=%d error=%s jobs=%d cache=%s out=%s resume=%d report=%s "
      "plot_out=%s gc=%d max_age_days=%.17g salt_mismatch=%d dry_run=%d\n",
      cli.show_help, cli.error.c_str(), cli.run.jobs, cli.run.cache_dir.c_str(),
      cli.run.results_path.c_str(), cli.run.resume, cli.report_path.c_str(),
      cli.plot_out.c_str(), cli.gc, cli.gc_opts.max_age_days, cli.gc_opts.salt_mismatch,
      cli.gc_opts.dry_run);
  if (!cli.error.empty()) return out;
  out += strfmt("  grid name=%s testbed=%s ", cli.grid.name.c_str(), cli.grid.testbed.c_str()) +
         telemetry_text(cli.grid.telemetry) + "\n";
  try {
    for (const auto& cell : sweep::expand(cli.grid)) {
      out += strfmt("  cell %03zu %s %s\n", cell.index, sweep::spec_key_hex(cell.spec).c_str(),
                    cell.spec.name.c_str());
    }
  } catch (const std::exception& e) {
    out += std::string("  grid error: ") + e.what() + "\n";
  }
  return out;
}

// Every documented dtnsim-iperf3 / dtnsim-sweep line still parses to the
// same options and simulates the same specs. The lines run from a scratch
// directory that sees the repository's scenarios/ and the ci_burst.json
// timeline ci.yml writes.
TEST(CliCorpus, MatchesGolden) {
  namespace fs = std::filesystem;
  const fs::path corpus = fs::path(DTNSIM_SOURCE_DIR) / "tests/golden/cli_corpus.txt";
  const auto text = read_file(corpus.string());
  ASSERT_TRUE(text) << "missing " << corpus;
  const std::string& want = *text;

  const fs::path dir = fs::path(::testing::TempDir()) / "dtnsim_cli_corpus";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_directory_symlink(fs::path(DTNSIM_SOURCE_DIR) / "scenarios", dir / "scenarios");
  std::ofstream(dir / "ci_burst.json")
      << R"({"name": "ci-burst", "events": [{"at_sec": 0.5, "kind": "loss_burst",)"
      << R"( "value": 0.05, "duration_sec": 0.5, "jitter_sec": 0}]})";
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);

  // Comments and "$" lines are kept; the lines under each "$" are rebuilt.
  std::string got;
  std::istringstream lines(want);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("  ")) continue;
    got += line + "\n";
    if (!line.starts_with("$ ")) continue;
    std::vector<std::string> args = shell_words(line.substr(2));
    const std::string tool = args.empty() ? "" : args.front();
    if (!args.empty()) args.erase(args.begin());
    if (tool == "dtnsim-iperf3") {
      got += iperf3_parse(args);
    } else if (tool == "dtnsim-sweep") {
      got += sweep_parse(args);
    } else {
      got += "  not a dtnsim-iperf3 or dtnsim-sweep line\n";
    }
  }
  fs::current_path(cwd);

  EXPECT_TRUE(golden::matches(got, "cli_corpus.txt",
                              "a documented command line now simulates something else; "
                              "a new documented line goes in the file",
                              nullptr, "$ "));
}

}  // namespace
}  // namespace dtnsim::cli

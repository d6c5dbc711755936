// Unit tests: the command-line front end (rate parsing, flag handling,
// spec construction, end-to-end run).
#include <gtest/gtest.h>

#include "dtnsim/cli/cli.hpp"

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

}  // namespace
}  // namespace dtnsim::cli

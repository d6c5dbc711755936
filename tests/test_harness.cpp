// Unit tests: test harness (repeat aggregation, testbeds, determinism).
#include <gtest/gtest.h>

#include "dtnsim/harness/runner.hpp"
#include "dtnsim/sweep/cache.hpp"

namespace dtnsim::harness {
namespace {

TEST(Testbeds, AmLightShape) {
  const auto tb = amlight();
  EXPECT_EQ(tb.paths.size(), 4u);  // LAN + 25/54/104 ms
  EXPECT_EQ(tb.lan().name, "LAN");
  EXPECT_FALSE(tb.link_flow_control);
  EXPECT_EQ(tb.sender.cpu.vendor, cpu::Vendor::Intel);
  EXPECT_GT(tb.sender.virt_factor, 1.0);  // runs in the tuned VM
  EXPECT_NEAR(units::to_millis(tb.path_named("WAN 104ms").rtt), 104.0, 1e-9);
  EXPECT_DOUBLE_EQ(tb.path_named("WAN 25ms").capacity_bps, 80e9);
}

TEST(Testbeds, BaremetalHasNoVirtFactor) {
  const auto tb = amlight_baremetal();
  EXPECT_DOUBLE_EQ(tb.sender.virt_factor, 1.0);
  EXPECT_EQ(tb.sender.kernel.version, kern::KernelVersion::V5_10);
}

TEST(Testbeds, EsnetShape) {
  const auto tb = esnet();
  EXPECT_EQ(tb.sender.cpu.vendor, cpu::Vendor::Amd);
  EXPECT_DOUBLE_EQ(tb.sender.nic.line_rate_bps, 200e9);
  EXPECT_EQ(tb.sender.tuning.ring_descriptors, 8192);  // the AMD ring tuning
  EXPECT_FALSE(tb.link_flow_control);
}

TEST(Testbeds, ProductionHasFlowControl) {
  const auto tb = esnet_production();
  EXPECT_TRUE(tb.link_flow_control);
  EXPECT_TRUE(tb.paths[0].deep_buffers);
  EXPECT_DOUBLE_EQ(tb.sender.nic.line_rate_bps, 100e9);
}

TEST(Testbeds, UnknownPathThrows) {
  EXPECT_THROW(amlight().path_named("WAN 99ms"), std::out_of_range);
  EXPECT_THROW(amlight_wan(99), std::invalid_argument);
}

TEST(Runner, AggregatesRepeats) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 5;
  spec.iperf.duration_sec = 5;
  const auto r = run_test(spec);
  EXPECT_EQ(r.repeats, 5);
  EXPECT_EQ(r.samples_gbps.size(), 5u);
  EXPECT_GE(r.max_gbps, r.avg_gbps);
  EXPECT_LE(r.min_gbps, r.avg_gbps);
  EXPECT_GT(r.stdev_gbps, 0.0);  // per-run efficiency noise
}

TEST(Runner, DeterministicAcrossInvocations) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 3;
  spec.iperf.duration_sec = 3;
  const auto a = run_test(spec);
  const auto b = run_test(spec);
  EXPECT_DOUBLE_EQ(a.avg_gbps, b.avg_gbps);
  EXPECT_DOUBLE_EQ(a.stdev_gbps, b.stdev_gbps);
}

TEST(Runner, SeedChangesSamples) {
  auto spec = TestSpec::on(esnet(), "LAN", app::IperfOptions{});
  spec.repeats = 3;
  spec.iperf.duration_sec = 3;
  const auto a = run_test(spec);
  spec.base_seed = 999;
  const auto b = run_test(spec);
  EXPECT_NE(a.samples_gbps[0], b.samples_gbps[0]);
}

TEST(Runner, LabelAndDefaults) {
  const auto spec = TestSpec::on(esnet(), "WAN 63ms", app::IperfOptions{}, "custom");
  EXPECT_EQ(spec.name, "custom");
  const auto unnamed = TestSpec::on(esnet(), "WAN 63ms", app::IperfOptions{});
  EXPECT_NE(unnamed.name.find("WAN 63ms"), std::string::npos);
}

// The whole spec: its name and its cache-key text (every keyed knob).
TEST(Runner, EmptyPathIsTheLan) {
  for (const auto& tb : {amlight(), esnet_production()}) {
    const auto blank = TestSpec::on(tb, "", {});
    const auto lan = TestSpec::on(tb, tb.lan().name, {});
    EXPECT_EQ(blank.name, tb.name + " " + tb.lan().name);
    EXPECT_EQ(blank.name, lan.name);
    EXPECT_EQ(sweep::canonical_text(blank), sweep::canonical_text(lan));
  }
}

// ss snapshots and perf attribution each arm the telemetry they ride on.
TEST(Runner, SsOrPerfAloneArmsTelemetry) {
  for (const bool ss : {true, false}) {
    auto spec = TestSpec::on(esnet(), "LAN", {.duration_sec = 2});
    spec.repeats = 1;
    spec.telemetry.ss_enabled = ss;
    spec.telemetry.perf_enabled = !ss;
    const auto r = run_test(spec);
    EXPECT_EQ(r.ss_log.empty(), !ss);
    EXPECT_EQ(r.perf_log.empty(), ss);
    EXPECT_EQ(r.repeat_series.size(), 1u);
  }
}

TEST(Runner, BatchRunsAll) {
  app::IperfOptions quick;
  quick.duration_sec = 2;
  std::vector<TestSpec> specs = {TestSpec::on(esnet(), "LAN", quick),
                                 TestSpec::on(esnet(), "WAN 63ms", quick)};
  for (auto& s : specs) s.repeats = 2;
  const auto results = run_tests(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].avg_gbps, results[1].avg_gbps);  // LAN beats WAN default
}

TEST(Runner, FlowRangeTracked) {
  auto spec = TestSpec::on(esnet_production(), "production 63ms", app::IperfOptions{});
  spec.iperf.parallel = 8;
  spec.iperf.duration_sec = 10;
  spec.repeats = 3;
  const auto r = run_test(spec);
  EXPECT_GT(r.flow_min_gbps, 0.0);
  EXPECT_GT(r.flow_max_gbps, r.flow_min_gbps);
}

}  // namespace
}  // namespace dtnsim::harness

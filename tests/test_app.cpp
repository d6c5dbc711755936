// Unit tests: iperf3 tool model (option resolution, versions, JSON output).
#include <gtest/gtest.h>

#include "dtnsim/app/iperf.hpp"
#include "dtnsim/harness/testbeds.hpp"

namespace dtnsim::app {
namespace {

TEST(IperfOptions, PatchedVersionPassesEverythingThrough) {
  IperfOptions o;
  o.zerocopy = true;
  o.skip_rx_copy = true;
  o.fq_rate_bps = 50e9;
  const auto eff = resolve_options(o, IperfVersion::patched_3_17());
  EXPECT_TRUE(eff.zerocopy);
  EXPECT_TRUE(eff.skip_rx_copy);
  EXPECT_DOUBLE_EQ(eff.fq_rate_bps, 50e9);
  EXPECT_TRUE(eff.warnings.empty());
}

TEST(IperfOptions, StockToolDropsPatchFlags) {
  IperfOptions o;
  o.zerocopy = true;
  o.skip_rx_copy = true;
  const auto eff = resolve_options(o, IperfVersion::stock_3_16());
  EXPECT_FALSE(eff.zerocopy);
  EXPECT_FALSE(eff.skip_rx_copy);
  EXPECT_NE(eff.warnings.find("1690"), std::string::npos);
}

TEST(IperfOptions, FqRateClampedWithoutPatch1728) {
  // Paper §V-A: "pacing single flows above 32 Gbps ... requires a recent
  // patch to iperf3".
  IperfOptions o;
  o.fq_rate_bps = 50e9;
  const auto eff = resolve_options(o, IperfVersion::stock_3_16());
  EXPECT_DOUBLE_EQ(eff.fq_rate_bps, 32e9);
  EXPECT_NE(eff.warnings.find("1728"), std::string::npos);
  // At or below 32G no clamp applies.
  o.fq_rate_bps = 30e9;
  EXPECT_DOUBLE_EQ(resolve_options(o, IperfVersion::stock_3_16()).fq_rate_bps, 30e9);
}

TEST(IperfOptions, MultithreadedSince316) {
  EXPECT_TRUE(IperfVersion::stock_3_16().multithreaded());
  EXPECT_FALSE((IperfVersion{3, 15, false, false}).multithreaded());
}

TEST(IperfTool, RunProducesReport) {
  const auto tb = harness::esnet();
  IperfOptions o;
  o.duration_sec = 5;
  o.fq_rate_bps = 20e9;
  const auto rep = IperfTool().run(tb.sender, tb.receiver, tb.lan(), o);
  EXPECT_NEAR(rep.sum_received_gbps, 20.0, 1.5);
  EXPECT_EQ(rep.per_stream_gbps.size(), 1u);
  EXPECT_EQ(rep.interval_gbps.size(), 5u);
  EXPECT_FALSE(rep.summary_line().empty());
}

TEST(IperfTool, ParallelStreamsReported) {
  const auto tb = harness::esnet();
  IperfOptions o;
  o.duration_sec = 5;
  o.parallel = 4;
  o.fq_rate_bps = 10e9;
  const auto rep = IperfTool().run(tb.sender, tb.receiver, tb.lan(), o);
  EXPECT_EQ(rep.per_stream_gbps.size(), 4u);
  EXPECT_NEAR(rep.sum_received_gbps, 40.0, 3.0);
}

TEST(IperfTool, JsonHasIperfShape) {
  const auto tb = harness::esnet();
  IperfOptions o;
  o.duration_sec = 3;
  o.json = true;
  const auto rep = IperfTool().run(tb.sender, tb.receiver, tb.lan(), o);
  const Json j = rep.to_json(o);
  ASSERT_NE(j.find("start"), nullptr);
  ASSERT_NE(j.find("intervals"), nullptr);
  ASSERT_NE(j.find("end"), nullptr);
  EXPECT_EQ(j.find("intervals")->size(), 3u);
  const std::string text = j.dump(2);
  EXPECT_NE(text.find("bits_per_second"), std::string::npos);
  EXPECT_NE(text.find("retransmits"), std::string::npos);
  EXPECT_NE(text.find("cpu_utilization_percent"), std::string::npos);
}

}  // namespace
}  // namespace dtnsim::app

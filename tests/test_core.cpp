// Unit tests: TuningAdvisor.
#include <gtest/gtest.h>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim {
namespace {

TEST(Advisor, TunedHostOnCleanLanIsQuiet) {
  const auto tb = harness::esnet(kern::KernelVersion::V6_8);
  const auto advice =
      advise(tb.sender, tb.lan(), UseCase::ParallelStreamDtn, /*fc=*/true);
  EXPECT_FALSE(advice.has_critical());
}

TEST(Advisor, StockHostOnWanIsCritical) {
  host::HostConfig h;
  h.tuning = host::TuningConfig::stock();
  const auto advice =
      advise(h, harness::esnet_wan(), UseCase::SingleFlowBenchmark, false);
  EXPECT_TRUE(advice.has_critical());
  // Every §V-A headline shows up.
  const std::string text = advice.to_string();
  EXPECT_NE(text.find("irqbalance"), std::string::npos);
  EXPECT_NE(text.find("default_qdisc=fq"), std::string::npos);
  EXPECT_NE(text.find("iommu=pt"), std::string::npos);
  EXPECT_NE(text.find("optmem_max"), std::string::npos);
}

TEST(Advisor, OldKernelFlagged) {
  auto tb = harness::esnet(kern::KernelVersion::V5_15);
  const auto advice = advise(tb.sender, tb.lan(), UseCase::SingleFlowBenchmark, true);
  EXPECT_NE(advice.to_string().find("6.8"), std::string::npos);
}

TEST(Advisor, NoFlowControlSuggestsPacing) {
  const auto tb = harness::esnet();
  const auto advice = advise(tb.sender, tb.lan(), UseCase::ParallelStreamDtn, false);
  EXPECT_NE(advice.to_string().find("802.3x"), std::string::npos);
  EXPECT_TRUE(advice.has_critical());
}

TEST(Advisor, AmdRingAdviceVendorSpecific) {
  auto tb = harness::esnet();
  tb.sender.tuning.ring_descriptors = 1024;
  const auto amd = advise(tb.sender, tb.lan(), UseCase::SingleFlowBenchmark, true);
  EXPECT_NE(amd.to_string().find("8192"), std::string::npos);
  auto am = harness::amlight();
  am.sender.tuning.ring_descriptors = 1024;
  const auto intel = advise(am.sender, am.lan(), UseCase::SingleFlowBenchmark, true);
  EXPECT_EQ(intel.to_string().find("8192"), std::string::npos);
}

TEST(Advisor, BigTcpZerocopyConflictNoted) {
  auto tb = harness::esnet();
  tb.sender.tuning.big_tcp_enabled = true;
  const auto advice = advise(tb.sender, tb.lan(), UseCase::ParallelStreamDtn, true);
  EXPECT_NE(advice.to_string().find("MAX_SKB_FRAGS"), std::string::npos);
}

TEST(Advisor, PacingRecommendation) {
  // §V-B: 1 Gbps for 10G clients; 5-8 Gbps between 100G hosts.
  EXPECT_DOUBLE_EQ(recommended_pacing(units::Rate::from_gbps(100), units::Rate::from_gbps(10)).gbps(), 1.0);
  EXPECT_DOUBLE_EQ(recommended_pacing(units::Rate::from_gbps(100), units::Rate::from_gbps(40)).gbps(), 5.0);
  EXPECT_NEAR(recommended_pacing(units::Rate::from_gbps(100), units::Rate::from_gbps(100)).gbps(), 8.0, 0.5);
}

}  // namespace
}  // namespace dtnsim

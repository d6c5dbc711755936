// Unit tests: iperf3 tool model (option resolution per tool version).
#include <gtest/gtest.h>

#include "dtnsim/app/iperf.hpp"

namespace dtnsim::app {
namespace {

TEST(IperfOptions, PatchedVersionPassesEverythingThrough) {
  IperfOptions o;
  o.zerocopy = true;
  o.skip_rx_copy = true;
  o.fq_rate_bps = 50e9;
  const auto eff = resolve_options(o, IperfVersion::patched_3_17());
  EXPECT_TRUE(eff.options.zerocopy);
  EXPECT_TRUE(eff.options.skip_rx_copy);
  EXPECT_DOUBLE_EQ(eff.options.fq_rate_bps, 50e9);
  EXPECT_TRUE(eff.warnings.empty());
}

TEST(IperfOptions, StockToolDropsPatchFlags) {
  IperfOptions o;
  o.zerocopy = true;
  o.skip_rx_copy = true;
  const auto eff = resolve_options(o, IperfVersion::stock_3_16());
  EXPECT_FALSE(eff.options.zerocopy);
  EXPECT_FALSE(eff.options.skip_rx_copy);
  EXPECT_NE(eff.warnings.find("1690"), std::string::npos);
}

TEST(IperfOptions, FqRateClampedWithoutPatch1728) {
  // Paper §V-A: "pacing single flows above 32 Gbps ... requires a recent
  // patch to iperf3".
  IperfOptions o;
  o.fq_rate_bps = 50e9;
  const auto eff = resolve_options(o, IperfVersion::stock_3_16());
  EXPECT_DOUBLE_EQ(eff.options.fq_rate_bps, 32e9);
  EXPECT_NE(eff.warnings.find("1728"), std::string::npos);
  // At or below 32G no clamp applies.
  o.fq_rate_bps = 30e9;
  EXPECT_DOUBLE_EQ(resolve_options(o, IperfVersion::stock_3_16()).options.fq_rate_bps, 30e9);
}

TEST(IperfOptions, MultithreadedSince316) {
  EXPECT_TRUE(IperfVersion::stock_3_16().multithreaded());
  EXPECT_FALSE((IperfVersion{3, 15, false, false}).multithreaded());
  // Before 3.16 the streams share one thread: the tool runs one.
  IperfOptions o;
  o.parallel = 4;
  EXPECT_EQ(resolve_options(o, IperfVersion::stock_3_16()).options.parallel, 4);
  const auto eff = resolve_options(o, IperfVersion{3, 15, false, false});
  EXPECT_EQ(eff.options.parallel, 1);
  EXPECT_NE(eff.warnings.find("single-threaded"), std::string::npos);
}

}  // namespace
}  // namespace dtnsim::app

// Integration tests: parallel streams beyond the registry's cells. The
// Tables I-III and Figs. 10-11 anchors are claims in
// harness/experiments.cpp, checked by the paper_claims ctest.
#include <gtest/gtest.h>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim {
namespace {

// ---- Table III: production DTNs with 802.3x flow control ----

TEST(TableIII, FlowControlPreventsNicDrops) {
  const auto tb = harness::esnet_production();
  flow::TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = tb.paths[0];
  cfg.streams = 8;
  cfg.link_flow_control = true;
  cfg.duration = units::SimTime::from_seconds(10);
  cfg.seed = 5;
  const auto res = flow::run_transfer(cfg);
  EXPECT_DOUBLE_EQ(res.dropped_bytes_nic, 0.0);
}

}  // namespace
}  // namespace dtnsim

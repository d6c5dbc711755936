// Integration tests: single-stream anchors on cells outside the registry
// (other kernels, optmem settings and cross-testbed comparisons). The
// anchors on registry cells (Figs. 4-9, 12, 13) are claims in
// harness/experiments.cpp, checked by the paper_claims ctest.
//
// Shorter runs (20 s x 3) than the paper's 60 s x 10 keep CI fast; the
// tolerances absorb the extra ramp-up share.
#include <gtest/gtest.h>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim {
namespace {

harness::TestResult quick(Experiment e) {
  return e.duration(units::SimTime::from_seconds(20)).repeats(3).run();
}

// ---- Fig. 5 / Fig. 6 anchors ----

TEST(SingleStream, IntelBeatsAmdOnLan) {
  // The paper's AVX-512 / L3 architecture observation.
  const auto intel = quick(Experiment(harness::amlight()));
  const auto amd = quick(Experiment(harness::esnet()));
  EXPECT_GT(intel.avg_gbps, amd.avg_gbps * 1.15);
}

TEST(SingleStream, ZerocopyPacingFlatAcrossRtt) {
  // "with proper tuning, single stream throughput is identical on all paths"
  double prev = -1;
  for (const char* path : {"WAN 25ms", "WAN 54ms"}) {
    const auto r = quick(Experiment(harness::amlight())
                             .path(path)
                             .zerocopy()
                             .pacing(units::Rate::from_gbps(50))
                             .optmem_max(units::Bytes(3405376)));
    EXPECT_NEAR(r.avg_gbps, 49.0, 2.5) << path;
    if (prev > 0) {
      EXPECT_NEAR(r.avg_gbps, prev, 2.0);
    }
    prev = r.avg_gbps;
  }
}

TEST(SingleStream, BigTcpNoopOn515) {
  const auto def = quick(Experiment(harness::amlight()).kernel(kern::KernelVersion::V5_15));
  const auto big = quick(
      Experiment(harness::amlight()).kernel(kern::KernelVersion::V5_15).big_tcp(true));
  EXPECT_NEAR(big.avg_gbps, def.avg_gbps, def.avg_gbps * 0.03);
}

// ---- Fig. 7 / Fig. 8: CPU shapes ----

TEST(CpuShape, ZerocopyPacingDropsSenderCpu) {
  const auto def = quick(Experiment(harness::amlight()).path("WAN 25ms"));
  const auto zcp = quick(Experiment(harness::amlight())
                             .path("WAN 25ms")
                             .zerocopy()
                             .pacing(units::Rate::from_gbps(50))
                             .optmem_max(units::Bytes(3405376)));
  EXPECT_GT(def.snd_cpu_pct, 82.0);          // sender-bound default WAN
  EXPECT_LT(zcp.snd_cpu_pct, def.snd_cpu_pct * 0.6);
  EXPECT_GT(zcp.rcv_cpu_pct, zcp.snd_cpu_pct);  // receiver becomes the bottleneck
}

// ---- Fig. 9: optmem sweep ----

TEST(Optmem, LanUnaffectedBySmallOptmem) {
  // Tiny in-flight windows on the LAN: even 20 KB suffices.
  const auto r = quick(Experiment(harness::amlight())
                           .zerocopy()
                           .pacing(units::Rate::from_gbps(50))
                           .optmem_max(units::Bytes(20480)));
  EXPECT_GT(r.avg_gbps, 44.0);
}

TEST(Optmem, BigOptmemCutsSenderCpu) {
  const auto mid = quick(Experiment(harness::amlight())
                             .path("WAN 104ms")
                             .zerocopy()
                             .pacing(units::Rate::from_gbps(50))
                             .optmem_max(units::Bytes(1048576)));
  const auto big = quick(Experiment(harness::amlight())
                             .path("WAN 104ms")
                             .zerocopy()
                             .pacing(units::Rate::from_gbps(50))
                             .optmem_max(units::Bytes(3405376)));
  EXPECT_LT(big.snd_cpu_pct, mid.snd_cpu_pct * 0.75);
}

}  // namespace
}  // namespace dtnsim

#include "dtnsim/app/iperf.hpp"

#include <algorithm>

namespace dtnsim::app {
namespace {

constexpr double kFqRate32BitMax = 32.0e9;  // pre-patch-1728 uint ceiling

}  // namespace

EffectiveOptions resolve_options(const IperfOptions& opts, const IperfVersion& version) {
  EffectiveOptions eff;
  eff.options = opts;
  IperfOptions& o = eff.options;
  o.parallel = std::max(opts.parallel, 1);

  if (o.parallel > 1 && !version.multithreaded()) {
    // Pre-3.16 single-threaded iperf3: all streams share one thread/core,
    // modelled as one stream; tests should use >= 3.16 as the paper does.
    o.parallel = 1;
    eff.warnings += "iperf3 < 3.16 is single-threaded; parallel streams share one core. ";
  }

  if ((opts.zerocopy || opts.skip_rx_copy) && !version.patch_1690) {
    o.zerocopy = false;
    o.skip_rx_copy = false;
    eff.warnings += "--zerocopy=z/--skip-rx-copy require patch #1690; ignored. ";
  }

  if (opts.fq_rate_bps > kFqRate32BitMax && !version.patch_1728) {
    // Without the 64-bit fq-rate patch the value wraps/clamps; the paper's
    // conclusion: "pacing single flows above 32 Gbps ... requires a recent
    // patch to iperf3".
    o.fq_rate_bps = kFqRate32BitMax;
    eff.warnings += "--fq-rate above 32G requires patch #1728; clamped to 32G. ";
  }
  return eff;
}

}  // namespace dtnsim::app

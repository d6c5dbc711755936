// iperf3 tool model.
//
// The paper uses iperf3 v3.17 with two patches: #1690 (adds --zerocopy=z
// using MSG_ZEROCOPY and --skip-rx-copy using MSG_TRUNC, inspired by neper)
// and #1728 (widens --fq-rate to 64 bits so pacing above 32 Gbps works).
// v3.16 introduced multi-threaded parallel streams, required for -P tests.
// resolve_options turns an option set into what a given tool version would
// actually run; harness::run_test runs IperfOptions.
#pragma once

#include <string>

#include "dtnsim/kern/sysctl.hpp"
#include "dtnsim/util/fields.hpp"

namespace dtnsim::app {

struct IperfVersion {
  int major = 3;
  int minor = 17;
  bool patch_1690 = true;  // --zerocopy=z / --skip-rx-copy
  bool patch_1728 = true;  // 64-bit --fq-rate

  bool multithreaded() const { return major > 3 || (major == 3 && minor >= 16); }
  static IperfVersion patched_3_17() { return IperfVersion{}; }
  static IperfVersion stock_3_16() { return IperfVersion{3, 16, false, false}; }
};

struct IperfOptions {
  int parallel = 1;                 // -P
  double duration_sec = 60.0;       // -t
  double fq_rate_bps = 0.0;         // --fq-rate (per stream)
  bool zerocopy = false;            // --zerocopy=z
  bool skip_rx_copy = false;        // --skip-rx-copy
  kern::CongestionAlgo congestion = kern::CongestionAlgo::Cubic;  // -C
  bool json = false;                // --json
};

// --json changes what the tool prints, not what it runs.
template <class V>
constexpr void fields(V& v, IperfOptions& o) {
  v("parallel", o.parallel);
  v("duration_sec", o.duration_sec);
  v("fq_rate_bps", o.fq_rate_bps);
  v("zerocopy", o.zerocopy);
  v("skip_rx_copy", o.skip_rx_copy);
  v("congestion", wire::named(o.congestion, kern::congestion_name));
  v("json", o.json, wire::unkeyed);
}
static_assert(wire::field_count<IperfOptions>() == wire::member_count<IperfOptions>());

// What the tool will actually run, after version checks: without patch
// #1690 no zerocopy or skip-rx-copy, without #1728 --fq-rate truncated to
// 32 bits, and before 3.16 one stream. `warnings` says what changed.
struct EffectiveOptions {
  IperfOptions options;
  std::string warnings;
};

EffectiveOptions resolve_options(const IperfOptions& opts, const IperfVersion& version);

}  // namespace dtnsim::app

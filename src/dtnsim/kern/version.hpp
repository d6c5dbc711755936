// Kernel version profiles and feature gates.
//
// The paper benchmarks Ubuntu's 5.15 (22.04 stock), 6.5 (22.04 HWE) and 6.8
// (24.04 stock / 22.04 edge HWE) kernels, plus Debian 11's 5.10 for the
// VM-validation experiment and 6.11 for the hardware-GRO future-work runs.
// Each profile carries:
//   - feature availability (MSG_ZEROCOPY >= 4.17, BIG TCP IPv6 >= 5.19,
//     BIG TCP IPv4 >= 6.3, hardware GRO >= 6.11 on ConnectX-7),
//   - MAX_SKB_FRAGS (17 stock; 45 on the custom build that lets BIG TCP and
//     MSG_ZEROCOPY coexist),
//   - per-vendor stack efficiency factors calibrated to the paper's measured
//     kernel-to-kernel gains (AMD: +12% 5.15->6.5, +17% 6.5->6.8; Intel:
//     +27% LAN 5.15->6.8).
#pragma once

#include <string>

#include "dtnsim/cpu/spec.hpp"

namespace dtnsim::kern {

enum class KernelVersion { V5_10, V5_15, V6_5, V6_8, V6_11 };

const char* kernel_version_name(KernelVersion v);

struct KernelProfile {
  KernelVersion version = KernelVersion::V6_8;
  std::string name = "6.8";
  int major = 6;
  int minor = 8;

  bool supports_msg_zerocopy = true;  // Linux >= 4.17
  bool supports_big_tcp_ipv6 = true;  // Linux >= 5.19
  bool supports_big_tcp_ipv4 = true;  // Linux >= 6.3
  bool supports_hw_gro = false;       // Linux >= 6.11 + ConnectX-7

  // MAX_SKB_FRAGS: stock 17; CONFIG tweak to 45 enables BIG TCP+zerocopy.
  int max_skb_frags = 17;
  bool custom_build = false;

  double stack_factor_intel = 1.0;
  double stack_factor_amd = 1.0;

  double stack_factor(cpu::Vendor vendor) const {
    switch (vendor) {
      case cpu::Vendor::Intel:
        return stack_factor_intel;
      case cpu::Vendor::Amd:
        return stack_factor_amd;
      case cpu::Vendor::Generic:
        return (stack_factor_intel + stack_factor_amd) / 2.0;
    }
    return stack_factor_intel;
  }

  bool at_least(int maj, int min) const {
    return major > maj || (major == maj && minor >= min);
  }
};

// The profile's name ("6.8", "6.8-frags45") is its identity, keyed as
// "version"; the enum and the version numbers follow from it.
template <class V>
constexpr void fields(V& v, KernelProfile& k) {
  v("release", wire::named(k.version, kernel_version_name), wire::unkeyed);
  v("version", k.name);
  v("major", k.major, wire::unkeyed);
  v("minor", k.minor, wire::unkeyed);
  v("msg_zerocopy", k.supports_msg_zerocopy);
  v("big_tcp_ipv6", k.supports_big_tcp_ipv6);
  v("big_tcp_ipv4", k.supports_big_tcp_ipv4);
  v("hw_gro", k.supports_hw_gro);
  v("max_skb_frags", k.max_skb_frags);
  v("custom_build", k.custom_build);
  v("stack_factor_intel", k.stack_factor_intel);
  v("stack_factor_amd", k.stack_factor_amd);
}
static_assert(wire::field_count<KernelProfile>() == wire::member_count<KernelProfile>());

KernelProfile kernel_profile(KernelVersion v);

// The paper's future-work custom kernel: same base version, but compiled
// with CONFIG MAX_SKB_FRAGS=45 so BIG TCP and MSG_ZEROCOPY can combine.
KernelProfile custom_kernel_with_frags(KernelProfile base, int max_skb_frags);

}  // namespace dtnsim::kern

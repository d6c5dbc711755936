// Host tuning configuration — the paper's §III-D knobs in one struct.
//
// Everything the authors toggled is here: the fasterdata sysctl set, IRQ
// affinity policy, SMT, the CPU governor, ring buffer size, iommu=pt, MTU,
// BIG TCP and (future-work) hardware GRO.
#pragma once

#include "dtnsim/kern/sysctl.hpp"

namespace dtnsim::host {

struct TuningConfig {
  kern::SysctlConfig sysctl = kern::SysctlConfig::fasterdata_tuned();
  // irqbalance disabled + set_irq_affinity_cpulist.sh 0-7 + numactl -C 8-15.
  bool irqbalance_disabled = true;
  bool performance_governor = true;  // cpupower frequency-set -g performance
  bool smt_off = true;               // echo off > /sys/.../smt/control
  int ring_descriptors = 1024;       // ethtool -G rx/tx (8192 helps AMD)
  bool iommu_passthrough = true;     // iommu=pt boot parameter
  double mtu_bytes = 9000.0;
  // ip link set ... gso_ipv4_max_size / gro_ipv4_max_size (paper: 150 KB).
  bool big_tcp_enabled = false;
  double big_tcp_bytes = 150.0 * 1024.0;
  // ethtool rx-gro-hw on (ConnectX-7 + Linux 6.11 only).
  bool hw_gro_enabled = false;

  // The paper's production-ready DTN tuning.
  static TuningConfig dtn_tuned();
  // A stock, untuned host (what the TuningAdvisor warns about).
  static TuningConfig stock();
};

// A host writes this list flat: its sysctl set as "sysctl.*", the other
// knobs as "tuning.*", the names every cache key has used.
template <class V>
constexpr void fields(V& v, TuningConfig& t) {
  v("sysctl", t.sysctl);
  v("tuning.irqbalance_disabled", t.irqbalance_disabled);
  v("tuning.performance_governor", t.performance_governor);
  v("tuning.smt_off", t.smt_off);
  v("tuning.ring_descriptors", t.ring_descriptors);
  v("tuning.iommu_passthrough", t.iommu_passthrough);
  v("tuning.mtu_bytes", t.mtu_bytes);
  v("tuning.big_tcp_enabled", t.big_tcp_enabled);
  v("tuning.big_tcp_bytes", t.big_tcp_bytes);
  v("tuning.hw_gro_enabled", t.hw_gro_enabled);
}
static_assert(wire::field_count<TuningConfig>() == wire::member_count<TuningConfig>());

}  // namespace dtnsim::host

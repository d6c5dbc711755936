// Testbed definitions (paper Figs. 1-3).
//
// AmLight: Intel Xeon 6346 hosts, ConnectX-5 100G, NoviFlow switches, real
// WAN paths at 25/54/104 ms (WAN test traffic capped at 80 Gbps; ~16 Gbps of
// production traffic shares the paths). Tests run inside a tuned Ubuntu VM
// (PCI passthrough, pinned vCPUs); bare-metal configs are also provided for
// the Fig. 4 comparison.
//
// ESnet testbed: AMD EPYC 73F3 hosts, ConnectX-7 200G, Edgecore AS9716-32D
// (64 MB shared buffer), LAN + WAN loop; switches support no 802.3x flow
// control. The production-DTN pair (Table III) sits 63 ms apart behind
// flow-control-capable gear at 100G.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dtnsim/host/host.hpp"
#include "dtnsim/net/path.hpp"

namespace dtnsim::harness {

struct Testbed {
  std::string name;
  host::HostConfig sender;
  host::HostConfig receiver;
  std::vector<net::PathSpec> paths;  // paths[0] is the LAN
  bool link_flow_control = false;

  const net::PathSpec& lan() const { return paths.front(); }
  const net::PathSpec& path_named(const std::string& name) const;
};

// AmLight, running inside the tuned VM as the paper does. `ring_descriptors`
// defaults to 1024 (the 8192 tuning "only seemed to help on AMD").
Testbed amlight(kern::KernelVersion kernel = kern::KernelVersion::V6_8);
// AmLight on bare metal (Debian 11 / kernel 5.10) for the Fig. 4 check.
Testbed amlight_baremetal(kern::KernelVersion kernel = kern::KernelVersion::V5_10);
// AmLight in the VM but forced to a given kernel (VM image swap).
Testbed amlight_vm(kern::KernelVersion kernel);

Testbed esnet(kern::KernelVersion kernel = kern::KernelVersion::V6_8);
Testbed esnet_production(kern::KernelVersion kernel = kern::KernelVersion::V5_15);

// CLI-facing registry: amlight | amlight-baremetal | esnet | production.
// Without a kernel each testbed runs its own default (the functions above).
// Throws std::invalid_argument for an unknown name. Shared by the run
// tools, the sweep grid (which rebuilds the testbed per kernel cell) and
// dtnsim-advisor.
Testbed testbed_by_name(const std::string& name,
                        std::optional<kern::KernelVersion> kernel = std::nullopt);

// Individual paths, exposed for custom experiments.
net::PathSpec amlight_lan();
net::PathSpec amlight_wan(int rtt_ms);  // 25, 54 or 104
net::PathSpec esnet_lan();
net::PathSpec esnet_wan();
net::PathSpec esnet_production_path();

}  // namespace dtnsim::harness

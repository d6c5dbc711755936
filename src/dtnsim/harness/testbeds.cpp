#include "dtnsim/harness/testbeds.hpp"

#include <stdexcept>

#include "dtnsim/host/vm.hpp"

namespace dtnsim::harness {
namespace {

host::HostConfig amlight_host(kern::KernelVersion kernel, bool vm) {
  host::HostConfig h;
  h.name = vm ? "amlight-dtn-vm" : "amlight-dtn";
  h.cpu = cpu::intel_xeon_6346();
  h.kernel = kern::kernel_profile(kernel);
  h.nic = net::connectx5_100g();
  h.tuning = host::TuningConfig::dtn_tuned();
  h.tuning.ring_descriptors = 1024;  // ring tuning did not help Intel
  if (vm) {
    host::VmConfig vmc;  // PCI passthrough + pinned vCPUs + iommu=pt
    h.virt_factor = host::virtualization_factor(vmc);
  }
  return h;
}

host::HostConfig esnet_host(kern::KernelVersion kernel) {
  host::HostConfig h;
  h.name = "esnet-dtn";
  h.cpu = cpu::amd_epyc_73f3();
  h.kernel = kern::kernel_profile(kernel);
  h.nic = net::connectx7_200g();
  h.tuning = host::TuningConfig::dtn_tuned();
  h.tuning.ring_descriptors = 8192;  // ethtool -G rx 8192 tx 8192 (AMD hosts)
  return h;
}

}  // namespace

net::PathSpec amlight_lan() {
  net::PathSpec p;
  p.name = "LAN";
  p.rtt = units::micros(200);
  p.capacity_bps = 100e9;
  p.hops = 1;
  // Shallow Tofino shared buffer: unpaced many-flow collisions cut in.
  p.burst_tolerance_bps = 70e9;
  return p;
}

net::PathSpec amlight_wan(int rtt_ms) {
  if (rtt_ms != 25 && rtt_ms != 54 && rtt_ms != 104) {
    throw std::invalid_argument("AmLight WAN paths: 25, 54 or 104 ms");
  }
  net::PathSpec p;
  p.name = "WAN " + std::to_string(rtt_ms) + "ms";
  p.rtt = units::millis(rtt_ms);
  p.capacity_bps = 80e9;  // WAN testing limited to 80G to protect production
  p.hops = 2 + rtt_ms / 20;
  p.bg_traffic_bps = 16e9;  // estimated production traffic during the tests
  p.bg_burst_sigma = 0.35;
  p.burst_tolerance_bps = 60e9;
  return p;
}

net::PathSpec esnet_lan() {
  net::PathSpec p;
  p.name = "LAN";
  p.rtt = units::micros(200);
  p.capacity_bps = 200e9;
  p.hops = 1;
  p.burst_tolerance_bps = 175e9;  // AS9716 64MB shared buffer, 200G egress
  return p;
}

net::PathSpec esnet_wan() {
  net::PathSpec p;
  p.name = "WAN 63ms";
  p.rtt = units::millis(63);
  p.capacity_bps = 200e9;
  p.hops = 8;
  // The paper: flows interfere "any time the total bandwidth attempted ...
  // is over 120 Gbps" on this path.
  p.burst_tolerance_bps = 135e9;
  return p;
}

net::PathSpec esnet_production_path() {
  net::PathSpec p;
  p.name = "production 63ms";
  p.rtt = units::millis(63);
  p.capacity_bps = 98.5e9;  // 100G ports minus framing overhead
  p.hops = 10;
  p.bg_traffic_bps = 2e9;   // light competing production traffic
  p.bg_burst_sigma = 0.5;
  p.deep_buffers = true;    // backbone routers queue rather than cut tails
  p.stray_loss_events_per_sec = 0.7;  // Table III: ~1K retr even well-paced
  return p;
}

const net::PathSpec& Testbed::path_named(const std::string& name) const {
  for (const auto& p : paths) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no path named " + name + " in testbed " + this->name);
}

Testbed testbed_by_name(const std::string& name, std::optional<kern::KernelVersion> kernel) {
  if (name == "amlight") return kernel ? amlight(*kernel) : amlight();
  if (name == "amlight-baremetal") return kernel ? amlight_baremetal(*kernel) : amlight_baremetal();
  if (name == "esnet") return kernel ? esnet(*kernel) : esnet();
  if (name == "production") return kernel ? esnet_production(*kernel) : esnet_production();
  throw std::invalid_argument("unknown testbed: " + name);
}

Testbed amlight(kern::KernelVersion kernel) { return amlight_vm(kernel); }

Testbed amlight_vm(kern::KernelVersion kernel) {
  Testbed t;
  t.name = "AmLight (VM)";
  t.sender = amlight_host(kernel, /*vm=*/true);
  t.receiver = amlight_host(kernel, /*vm=*/true);
  t.paths = {amlight_lan(), amlight_wan(25), amlight_wan(54), amlight_wan(104)};
  t.link_flow_control = false;  // NoviFlow switches: no 802.3x
  return t;
}

Testbed amlight_baremetal(kern::KernelVersion kernel) {
  Testbed t = amlight_vm(kernel);
  t.name = "AmLight (bare metal)";
  t.sender = amlight_host(kernel, /*vm=*/false);
  t.receiver = amlight_host(kernel, /*vm=*/false);
  return t;
}

Testbed esnet(kern::KernelVersion kernel) {
  Testbed t;
  t.name = "ESnet Testbed";
  t.sender = esnet_host(kernel);
  t.receiver = esnet_host(kernel);
  t.paths = {esnet_lan(), esnet_wan()};
  t.link_flow_control = false;  // AS9716: no 802.3x
  return t;
}

Testbed esnet_production(kern::KernelVersion kernel) {
  Testbed t;
  t.name = "ESnet production DTNs";
  t.sender = esnet_host(kernel);
  t.receiver = esnet_host(kernel);
  t.sender.nic = net::connectx5_100g();  // production DTNs run 100G ports
  t.receiver.nic = net::connectx5_100g();
  t.sender.nic.drain_smooth_bps = 43e9;  // AMD hosts behind them
  t.sender.nic.drain_burst_bps = 25e9;
  t.receiver.nic.drain_smooth_bps = 43e9;
  t.receiver.nic.drain_burst_bps = 25e9;
  t.paths = {esnet_production_path()};
  t.link_flow_control = true;  // the one environment with 802.3x (Table III)
  return t;
}

}  // namespace dtnsim::harness

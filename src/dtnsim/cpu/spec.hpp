// CPU specifications and vendor profiles.
//
// The paper compares Intel Xeon 6346 (AmLight) against AMD EPYC 73F3 (ESnet)
// hosts and attributes the single-stream gap to AVX-512 support and L3 cache
// architecture. Those two hardware properties are first-class here: AVX-512
// lowers the per-byte copy/checksum cost, and the per-flow effective L3
// window drives the cache-pressure multiplier on large in-flight windows.
#pragma once

#include <string>

#include "dtnsim/util/fields.hpp"
#include "dtnsim/util/units.hpp"

namespace dtnsim::cpu {

enum class Vendor { Intel, Amd, Generic };

const char* vendor_name(Vendor v);

struct CpuSpec {
  std::string model;
  Vendor vendor = Vendor::Generic;
  int sockets = 2;
  int cores_per_socket = 16;
  int numa_nodes = 2;
  int smt_threads = 2;  // hardware threads per core when SMT is on
  double base_ghz = 3.0;
  double max_ghz = 3.5;
  bool avx512 = false;
  // Full L3 per socket.
  double l3_per_socket_bytes = 32.0 * 1024 * 1024;
  // Effective cache window one flow's TCP state enjoys before the in-flight
  // window spills and per-byte costs inflate. Intel's monolithic L3 gives a
  // larger window than AMD's per-CCX slices (paper: "very different L3 cache
  // architecture, which might contribute to the difference").
  double l3_flow_window_bytes = 32.0 * 1024 * 1024;
  // Memory bandwidth usable by the network stack (bytes/s). The 6.x kernels
  // reduce the number of memory passes per payload byte; the budget itself is
  // a hardware property.
  double stack_mem_bw_bytes = 60e9;

  int total_cores() const { return sockets * cores_per_socket; }
  double core_hz(bool performance_governor) const {
    return (performance_governor ? max_ghz : base_ghz) * 1e9;
  }
};

// The model string is cosmetic; the numbers are the physics.
template <class V>
constexpr void fields(V& v, CpuSpec& c) {
  v("model", c.model, wire::unkeyed);
  v("vendor", wire::named(c.vendor, vendor_name));
  v("sockets", c.sockets);
  v("cores_per_socket", c.cores_per_socket);
  v("numa_nodes", c.numa_nodes);
  v("smt_threads", c.smt_threads);
  v("base_ghz", c.base_ghz);
  v("max_ghz", c.max_ghz);
  v("avx512", c.avx512);
  v("l3_per_socket_bytes", c.l3_per_socket_bytes);
  v("l3_flow_window_bytes", c.l3_flow_window_bytes);
  v("stack_mem_bw_bytes", c.stack_mem_bw_bytes);
}
static_assert(wire::field_count<CpuSpec>() == wire::member_count<CpuSpec>());

// AmLight sender/receiver hosts: dual-socket Intel Xeon 6346,
// 3.1/3.6 GHz, AVX-512, 36 MB monolithic L3 per socket.
CpuSpec intel_xeon_6346();

// ESnet testbed hosts: dual-socket AMD EPYC 73F3, 3.5/4.0 GHz, no AVX-512,
// 256 MB L3 per socket in 32 MB CCX slices.
CpuSpec amd_epyc_73f3();

}  // namespace dtnsim::cpu

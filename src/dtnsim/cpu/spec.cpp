#include "dtnsim/cpu/spec.hpp"

namespace dtnsim::cpu {

const char* vendor_name(Vendor v) {
  switch (v) {
    case Vendor::Intel:
      return "Intel";
    case Vendor::Amd:
      return "AMD";
    case Vendor::Generic:
      return "Generic";
  }
  return "?";
}

CpuSpec intel_xeon_6346() {
  CpuSpec s;
  s.model = "Intel Xeon Gold 6346";
  s.vendor = Vendor::Intel;
  s.sockets = 2;
  s.cores_per_socket = 16;
  s.numa_nodes = 2;
  s.smt_threads = 2;
  s.base_ghz = 3.1;
  s.max_ghz = 3.6;
  s.avx512 = true;
  s.l3_per_socket_bytes = 36.0 * 1024 * 1024;
  s.l3_flow_window_bytes = 64.0 * 1024 * 1024;  // monolithic L3 + DDIO headroom
  s.stack_mem_bw_bytes = 55e9;
  return s;
}

CpuSpec amd_epyc_73f3() {
  CpuSpec s;
  s.model = "AMD EPYC 73F3";
  s.vendor = Vendor::Amd;
  s.sockets = 2;
  s.cores_per_socket = 16;
  s.numa_nodes = 2;
  s.smt_threads = 2;
  s.base_ghz = 3.5;
  s.max_ghz = 4.0;
  s.avx512 = false;
  s.l3_per_socket_bytes = 256.0 * 1024 * 1024;
  s.l3_flow_window_bytes = 32.0 * 1024 * 1024;  // per-CCX slice
  s.stack_mem_bw_bytes = 60e9;  // calibrated: 8-stream copy ceiling ~166 Gbps
  return s;
}

}  // namespace dtnsim::cpu

// Cycle-cost model of the Linux network TX/RX paths.
//
// All throughput ceilings in the paper are cycle budgets: the receiver's
// copy_to_user loop, the sender's copy_from_user + protocol work, IRQ/GRO
// handling, and (for MSG_ZEROCOPY) page pinning and completion processing.
// This model prices each primitive in CPU cycles per byte or per packet,
// scaled by
//   - a vendor profile (AVX-512 lowers per-byte copy/checksum cost — the
//     paper's Intel-vs-AMD single-stream gap),
//   - a kernel stack-efficiency factor (the 5.15 -> 6.5 -> 6.8 gains),
//   - placement penalties (irqbalance / wrong NUMA node),
//   - a virtualization factor (bare metal vs tuned/untuned VM),
//   - a cache-pressure multiplier that inflates per-byte sender costs when
//     the in-flight window exceeds the flow's effective L3 window (why WAN
//     default sends are sender-CPU-bound while LAN sends are not).
//
// Calibration anchors (see DESIGN.md §3 and harness/calibration.hpp):
// Intel 6.8 LAN default 55 Gbps RX-bound, AMD 42 Gbps; Intel WAN default
// ~37 Gbps TX-bound, AMD ~23 Gbps; zerocopy sender ~0.19 cyc/B vs ~0.45
// copy path; BIG TCP +16% when RX-aggregate-bound.
#pragma once

#include <algorithm>

#include "dtnsim/cpu/affinity.hpp"
#include "dtnsim/cpu/spec.hpp"

namespace dtnsim::cpu {

struct CostModelOptions {
  double stack_factor = 1.0;   // kernel-version efficiency (1.0 = Linux 6.8)
  bool iommu_passthrough = true;
  PlacementQuality placement;  // defaults to the tuned placement
  double virt_factor = 1.0;    // 1.0 bare metal; >1 inside a VM
};

struct TxPathConfig {
  double gso_bytes = 65536.0;        // effective super-packet size
  double mtu_bytes = 9000.0;
  double zc_fraction = 0.0;          // payload fraction sent zerocopy
  double zc_fallback_fraction = 0.0; // attempted zerocopy, copied instead
  double cache_mult = 1.0;           // from cache_pressure_mult()
};

// The terms of tx_app_cyc_per_byte that the send's geometry (super-packet
// size) and the host fix, so a fluid run computes them once and prices each
// flow's round from its zerocopy split and cache pressure alone.
// CostModel::tx_app_price builds one; per_byte is the only implementation
// of the price, which tx_app_cyc_per_byte also goes through.
struct TxAppPrice {
  double base = 0.0;            // per-byte protocol + per-super-packet cost
  double zc = 0.0;              // zerocopy page pinning + completion per byte
  double copy = 0.0;            // copy cost per byte, before cache pressure
  double fallback_extra = 0.0;  // failed pin + copy bookkeeping per byte
  double stack_factor = 1.0;
  double virt_factor = 1.0;
  double app_mult = 1.0;        // placement multiplier of the app core

  // Cycles per payload byte on the app core for a send whose zc_fraction is
  // attempted zerocopy, zc_fallback_fraction of it copied after all, at
  // cache-pressure multiplier cache_mult.
  double per_byte(double zc_fraction, double zc_fallback_fraction, double cache_mult) const {
    const double copy_frac = std::clamp(1.0 - zc_fraction, 0.0, 1.0);
    const double zc_frac = std::clamp(zc_fraction - zc_fallback_fraction, 0.0, 1.0);
    const double fb_frac = std::clamp(zc_fallback_fraction, 0.0, 1.0);

    double cyc = base;
    // Copied bytes pay the (cache-pressure-inflated) copy cost. Zerocopy
    // bytes pay page pinning instead and never touch the payload.
    cyc += copy_frac * copy * std::max(cache_mult, 1.0);
    cyc += zc_frac * zc;
    // Fallback bytes attempted zerocopy, failed the optmem charge and were
    // copied anyway — strictly worse than the plain copy path.
    cyc += fb_frac * (copy * std::max(cache_mult, 1.0) + fallback_extra);
    return cyc * stack_factor * virt_factor * app_mult;
  }
};

struct RxPathConfig {
  double gro_bytes = 65536.0;  // aggregate size delivered per recv
  double mtu_bytes = 9000.0;
  bool copy_to_user = true;    // false under --skip-rx-copy (MSG_TRUNC)
  bool hw_gro = false;         // ConnectX-7 SHAMPO offload (Linux 6.11+)
};

// ---- per-stage decompositions (the dtnsim-perf attribution surface) -------
// Each struct splits the matching *_cyc_per_byte scalar into the model's
// constituent terms, every field fully scaled (stack/virt/placement) so the
// fields sum back to the scalar up to fp rounding — the identity
// obs::cross_check_stage_sum enforces. Field comments name the kernel symbol
// each term stands in for (docs/OBSERVABILITY.md has the full table).

struct TxAppStageCyc {
  double syscall = 0.0;      // tcp_sendmsg_locked (per-GSO-skb, amortized)
  double proto = 0.0;        // tcp_write_xmit per-byte bookkeeping
  double user_copy = 0.0;    // copy_user_enhanced_fast_string
  double zc_pin = 0.0;       // zerocopy_sg_from_iter page pinning
  double zc_notify = 0.0;    // msg_zerocopy_callback completions
  double zc_fallback = 0.0;  // skb_zerocopy_iter_stream copied fallback
  double total() const {
    return syscall + proto + user_copy + zc_pin + zc_notify + zc_fallback;
  }
};

struct TxIrqStageCyc {
  double gso_segment = 0.0;  // tcp_gso_segment post-TSO residue
  double dma_map = 0.0;      // dma_map_page_attrs + doorbell
  double completion = 0.0;   // skb_release_data TX-completion work
  double total() const { return gso_segment + dma_map + completion; }
};

struct RxAppStageCyc {
  double syscall = 0.0;    // tcp_recvmsg + sock_def_readable per aggregate
  double frag_walk = 0.0;  // skb frag walk + cmsg per wire segment
  double copyout = 0.0;    // skb_copy_datagram_iter (0 under MSG_TRUNC)
  double total() const { return syscall + frag_walk + copyout; }
};

struct RxIrqStageCyc {
  double skb_alloc = 0.0;  // mlx5e_skb_from_cqe + dma_unmap per packet
  double gro_merge = 0.0;  // gro_receive per-packet coalescing
  double agg_flush = 0.0;  // napi_gro_flush per-aggregate delivery
  double csum = 0.0;       // csum_partial / TCP validation per byte
  double total() const { return skb_alloc + gro_merge + agg_flush + csum; }
};

class CostModel {
 public:
  CostModel(const CpuSpec& spec, const CostModelOptions& opts);

  // Sender-side cycles per payload byte on the app core (copy/pin, protocol,
  // per-super-packet amortized costs, zerocopy completions):
  // tx_app_price(cfg.gso_bytes).per_byte(...) of cfg's split and cache_mult.
  double tx_app_cyc_per_byte(const TxPathConfig& cfg) const;
  // The geometry-only terms of tx_app_cyc_per_byte for super-packets of
  // gso_bytes.
  TxAppPrice tx_app_price(double gso_bytes) const;
  // Sender-side cycles per payload byte on the IRQ cores (segmentation
  // residue, DMA mapping, TX completions).
  double tx_irq_cyc_per_byte(const TxPathConfig& cfg) const;
  // Memory-bus bytes moved per payload byte on the sender.
  double tx_mem_passes(const TxPathConfig& cfg) const;

  double rx_app_cyc_per_byte(const RxPathConfig& cfg) const;
  double rx_irq_cyc_per_byte(const RxPathConfig& cfg) const;
  double rx_mem_passes(const RxPathConfig& cfg) const;

  // Per-stage splits of the four scalars above (cycles per payload byte,
  // fully scaled). total() matches the scalar to fp rounding.
  TxAppStageCyc tx_app_stage_cyc(const TxPathConfig& cfg) const;
  TxIrqStageCyc tx_irq_stage_cyc(const TxPathConfig& cfg) const;
  RxAppStageCyc rx_app_stage_cyc(const RxPathConfig& cfg) const;
  RxIrqStageCyc rx_irq_stage_cyc(const RxPathConfig& cfg) const;

  // Multiplier (>= 1) applied to sender per-byte copy costs as the in-flight
  // window outgrows the flow's effective L3 window. Inline: the fluid engine
  // asks once per flow per round.
  double cache_pressure_mult(double inflight_bytes) const {
    const double window = std::max(spec_.l3_flow_window_bytes, 1.0);
    const double x = std::max(inflight_bytes, 0.0) / window;
    return 1.0 + cache_sat_ * x / (x + 1.0);
  }

  // Host-wide DMA throughput ceiling in bits/s; infinite under iommu=pt.
  // Without passthrough, IOTLB pressure and mapping-lock contention cap
  // aggregate DMA (the paper's 80 -> 181 Gbps iommu=pt observation).
  double dma_throughput_cap_bps() const;

  const CpuSpec& spec() const { return spec_; }
  const CostModelOptions& options() const { return opts_; }

  // Raw constants (exposed for tests and docs).
  double copy_tx_cyc_per_byte() const { return copy_tx_; }
  double copy_rx_cyc_per_byte() const { return copy_rx_; }

 private:
  double scaled(double cycles) const;  // stack_factor * virt_factor applied

  CpuSpec spec_;
  CostModelOptions opts_;
  // opts_.placement's multipliers, fixed at construction.
  double app_mult_ = 1.0;
  double irq_mult_ = 1.0;

  // Vendor-dependent per-byte costs (cycles/byte, unscaled).
  double copy_tx_ = 0.33;
  double copy_rx_ = 0.39;
  double zc_pin_per_page_ = 230.0;
  double cache_sat_ = 1.15;
};

}  // namespace dtnsim::cpu

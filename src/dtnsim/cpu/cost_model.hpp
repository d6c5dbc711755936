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
// An engine bills four prices, one per core group (sender app and IRQ
// cores, receiver app and IRQ cores). Each is built once, from its terms,
// into the per-byte charge and the same charge split by obs::PerfStage, the
// kernel symbol each term stands in for: dtnsim-perf's attribution is the
// charge itself, taken apart.
//
// Calibration anchors (see DESIGN.md §3 and harness/calibration.hpp):
// Intel 6.8 LAN default 55 Gbps RX-bound, AMD 42 Gbps; Intel WAN default
// ~37 Gbps TX-bound, AMD ~23 Gbps; zerocopy sender ~0.19 cyc/B vs ~0.45
// copy path; BIG TCP +16% when RX-aggregate-bound.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "dtnsim/cpu/affinity.hpp"
#include "dtnsim/cpu/spec.hpp"
#include "dtnsim/obs/perf.hpp"

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

// The terms of the app-core TX price that the send's geometry (super-packet
// size) and the host fix, so a fluid run computes them once and prices each
// flow's round from its zerocopy split and cache pressure alone.
// CostModel::tx_app_price builds one; per_byte is the only implementation
// of the price (tx_app_cyc_per_byte goes through it), and stages splits the
// same charge by PerfStage from the same fields. Each field names the kernel
// symbol its term stands in for (docs/OBSERVABILITY.md has the full table).
struct TxAppPrice {
  double syscall = 0.0;         // tcp_sendmsg_locked, per super-packet, per byte
  double proto = 0.0;           // tcp_write_xmit bookkeeping per byte
  double copy = 0.0;            // copy_user_enhanced_fast_string per byte, before cache pressure
  double zc_pin = 0.0;          // zerocopy_sg_from_iter page pinning per byte
  double zc_notify = 0.0;       // msg_zerocopy_callback completion per super-packet
  double gso = 1.0;             // super-packet bytes, floored at 1
  double fallback_extra = 0.0;  // skb_zerocopy_iter_stream failed pin + copy bookkeeping per byte
  double stack_factor = 1.0;
  double virt_factor = 1.0;
  double app_mult = 1.0;        // placement multiplier of the app core

  // Cycles per payload byte on the app core for a send whose zc_fraction is
  // attempted zerocopy, zc_fallback_fraction of it copied after all, at
  // cache-pressure multiplier cache_mult.
  double per_byte(double zc_fraction, double zc_fallback_fraction, double cache_mult) const {
    const Split f = split(zc_fraction, zc_fallback_fraction, cache_mult);
    double cyc = proto + syscall;
    // Copied bytes pay the (cache-pressure-inflated) copy cost. Zerocopy
    // bytes pay page pinning instead and never touch the payload.
    cyc += f.copy * copy * f.cache;
    cyc += f.zc * (zc_pin + zc_notify / gso);
    // Fallback bytes attempted zerocopy, failed the optmem charge and were
    // copied anyway — strictly worse than the plain copy path.
    cyc += f.fallback * (copy * f.cache + fallback_extra);
    return scaled(cyc);
  }

  // per_byte's charge for the same send, term by term: the snd_app stages
  // of an obs::StageCycles row (every other entry 0).
  obs::StageCycles stages(double zc_fraction, double zc_fallback_fraction,
                          double cache_mult) const {
    const Split f = split(zc_fraction, zc_fallback_fraction, cache_mult);
    obs::StageCycles s{};
    const auto at = [&s](obs::PerfStage stage) -> double& {
      return s[static_cast<std::size_t>(stage)];
    };
    at(obs::PerfStage::TxSyscall) = scaled(syscall);
    at(obs::PerfStage::TxProto) = scaled(proto);
    at(obs::PerfStage::TxUserCopy) = scaled(f.copy * copy * f.cache);
    at(obs::PerfStage::TxZcPin) = scaled(f.zc * zc_pin);
    at(obs::PerfStage::TxZcNotify) = scaled(f.zc * zc_notify / gso);
    at(obs::PerfStage::TxZcFallback) = scaled(f.fallback * (copy * f.cache + fallback_extra));
    return s;
  }

 private:
  // The payload fractions copied, pinned and copied after a failed pin, and
  // the copy-cost multiplier.
  struct Split {
    double copy, zc, fallback, cache;
  };
  static Split split(double zc_fraction, double zc_fallback_fraction, double cache_mult) {
    return {std::clamp(1.0 - zc_fraction, 0.0, 1.0),
            std::clamp(zc_fraction - zc_fallback_fraction, 0.0, 1.0),
            std::clamp(zc_fallback_fraction, 0.0, 1.0), std::max(cache_mult, 1.0)};
  }
  double scaled(double cyc) const { return cyc * stack_factor * virt_factor * app_mult; }
};

struct RxPathConfig {
  double gro_bytes = 65536.0;  // aggregate size delivered per recv
  double mtu_bytes = 9000.0;
  bool copy_to_user = true;    // false under --skip-rx-copy (MSG_TRUNC)
  bool hw_gro = false;         // ConnectX-7 SHAMPO offload (Linux 6.11+)
};

class CostModel {
 public:
  CostModel(const CpuSpec& spec, const CostModelOptions& opts);

  // The four prices an engine bills per payload byte, one per core group.
  // The app-core TX price depends on each send's zerocopy split and cache
  // pressure, so it comes as a TxAppPrice; the other three are fixed by
  // the geometry and come as an obs::StagePrice, the charge with its stage
  // split.

  // Sender app core: protocol, per-super-packet syscall, copy or page
  // pinning plus completions: tx_app_price(cfg.gso_bytes).per_byte(...) of
  // cfg's split and cache_mult.
  double tx_app_cyc_per_byte(const TxPathConfig& cfg) const;
  // The geometry-only terms of the app-core TX price for super-packets of
  // gso_bytes.
  TxAppPrice tx_app_price(double gso_bytes) const;
  // Sender IRQ cores: segmentation residue, DMA mapping, TX completions.
  obs::StagePrice tx_irq_price(const TxPathConfig& cfg) const;
  // Receiver app core: recv syscall per aggregate, frag walk, copy-out.
  obs::StagePrice rx_app_price(const RxPathConfig& cfg) const;
  // Receiver IRQ cores: checksum, GRO merge, aggregate flush, skb setup.
  obs::StagePrice rx_irq_price(const RxPathConfig& cfg) const;

  // Memory-bus bytes moved per payload byte on the sender / the receiver.
  double tx_mem_passes(const TxPathConfig& cfg) const;
  double rx_mem_passes(const RxPathConfig& cfg) const;

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
  // A price of one core group from its terms (unscaled cycles per byte, in
  // the order the charge sums them): per_byte is their sum and each stage
  // its own term, both scaled and weighted by the group's placement `mult`.
  obs::StagePrice price(double mult,
                        std::initializer_list<std::pair<obs::PerfStage, double>> terms) const;

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

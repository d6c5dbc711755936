#include "dtnsim/cpu/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dtnsim::cpu {
namespace {

// Protocol / stack constants (cycles, calibrated — see DESIGN.md §3).
constexpr double kTxProtoPerByte = 0.05;       // tcp_sendmsg bookkeeping per byte
constexpr double kTxPerSuperPkt = 6500.0;      // per-GSO-skb protocol + qdisc + doorbell
constexpr double kTxPerMtuSeg = 15.0;          // post-TSO per-segment residue (IRQ side)
constexpr double kTxCompletionPerSuperPkt = 800.0;  // TX completion IRQ work

constexpr double kRxProtoPerByte = 0.06;       // softirq TCP/IP per byte (IRQ side)
constexpr double kRxPerAggregateApp = 8100.0;  // recv syscall + tcp read per GRO skb
constexpr double kRxPerAggregateIrq = 2500.0;  // napi + gro flush per aggregate
constexpr double kRxPerMtuPkt = 25.0;          // per-MTU-packet GRO merge test
constexpr double kHwGroPerMtuPkt = 4.0;        // SHAMPO does the merge in hardware
// App-side per-wire-segment residue (skb frag walks, cmsg assembly): this is
// what makes a 1500 B MTU so expensive (paper §V-C: 24 vs 62 Gbps) and what
// SHAMPO's header-data split mostly eliminates.
constexpr double kRxPerMtuPktApp = 900.0;
constexpr double kHwGroPerMtuPktApp = 135.0;
// Header-data split side effects on the app path (page-aligned payload).
constexpr double kHwGroCopyFactor = 0.90;
constexpr double kHwGroAggregateFactor = 0.80;

constexpr double kZcCompletionPerSuperPkt = 1200.0;  // error-queue notification
constexpr double kZcFallbackExtraPerByte = 0.08;     // failed pin + copy bookkeeping

constexpr double kDmaMapPtPerMtuPkt = 40.0;    // iommu=pt: identity map
constexpr double kDmaMapStrictPerMtuPkt = 900.0;  // per-packet map/unmap + IOTLB

constexpr double kPageBytes = 4096.0;

// Memory passes per payload byte: copy paths touch the payload on the CPU
// (read + write) in addition to the DMA pass; newer kernels shave passes
// ("memory bandwidth reduction" — paper §II-A).
constexpr double kMemPassesZc = 1.3;

}  // namespace

CostModel::CostModel(const CpuSpec& spec, const CostModelOptions& opts)
    : spec_(spec),
      opts_(opts),
      app_mult_(opts.placement.app_cost_mult()),
      irq_mult_(opts.placement.irq_cost_mult()) {
  switch (spec.vendor) {
    case Vendor::Intel:
      // AVX-512 copy/checksum paths (paper attributes the Intel single-stream
      // advantage to AVX-512 and the L3 architecture).
      copy_tx_ = spec.avx512 ? 0.33 : 0.44;
      copy_rx_ = spec.avx512 ? 0.29 : 0.41;
      zc_pin_per_page_ = 230.0;
      cache_sat_ = 1.00;
      break;
    case Vendor::Amd:
      copy_tx_ = 0.58;
      copy_rx_ = 0.54;
      zc_pin_per_page_ = 260.0;
      cache_sat_ = 1.40;
      break;
    case Vendor::Generic:
      copy_tx_ = 0.45;
      copy_rx_ = 0.44;
      zc_pin_per_page_ = 250.0;
      cache_sat_ = 1.25;
      break;
  }
}

double CostModel::scaled(double cycles) const {
  return cycles * opts_.stack_factor * opts_.virt_factor;
}

double CostModel::tx_app_cyc_per_byte(const TxPathConfig& cfg) const {
  return tx_app_price(cfg.gso_bytes)
      .per_byte(cfg.zc_fraction, cfg.zc_fallback_fraction, cfg.cache_mult);
}

TxAppPrice CostModel::tx_app_price(double gso_bytes) const {
  TxAppPrice p;
  p.base = kTxProtoPerByte + kTxPerSuperPkt / std::max(gso_bytes, 1.0);
  p.zc = zc_pin_per_page_ / kPageBytes + kZcCompletionPerSuperPkt / std::max(gso_bytes, 1.0);
  p.copy = copy_tx_;
  p.fallback_extra = kZcFallbackExtraPerByte;
  p.stack_factor = opts_.stack_factor;
  p.virt_factor = opts_.virt_factor;
  p.app_mult = app_mult_;
  return p;
}

double CostModel::tx_irq_cyc_per_byte(const TxPathConfig& cfg) const {
  const double per_byte =
      kTxPerMtuSeg / std::max(cfg.mtu_bytes, 1.0) +
      (opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt) /
          std::max(cfg.mtu_bytes, 1.0) +
      kTxCompletionPerSuperPkt / std::max(cfg.gso_bytes, 1.0);
  return scaled(per_byte) * irq_mult_;
}

double CostModel::tx_mem_passes(const TxPathConfig& cfg) const {
  const double copy_passes = 1.6 + opts_.stack_factor;  // DMA + CPU read/write
  const double copy_frac = std::clamp(1.0 - cfg.zc_fraction + cfg.zc_fallback_fraction, 0.0, 1.0);
  return copy_frac * copy_passes + (1.0 - copy_frac) * kMemPassesZc;
}

double CostModel::rx_app_cyc_per_byte(const RxPathConfig& cfg) const {
  const double mss = std::max(cfg.mtu_bytes - 40.0, 1.0);
  double per_byte = (cfg.hw_gro ? kRxPerAggregateApp * kHwGroAggregateFactor
                                : kRxPerAggregateApp) /
                    std::max(cfg.gro_bytes, 1.0);
  if (cfg.copy_to_user) {
    // MSG_TRUNC skips both the copy and the frag-walk of the aggregate.
    per_byte += (cfg.hw_gro ? kHwGroPerMtuPktApp : kRxPerMtuPktApp) / mss;
    per_byte += copy_rx_ * (cfg.hw_gro ? kHwGroCopyFactor : 1.0);
  }
  return scaled(per_byte) * app_mult_;
}

double CostModel::rx_irq_cyc_per_byte(const RxPathConfig& cfg) const {
  const double per_pkt = cfg.hw_gro ? kHwGroPerMtuPkt : kRxPerMtuPkt;
  const double per_byte =
      kRxProtoPerByte + per_pkt / std::max(cfg.mtu_bytes, 1.0) +
      kRxPerAggregateIrq / std::max(cfg.gro_bytes, 1.0) +
      (opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt) /
          std::max(cfg.mtu_bytes, 1.0);
  return scaled(per_byte) * irq_mult_;
}

TxAppStageCyc CostModel::tx_app_stage_cyc(const TxPathConfig& cfg) const {
  // Term-for-term mirror of tx_app_cyc_per_byte: the same fractions and
  // constants, each term scaled and placement-weighted individually so the
  // stages sum back to the scalar to fp rounding.
  const double copy_frac = std::clamp(1.0 - cfg.zc_fraction, 0.0, 1.0);
  const double zc_frac = std::clamp(cfg.zc_fraction - cfg.zc_fallback_fraction, 0.0, 1.0);
  const double fb_frac = std::clamp(cfg.zc_fallback_fraction, 0.0, 1.0);
  const double mult = app_mult_;

  TxAppStageCyc s;
  s.proto = scaled(kTxProtoPerByte) * mult;
  s.syscall = scaled(kTxPerSuperPkt / std::max(cfg.gso_bytes, 1.0)) * mult;
  s.user_copy = scaled(copy_frac * copy_tx_ * std::max(cfg.cache_mult, 1.0)) * mult;
  s.zc_pin = scaled(zc_frac * zc_pin_per_page_ / kPageBytes) * mult;
  s.zc_notify =
      scaled(zc_frac * kZcCompletionPerSuperPkt / std::max(cfg.gso_bytes, 1.0)) * mult;
  s.zc_fallback =
      scaled(fb_frac *
             (copy_tx_ * std::max(cfg.cache_mult, 1.0) + kZcFallbackExtraPerByte)) *
      mult;
  return s;
}

TxIrqStageCyc CostModel::tx_irq_stage_cyc(const TxPathConfig& cfg) const {
  const double mult = irq_mult_;
  TxIrqStageCyc s;
  s.gso_segment = scaled(kTxPerMtuSeg / std::max(cfg.mtu_bytes, 1.0)) * mult;
  s.dma_map =
      scaled((opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt) /
             std::max(cfg.mtu_bytes, 1.0)) *
      mult;
  s.completion = scaled(kTxCompletionPerSuperPkt / std::max(cfg.gso_bytes, 1.0)) * mult;
  return s;
}

RxAppStageCyc CostModel::rx_app_stage_cyc(const RxPathConfig& cfg) const {
  const double mss = std::max(cfg.mtu_bytes - 40.0, 1.0);
  const double mult = app_mult_;
  RxAppStageCyc s;
  s.syscall = scaled((cfg.hw_gro ? kRxPerAggregateApp * kHwGroAggregateFactor
                                 : kRxPerAggregateApp) /
                     std::max(cfg.gro_bytes, 1.0)) *
              mult;
  if (cfg.copy_to_user) {
    s.frag_walk =
        scaled((cfg.hw_gro ? kHwGroPerMtuPktApp : kRxPerMtuPktApp) / mss) * mult;
    s.copyout = scaled(copy_rx_ * (cfg.hw_gro ? kHwGroCopyFactor : 1.0)) * mult;
  }
  return s;
}

RxIrqStageCyc CostModel::rx_irq_stage_cyc(const RxPathConfig& cfg) const {
  const double per_pkt = cfg.hw_gro ? kHwGroPerMtuPkt : kRxPerMtuPkt;
  const double mult = irq_mult_;
  RxIrqStageCyc s;
  s.csum = scaled(kRxProtoPerByte) * mult;
  s.gro_merge = scaled(per_pkt / std::max(cfg.mtu_bytes, 1.0)) * mult;
  s.agg_flush = scaled(kRxPerAggregateIrq / std::max(cfg.gro_bytes, 1.0)) * mult;
  s.skb_alloc =
      scaled((opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt) /
             std::max(cfg.mtu_bytes, 1.0)) *
      mult;
  return s;
}

double CostModel::rx_mem_passes(const RxPathConfig& cfg) const {
  const double copy_passes = 1.6 + opts_.stack_factor;
  return cfg.copy_to_user ? copy_passes : kMemPassesZc;
}

double CostModel::dma_throughput_cap_bps() const {
  if (opts_.iommu_passthrough) return std::numeric_limits<double>::infinity();
  // IOTLB thrash + mapping-lock contention: an aggregate ceiling, calibrated
  // to the paper's 80 Gbps (8 streams, AMD, 5.15, no iommu=pt).
  return 80e9 / opts_.stack_factor * (spec_.vendor == Vendor::Intel ? 1.15 : 1.0);
}

}  // namespace dtnsim::cpu

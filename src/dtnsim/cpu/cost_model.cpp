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

obs::StagePrice CostModel::price(
    double mult, std::initializer_list<std::pair<obs::PerfStage, double>> terms) const {
  obs::StagePrice p;
  double sum = 0.0;
  for (const auto& [stage, cyc] : terms) {
    sum += cyc;
    p.stages[static_cast<std::size_t>(stage)] = scaled(cyc) * mult;
  }
  p.per_byte = scaled(sum) * mult;
  return p;
}

TxAppPrice CostModel::tx_app_price(double gso_bytes) const {
  TxAppPrice p;
  p.gso = std::max(gso_bytes, 1.0);
  p.syscall = kTxPerSuperPkt / p.gso;
  p.proto = kTxProtoPerByte;
  p.copy = copy_tx_;
  p.zc_pin = zc_pin_per_page_ / kPageBytes;
  p.zc_notify = kZcCompletionPerSuperPkt;
  p.fallback_extra = kZcFallbackExtraPerByte;
  p.stack_factor = opts_.stack_factor;
  p.virt_factor = opts_.virt_factor;
  p.app_mult = app_mult_;
  return p;
}

obs::StagePrice CostModel::tx_irq_price(const TxPathConfig& cfg) const {
  const double mtu = std::max(cfg.mtu_bytes, 1.0);
  const double dma = opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt;
  return price(irq_mult_, {{obs::PerfStage::TxGsoSegment, kTxPerMtuSeg / mtu},
                           {obs::PerfStage::TxDmaMap, dma / mtu},
                           {obs::PerfStage::TxCompletion,
                            kTxCompletionPerSuperPkt / std::max(cfg.gso_bytes, 1.0)}});
}

double CostModel::tx_mem_passes(const TxPathConfig& cfg) const {
  const double copy_passes = 1.6 + opts_.stack_factor;  // DMA + CPU read/write
  const double copy_frac = std::clamp(1.0 - cfg.zc_fraction + cfg.zc_fallback_fraction, 0.0, 1.0);
  return copy_frac * copy_passes + (1.0 - copy_frac) * kMemPassesZc;
}

obs::StagePrice CostModel::rx_app_price(const RxPathConfig& cfg) const {
  const double mss = std::max(cfg.mtu_bytes - 40.0, 1.0);
  const double per_aggregate =
      cfg.hw_gro ? kRxPerAggregateApp * kHwGroAggregateFactor : kRxPerAggregateApp;
  // MSG_TRUNC skips both the copy and the frag-walk of the aggregate.
  const double frag_walk =
      cfg.copy_to_user ? (cfg.hw_gro ? kHwGroPerMtuPktApp : kRxPerMtuPktApp) / mss : 0.0;
  const double copyout = cfg.copy_to_user ? copy_rx_ * (cfg.hw_gro ? kHwGroCopyFactor : 1.0) : 0.0;
  return price(app_mult_,
               {{obs::PerfStage::RxSyscall, per_aggregate / std::max(cfg.gro_bytes, 1.0)},
                {obs::PerfStage::RxFragWalk, frag_walk},
                {obs::PerfStage::RxCopyout, copyout}});
}

obs::StagePrice CostModel::rx_irq_price(const RxPathConfig& cfg) const {
  const double mtu = std::max(cfg.mtu_bytes, 1.0);
  const double per_pkt = cfg.hw_gro ? kHwGroPerMtuPkt : kRxPerMtuPkt;
  const double dma = opts_.iommu_passthrough ? kDmaMapPtPerMtuPkt : kDmaMapStrictPerMtuPkt;
  return price(irq_mult_, {{obs::PerfStage::RxCsum, kRxProtoPerByte},
                           {obs::PerfStage::RxGroMerge, per_pkt / mtu},
                           {obs::PerfStage::RxAggFlush,
                            kRxPerAggregateIrq / std::max(cfg.gro_bytes, 1.0)},
                           {obs::PerfStage::RxSkbAlloc, dma / mtu}});
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

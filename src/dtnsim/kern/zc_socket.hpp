// MSG_ZEROCOPY send-side accounting.
//
// Each zerocopy SKB keeps a notification structure alive until the data is
// ACKed, and that structure is charged against net.core.optmem_max. On a
// long path the in-flight window is huge, the charges accumulate, and once
// optmem is exhausted the kernel silently falls back to copying — after
// paying the failed-pin overhead. That is the entire Fig. 9 story: with the
// default 20 KiB optmem a "zerocopy" WAN transfer is mostly an expensive
// copy; 1 MiB mostly fixes it; ~3.25 MiB covers the 104 ms path fully.
//
// ZcTxSocket implements that accounting with FIFO charge release on ACK.
// The fluid engine plans and ACKs every flow's send each round, so those
// calls are defined here, inline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "dtnsim/units/units.hpp"

namespace dtnsim::kern {

// optmem charged per in-flight zerocopy super-packet: one ubuf_info plus the
// error-queue notification skb overhead.
inline constexpr double kZcChargePerSuperPkt = 160.0;

class ZcTxSocket {
 public:
  explicit ZcTxSocket(units::Bytes optmem_max) : optmem_max_(optmem_max.value()) {}

  struct SendPlan {
    double zc_bytes = 0.0;        // pinned and sent without copying
    double fallback_bytes = 0.0;  // attempted zerocopy, copied instead
  };

  // Plan sending `payload` as zerocopy super-packets of `superpkt` bytes.
  // Charges optmem for what fits; the remainder falls back to copy.
  SendPlan plan_send(units::Bytes payload, units::Bytes superpkt) {
    SendPlan plan;
    const double bytes = payload.value();
    if (bytes <= 0 || superpkt.value() <= 0) return plan;

    plan.zc_bytes = std::min(bytes, chargeable_bytes(superpkt));
    plan.fallback_bytes = bytes - plan.zc_bytes;

    if (plan.zc_bytes > 0) {
      const double charge = plan.zc_bytes * (kZcChargePerSuperPkt / superpkt.value());
      optmem_used_ += charge;
      peak_optmem_used_ = std::max(peak_optmem_used_, optmem_used_);
      inflight_zc_bytes_ += plan.zc_bytes;
      push_chunk(Chunk{plan.zc_bytes, charge});
      total_zc_ += plan.zc_bytes;
    }
    if (plan.fallback_bytes > 0) ++fallback_events_;
    total_fallback_ += plan.fallback_bytes;
    return plan;
  }

  // Same split as plan_send but without charging — used to price a send
  // before the CPU budget decides how much is actually sent.
  SendPlan preview_send(units::Bytes payload, units::Bytes superpkt) const {
    SendPlan plan;
    const double bytes = payload.value();
    if (bytes <= 0 || superpkt.value() <= 0) return plan;
    plan.zc_bytes = std::min(bytes, chargeable_bytes(superpkt));
    plan.fallback_bytes = bytes - plan.zc_bytes;
    return plan;
  }

  // Bytes that can still be pinned as `superpkt`-byte super-packets before
  // the charges reach optmem_max.
  double chargeable_bytes(units::Bytes superpkt) const {
    const double charge_per_byte = kZcChargePerSuperPkt / superpkt.value();
    return charge_per_byte > 0 ? optmem_available() / charge_per_byte
                               : std::numeric_limits<double>::infinity();
  }

  // ACK `acked` in-flight data; releases charges FIFO. ACKed bytes beyond
  // what was charged (copied bytes interleaved) release nothing.
  void on_acked(units::Bytes acked) {
    // With nothing in flight there is nothing to release, and the clamps
    // below are no-ops: no call leaves either total negative.
    if (count_ == 0) return;
    double remaining = std::max(acked.value(), 0.0);
    while (remaining > 0 && count_ > 0) {
      Chunk& front = ring_[head_];
      if (front.bytes <= remaining + 1e-9) {
        remaining -= front.bytes;
        optmem_used_ -= front.charge;
        inflight_zc_bytes_ -= front.bytes;
        ++completions_;
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
      } else {
        const double frac = remaining / front.bytes;
        const double charge_released = front.charge * frac;
        optmem_used_ -= charge_released;
        inflight_zc_bytes_ -= remaining;
        front.bytes -= remaining;
        front.charge -= charge_released;
        remaining = 0;
      }
    }
    optmem_used_ = std::max(optmem_used_, 0.0);
    inflight_zc_bytes_ = std::max(inflight_zc_bytes_, 0.0);
  }

  // Peer reset / flow teardown: release everything.
  void reset();

  double optmem_max() const { return optmem_max_; }
  // `sysctl -w net.core.optmem_max` mid-transfer (scenario SysctlOptmem):
  // the kernel applies the new limit to future charges only — in-flight
  // charges and the high-water mark are left untouched.
  void set_optmem_max(units::Bytes optmem_max) {
    optmem_max_ = optmem_max.value();
  }
  double optmem_used() const { return optmem_used_; }
  double optmem_available() const {
    return optmem_max_ > optmem_used_ ? optmem_max_ - optmem_used_ : 0.0;
  }
  double inflight_zc_bytes() const { return inflight_zc_bytes_; }

  // Lifetime counters (the harness reports fallback ratios).
  double total_zc_bytes() const { return total_zc_; }
  double total_fallback_bytes() const { return total_fallback_; }
  std::uint64_t completions() const { return completions_; }
  // High-water mark of optmem occupancy and the number of plan_send calls
  // that had to fall back — the observability layer's saturation signals.
  double peak_optmem_used() const { return peak_optmem_used_; }
  std::uint64_t fallback_events() const { return fallback_events_; }

 private:
  struct Chunk {
    double bytes;
    double charge;
  };

  double optmem_max_;
  double optmem_used_ = 0.0;
  double peak_optmem_used_ = 0.0;
  std::uint64_t fallback_events_ = 0;
  double inflight_zc_bytes_ = 0.0;
  double total_zc_ = 0.0;
  double total_fallback_ = 0.0;
  std::uint64_t completions_ = 0;
  // In-flight chunks, oldest first: count_ entries of ring_ from head_,
  // wrapping. The capacity is a power of two that doubles only when the
  // ring is full, so a run stops allocating once it reaches its deepest
  // queue and then reuses the storage.
  std::vector<Chunk> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  void push_chunk(Chunk c) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = c;
    ++count_;
  }
  void grow();
};

}  // namespace dtnsim::kern

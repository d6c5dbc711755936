// Generic Receive Offload.
//
// The receiver coalesces in-order MTU segments of one flow into aggregates
// of up to gro_max bytes (or until the NAPI flush deadline). Aggregate size
// sets how per-aggregate receive costs amortize — the lever both BIG TCP
// (bigger aggregates) and hardware GRO (same aggregates, near-zero merge
// cost) pull.
#pragma once

#include <optional>
#include <vector>

#include "dtnsim/kern/skb.hpp"

namespace dtnsim::kern {

struct GroCounts {
  double aggregates = 0.0;
  double gro_bytes = 0.0;  // effective aggregate size
};

// Fluid counts for pricing receive work.
GroCounts gro_counts(units::Bytes payload, const SkbCaps& caps, units::Bytes mtu);

// Packet-level aggregator for tests: feed wire segments, harvest aggregates.
class GroEngine {
 public:
  GroEngine(const SkbCaps& caps, units::Bytes mtu);

  // Add one wire segment; returns a completed aggregate when the pending one
  // reaches gro_max (out-of-order or flow changes are flushed by caller).
  std::optional<units::Bytes> add_segment(units::Bytes segment);
  // NAPI flush: whatever is pending becomes an aggregate.
  std::optional<units::Bytes> flush();

  double gro_bytes() const { return gro_bytes_.value(); }

 private:
  units::Bytes gro_bytes_;
  units::Bytes pending_{0.0};
};

}  // namespace dtnsim::kern

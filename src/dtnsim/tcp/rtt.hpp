// RFC 6298 smoothed RTT estimation.
#pragma once

#include <algorithm>
#include <cmath>

namespace dtnsim::tcp {

class RttEstimator {
 public:
  // Inline: the fluid engine adds one sample per flow per round.
  void add_sample(double rtt_sec) {
    if (rtt_sec <= 0) return;
    min_rtt_ = std::min(min_rtt_, rtt_sec);
    if (!has_sample_) {
      srtt_ = rtt_sec;
      rttvar_ = rtt_sec / 2.0;
      has_sample_ = true;
      return;
    }
    const double err = std::fabs(srtt_ - rtt_sec);
    rttvar_ = 0.75 * rttvar_ + 0.25 * err;
    if (rttvar_ < kRttvarFloorSec) rttvar_ = 0.0;
    srtt_ = 0.875 * srtt_ + 0.125 * rtt_sec;
  }

  bool has_sample() const { return has_sample_; }
  double srtt_sec() const { return srtt_; }
  double rttvar_sec() const { return rttvar_; }
  double min_rtt_sec() const { return min_rtt_; }
  // Retransmission timeout: srtt + 4 * rttvar, floored at 200 ms like Linux.
  double rto_sec() const { return has_sample_ ? std::max(srtt_ + 4.0 * rttvar_, 0.2) : 1.0; }

 private:
  // On a constant path RTT, rttvar decays geometrically (x0.75 per sample)
  // and would settle on the subnormal fixed point 2 * denorm_min, where every
  // later update costs a microcode assist. Below this floor it is flushed to
  // exactly 0 (what Linux's integer mdev reads). The floor sits far above the
  // smallest normal double (~2.2e-308), so 0.75 x any value kept is still
  // normal: no update ever produces a subnormal rttvar.
  static constexpr double kRttvarFloorSec = 1e-300;

  bool has_sample_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double min_rtt_ = 1e9;
};

}  // namespace dtnsim::tcp

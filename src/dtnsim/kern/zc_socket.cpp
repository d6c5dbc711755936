#include "dtnsim/kern/zc_socket.hpp"

namespace dtnsim::kern {

void ZcTxSocket::reset() {
  head_ = 0;
  count_ = 0;
  optmem_used_ = 0.0;
  inflight_zc_bytes_ = 0.0;
}

void ZcTxSocket::grow() {
  std::vector<Chunk> bigger(ring_.empty() ? 8 : 2 * ring_.size());
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

}  // namespace dtnsim::kern

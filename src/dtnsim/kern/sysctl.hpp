// The sysctl surface the paper tunes.
//
// `fasterdata_tuned()` is the paper's /etc/sysctl.conf verbatim (2 GiB
// buffers, fq qdisc, no-metrics-save, 1 MiB optmem_max); `linux_defaults()`
// is what a stock host ships with, which is what the TuningAdvisor warns
// about.
#pragma once

#include <cstdint>
#include <string>

#include "dtnsim/util/fields.hpp"

namespace dtnsim::kern {

enum class QdiscKind { Fq, FqCodel };

const char* qdisc_name(QdiscKind q);

enum class CongestionAlgo { Cubic, BbrV1, BbrV3, Reno };

const char* congestion_name(CongestionAlgo c);

struct SysctlConfig {
  // net.core.{rmem,wmem}_max
  double rmem_max = 212992;
  double wmem_max = 212992;
  // net.ipv4.tcp_rmem / tcp_wmem (min, default, max)
  double tcp_rmem_min = 4096, tcp_rmem_def = 131072, tcp_rmem_max = 6291456;
  double tcp_wmem_min = 4096, tcp_wmem_def = 16384, tcp_wmem_max = 4194304;
  // net.ipv4.tcp_no_metrics_save — prevents CWND caching between tests.
  bool tcp_no_metrics_save = false;
  // net.core.default_qdisc
  QdiscKind default_qdisc = QdiscKind::FqCodel;
  // net.core.optmem_max — ancillary buffer limit; MSG_ZEROCOPY charges its
  // in-flight notification state against it (paper §IV-A/B, Fig. 9).
  double optmem_max = 20480;
  // net.ipv4.tcp_congestion_control
  CongestionAlgo congestion = CongestionAlgo::Cubic;

  static SysctlConfig linux_defaults();
  // fasterdata.es.net 100G tuning as listed in the paper §III-D.
  static SysctlConfig fasterdata_tuned();

  // Effective socket-buffer-derived window limits. Linux reserves roughly
  // half of tcp_{r,w}mem for metadata/overhead, so the usable data window is
  // about half the byte limit.
  double max_send_window_bytes() const { return tcp_wmem_max * 0.5; }
  double max_recv_window_bytes() const { return tcp_rmem_max * 0.5; }
};

// Every knob is keyed (sweep/cache.hpp); a host writes them as "sysctl.*".
template <class V>
constexpr void fields(V& v, SysctlConfig& s) {
  v("rmem_max", s.rmem_max);
  v("wmem_max", s.wmem_max);
  v("tcp_rmem_min", s.tcp_rmem_min);
  v("tcp_rmem_def", s.tcp_rmem_def);
  v("tcp_rmem_max", s.tcp_rmem_max);
  v("tcp_wmem_min", s.tcp_wmem_min);
  v("tcp_wmem_def", s.tcp_wmem_def);
  v("tcp_wmem_max", s.tcp_wmem_max);
  v("tcp_no_metrics_save", s.tcp_no_metrics_save);
  v("default_qdisc", wire::named(s.default_qdisc, qdisc_name));
  v("optmem_max", s.optmem_max);
  v("congestion", wire::named(s.congestion, congestion_name));
}
static_assert(wire::field_count<SysctlConfig>() == wire::member_count<SysctlConfig>());

}  // namespace dtnsim::kern

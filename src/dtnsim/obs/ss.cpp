#include "dtnsim/obs/ss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {
namespace {

// Human-scaled rate, the way ss prints its send/pacing figures.
std::string fmt_rate(double bps) {
  if (bps >= 1e9) return strfmt("%.2fGbps", bps / 1e9);
  if (bps >= 1e6) return strfmt("%.2fMbps", bps / 1e6);
  if (bps >= 1e3) return strfmt("%.1fKbps", bps / 1e3);
  return strfmt("%.0fbps", bps);
}

std::string fmt_bytes(double bytes) {
  if (bytes >= 1e12) return strfmt("%.2fTB", bytes / 1e12);
  if (bytes >= 1e9) return strfmt("%.2fGB", bytes / 1e9);
  if (bytes >= 1e6) return strfmt("%.1fMB", bytes / 1e6);
  if (bytes >= 1e3) return strfmt("%.1fKB", bytes / 1e3);
  return strfmt("%.0fB", bytes);
}

}  // namespace

double SsReport::total_bytes_acked() const {
  double sum = 0.0;
  for (const auto& s : sockets) sum += s.bytes_acked;
  return sum;
}

double SsReport::total_delivery_rate_bps() const {
  double sum = 0.0;
  for (const auto& s : sockets) sum += s.delivery_rate_bps;
  return sum;
}

std::string format_tcp_info(const TcpInfoSnapshot& s) {
  const double mss = s.mss_bytes > 0 ? s.mss_bytes : 1.0;
  std::string out = strfmt("flow %d: ESTAB\n", s.flow);
  out += strfmt("\t %s%s mss:%.0f cwnd:%.0f ssthresh:%.0f rtt:%.3fms/%.3fms minrtt:%.3fms\n",
                s.ca_name.c_str(), s.in_slow_start ? " slow_start" : "", s.mss_bytes,
                std::round(s.snd_cwnd_bytes / mss), std::round(s.snd_ssthresh_bytes / mss),
                s.rtt_sec * 1e3, s.rttvar_sec * 1e3, s.min_rtt_sec * 1e3);
  out += strfmt("\t send %s pacing_rate %s delivery_rate %s%s\n",
                fmt_rate(s.send_rate_bps).c_str(), fmt_rate(s.pacing_rate_bps).c_str(),
                fmt_rate(s.delivery_rate_bps).c_str(),
                s.delivery_rate_app_limited ? " app_limited" : "");
  out += strfmt("\t bytes_sent:%s bytes_acked:%s bytes_retrans:%s retrans:0/%.0f\n",
                fmt_bytes(s.bytes_sent).c_str(), fmt_bytes(s.bytes_acked).c_str(),
                fmt_bytes(s.bytes_retrans).c_str(), s.segs_retrans);
  out += strfmt("\t notsent:%s rcv_space:%s rcv_rtt:%.3fms rcv_ooopack:%.0f\n",
                fmt_bytes(s.notsent_bytes).c_str(),
                fmt_bytes(s.rcv_space_bytes).c_str(), s.rcv_rtt_sec * 1e3,
                s.rcv_ooopack);
  if (s.optmem_max_bytes > 0) {
    out += strfmt(
        "\t zerocopy: sent %s copied %s (%.0f fallback sends) "
        "optmem %.0f/%.0f hiwater %.0f\n",
        fmt_bytes(s.zc_sent_bytes).c_str(), fmt_bytes(s.zc_copied_bytes).c_str(),
        s.zc_copied_sends, s.optmem_used_bytes, s.optmem_max_bytes,
        s.optmem_hiwater_bytes);
  }
  return out;
}

std::string format_ethtool(const NicCountersSnapshot& s) {
  std::string out = strfmt("NIC statistics for %s:\n", s.device.c_str());
  out += strfmt("     rx_bytes: %.0f\n", s.rx_bytes);
  out += strfmt("     rx_out_of_buffer_bytes: %.0f\n", s.rx_dropped_bytes);
  out += strfmt("     rx_out_of_buffer_events: %.0f\n", s.rx_dropped_events);
  out += strfmt("     rx_ring_hiwater_frac: %.3f\n", s.rx_ring_hiwater_frac);
  out += strfmt("     tx_pause_frames: %.0f\n", s.tx_pause_frames);
  out += strfmt("     rx_pause_frames: %.0f\n", s.rx_pause_frames);
  out += strfmt("     hw_gro_coalesced: %.0f\n", s.hw_gro_coalesced);
  return out;
}

std::string format_tc(const QdiscCountersSnapshot& s) {
  std::string out = strfmt("qdisc %s 0: root\n", s.kind.c_str());
  out += strfmt(
      " Sent %.0f bytes, throttled %.0f times, pacing delay %.3fms, "
      "dropped %.0f, backlog %s\n",
      s.sent_bytes, s.throttled, s.pacing_delay_sec * 1e3, s.drops,
      fmt_bytes(s.backlog_bytes).c_str());
  return out;
}

std::string format_ss(const SsReport& r) {
  std::string out = strfmt("# dtnsim-ss t=%.3fs engine=%s", units::to_seconds(r.ts),
                           r.engine.c_str());
  if (!r.label.empty()) out += strfmt(" label=\"%s\"", r.label.c_str());
  out += "\n";
  for (const auto& s : r.sockets) out += format_tcp_info(s);
  out += format_ethtool(r.nic);
  out += format_tc(r.qdisc);
  return out;
}

namespace {

// One diff row: field name, both values, signed delta (and percent when the
// base is nonzero). `unit` is a short suffix printed after each value.
void diff_row(std::string& out, const char* field, double a, double b,
              const char* unit = "") {
  std::string delta = strfmt("%+.6g%s", b - a, unit);
  if (a != 0.0) delta += strfmt(" (%+.1f%%)", (b - a) / std::abs(a) * 100.0);
  out += strfmt("  %-26s %16.6g%-5s %16.6g%-5s %s\n", field, a, unit, b, unit,
                b == a ? "=" : delta.c_str());
}

}  // namespace

std::string format_ss_diff(const SsReport& a, const SsReport& b) {
  const auto head = [](const SsReport& r, const char* tag) {
    return strfmt("#   %s: t=%.3fs engine=%s%s%s%s\n", tag, units::to_seconds(r.ts),
                  r.engine.c_str(), r.label.empty() ? "" : " label=\"",
                  r.label.c_str(), r.label.empty() ? "" : "\"");
  };
  std::string out = "# dtnsim-ss diff (B - A)\n";
  out += head(a, "A");
  out += head(b, "B");
  out += strfmt("  %-26s %21s %21s %s\n", "field", "A", "B", "delta");

  const TcpInfoSnapshot ea{};  // all-zero stand-in when a side has no sockets
  const TcpInfoSnapshot& fa = a.sockets.empty() ? ea : a.sockets.front();
  const TcpInfoSnapshot& fb = b.sockets.empty() ? ea : b.sockets.front();
  const auto sum = [](const SsReport& r, double TcpInfoSnapshot::* field) {
    double total = 0.0;
    for (const auto& s : r.sockets) total += s.*field;
    return total;
  };

  diff_row(out, "sockets", static_cast<double>(a.sockets.size()),
           static_cast<double>(b.sockets.size()));
  // Window dynamics from the representative flow 0, like format_tcp_info.
  diff_row(out, "cwnd (flow 0)", fa.snd_cwnd_bytes, fb.snd_cwnd_bytes, "B");
  diff_row(out, "ssthresh (flow 0)", fa.snd_ssthresh_bytes, fb.snd_ssthresh_bytes, "B");
  diff_row(out, "rtt (flow 0)", fa.rtt_sec * 1e3, fb.rtt_sec * 1e3, "ms");
  diff_row(out, "minrtt (flow 0)", fa.min_rtt_sec * 1e3, fb.min_rtt_sec * 1e3, "ms");
  diff_row(out, "pacing_rate (flow 0)", fa.pacing_rate_bps / 1e9,
           fb.pacing_rate_bps / 1e9, "Gbps");
  // Totals across sockets, the aggregate iperf3 view.
  diff_row(out, "send_rate", a.total_delivery_rate_bps() / 1e9,
           b.total_delivery_rate_bps() / 1e9, "Gbps");
  diff_row(out, "bytes_sent", sum(a, &TcpInfoSnapshot::bytes_sent),
           sum(b, &TcpInfoSnapshot::bytes_sent), "B");
  diff_row(out, "bytes_acked", a.total_bytes_acked(), b.total_bytes_acked(), "B");
  diff_row(out, "bytes_retrans", sum(a, &TcpInfoSnapshot::bytes_retrans),
           sum(b, &TcpInfoSnapshot::bytes_retrans), "B");
  diff_row(out, "retrans_segs", sum(a, &TcpInfoSnapshot::segs_retrans),
           sum(b, &TcpInfoSnapshot::segs_retrans));
  diff_row(out, "notsent", sum(a, &TcpInfoSnapshot::notsent_bytes),
           sum(b, &TcpInfoSnapshot::notsent_bytes), "B");
  diff_row(out, "zc_sent", sum(a, &TcpInfoSnapshot::zc_sent_bytes),
           sum(b, &TcpInfoSnapshot::zc_sent_bytes), "B");
  diff_row(out, "zc_copied", sum(a, &TcpInfoSnapshot::zc_copied_bytes),
           sum(b, &TcpInfoSnapshot::zc_copied_bytes), "B");
  diff_row(out, "zc_fallback_sends", sum(a, &TcpInfoSnapshot::zc_copied_sends),
           sum(b, &TcpInfoSnapshot::zc_copied_sends));
  diff_row(out, "optmem_hiwater", sum(a, &TcpInfoSnapshot::optmem_hiwater_bytes),
           sum(b, &TcpInfoSnapshot::optmem_hiwater_bytes), "B");
  // NIC and qdisc counter blocks.
  diff_row(out, "nic.rx_bytes", a.nic.rx_bytes, b.nic.rx_bytes, "B");
  diff_row(out, "nic.rx_dropped_bytes", a.nic.rx_dropped_bytes,
           b.nic.rx_dropped_bytes, "B");
  diff_row(out, "nic.rx_dropped_events", a.nic.rx_dropped_events,
           b.nic.rx_dropped_events);
  diff_row(out, "nic.ring_hiwater_frac", a.nic.rx_ring_hiwater_frac,
           b.nic.rx_ring_hiwater_frac);
  diff_row(out, "nic.tx_pause_frames", a.nic.tx_pause_frames, b.nic.tx_pause_frames);
  diff_row(out, "nic.hw_gro_coalesced", a.nic.hw_gro_coalesced, b.nic.hw_gro_coalesced);
  diff_row(out, "qdisc.sent_bytes", a.qdisc.sent_bytes, b.qdisc.sent_bytes, "B");
  diff_row(out, "qdisc.throttled", a.qdisc.throttled, b.qdisc.throttled);
  diff_row(out, "qdisc.pacing_delay", a.qdisc.pacing_delay_sec * 1e3,
           b.qdisc.pacing_delay_sec * 1e3, "ms");
  diff_row(out, "qdisc.drops", a.qdisc.drops, b.qdisc.drops);
  return out;
}

Json to_json(const TcpInfoSnapshot& s) { return wire::to_json(s); }

Json ss_log_to_json(const std::vector<SsReport>& log) {
  // The writer only reads through the reference.
  return wire::to_json(SsLog{const_cast<std::vector<SsReport>&>(log)});
}

void cross_check_delivered(const SsReport& report, const Registry& registry,
                           const std::string& counter, double baseline) {
  const double probe_view = registry.value_of(counter) - baseline;
  const double ss_view = report.total_bytes_acked();
  // Per-flow vs. per-tick accumulation order differs, so allow fp drift.
  const double tol = 1e-6 * std::max({std::fabs(probe_view), std::fabs(ss_view), 1.0});
  if (std::fabs(probe_view - ss_view) > tol) {
    throw std::logic_error(strfmt(
        "ss/probe divergence at t=%.6fs: %s=%.6f bytes this run but ss "
        "snapshot sums bytes_acked=%.6f (the kernel-eye and iperf3-eye views "
        "of one run must agree)",
        units::to_seconds(report.ts), counter.c_str(), probe_view, ss_view));
  }
}

}  // namespace dtnsim::obs

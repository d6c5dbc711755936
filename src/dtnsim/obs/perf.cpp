#include "dtnsim/obs/perf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {
namespace {

struct StageDesc {
  const char* name;    // taxonomy key (JSON, flamegraph frames)
  const char* symbol;  // kernel symbol the stage mirrors
  PerfCore core;
};

// Indexed by static_cast<int>(PerfStage); order must match the enum.
const StageDesc kStages[kPerfStageCount] = {
    {"tx_syscall", "tcp_sendmsg_locked", PerfCore::SndApp},
    {"tx_proto", "tcp_write_xmit", PerfCore::SndApp},
    {"tx_user_copy", "copy_user_enhanced_fast_string", PerfCore::SndApp},
    {"tx_zc_pin", "zerocopy_sg_from_iter", PerfCore::SndApp},
    {"tx_zc_notify", "msg_zerocopy_callback", PerfCore::SndApp},
    {"tx_zc_fallback", "skb_zerocopy_iter_stream", PerfCore::SndApp},
    {"tx_gso_segment", "tcp_gso_segment", PerfCore::SndIrq},
    {"tx_dma_map", "dma_map_page_attrs", PerfCore::SndIrq},
    {"tx_completion", "skb_release_data", PerfCore::SndIrq},
    {"rx_skb_alloc", "mlx5e_skb_from_cqe_mpwrq", PerfCore::RcvIrq},
    {"rx_gro_merge", "gro_receive", PerfCore::RcvIrq},
    {"rx_agg_flush", "napi_gro_flush", PerfCore::RcvIrq},
    {"rx_csum", "csum_partial", PerfCore::RcvIrq},
    {"rx_syscall", "tcp_recvmsg", PerfCore::RcvApp},
    {"rx_frag_walk", "skb_copy_datagram_msg", PerfCore::RcvApp},
    {"rx_copyout", "copy_user_enhanced_fast_string", PerfCore::RcvApp},
};

const char* const kCoreNames[kPerfCoreCount] = {"snd_app", "snd_irq",
                                                "rcv_app", "rcv_irq"};

std::string fmt_cycles(double cycles) {
  if (cycles >= 1e12) return strfmt("%.2fTcyc", cycles / 1e12);
  if (cycles >= 1e9) return strfmt("%.2fGcyc", cycles / 1e9);
  if (cycles >= 1e6) return strfmt("%.1fMcyc", cycles / 1e6);
  if (cycles >= 1e3) return strfmt("%.1fKcyc", cycles / 1e3);
  return strfmt("%.0fcyc", cycles);
}

}  // namespace

const char* perf_stage_name(PerfStage s) {
  return kStages[static_cast<int>(s)].name;
}

const char* perf_stage_symbol(PerfStage s) {
  return kStages[static_cast<int>(s)].symbol;
}

PerfCore perf_stage_core(PerfStage s) {
  return kStages[static_cast<int>(s)].core;
}

const char* perf_core_name(PerfCore c) {
  return kCoreNames[static_cast<int>(c)];
}

double PerfReport::core_stage_cycles(PerfCore c) const {
  double sum = 0.0;
  for (int i = 0; i < kPerfStageCount; ++i) {
    if (kStages[i].core == c) sum += stage_cycles[i];
  }
  return sum;
}

double PerfReport::total_cycles() const {
  double sum = 0.0;
  for (double c : stage_cycles) sum += c;
  return sum;
}

double PerfReport::core_utilization(PerfCore c) const {
  const double cap = capacity_cycles[static_cast<int>(c)];
  if (cap <= 0.0) return 0.0;
  return std::clamp(consumed_cycles[static_cast<int>(c)] / cap, 0.0, 1.0);
}

double PerfReport::tx_cyc_per_byte() const {
  if (bytes_sent <= 0.0) return 0.0;
  return (core_stage_cycles(PerfCore::SndApp) +
          core_stage_cycles(PerfCore::SndIrq)) /
         bytes_sent;
}

double PerfReport::rx_cyc_per_byte() const {
  if (bytes_delivered <= 0.0) return 0.0;
  return (core_stage_cycles(PerfCore::RcvApp) +
          core_stage_cycles(PerfCore::RcvIrq)) /
         bytes_delivered;
}

std::string format_perf_report(const PerfReport& r) {
  std::string out = strfmt("# dtnsim-perf t=%.3fs engine=%s",
                           units::to_seconds(r.ts), r.engine.c_str());
  if (!r.label.empty()) out += strfmt(" label=\"%s\"", r.label.c_str());
  out += "\n";
  out += strfmt("# Samples: exact attribution, %s total (tx %.3f cyc/B, rx %.3f cyc/B)\n",
                fmt_cycles(r.total_cycles()).c_str(), r.tx_cyc_per_byte(),
                r.rx_cyc_per_byte());
  out += "# Children      Self        Cycles  Core     Symbol\n";
  const double total = std::max(r.total_cycles(), 1e-12);
  // Core groups ordered by their cycle share, heaviest first — the way perf
  // orders its comm/dso groups.
  int order[kPerfCoreCount] = {0, 1, 2, 3};
  std::sort(order, order + kPerfCoreCount, [&](int a, int b) {
    const double ca = r.core_stage_cycles(static_cast<PerfCore>(a));
    const double cb = r.core_stage_cycles(static_cast<PerfCore>(b));
    if (ca != cb) return ca > cb;
    return a < b;
  });
  for (int oi = 0; oi < kPerfCoreCount; ++oi) {
    const auto core = static_cast<PerfCore>(order[oi]);
    const double core_cyc = r.core_stage_cycles(core);
    out += strfmt("%9.2f%%        --  %12.0f  %-7s  [%s] %.1f%% busy\n",
                  100.0 * core_cyc / total, core_cyc, perf_core_name(core),
                  perf_core_name(core), 100.0 * r.core_utilization(core));
    // Stages of this group, heaviest first; zero-cycle stages are noise.
    int stages[kPerfStageCount];
    int n = 0;
    for (int i = 0; i < kPerfStageCount; ++i) {
      if (kStages[i].core == core && r.stage_cycles[i] > 0.0) stages[n++] = i;
    }
    std::sort(stages, stages + n, [&](int a, int b) {
      if (r.stage_cycles[a] != r.stage_cycles[b])
        return r.stage_cycles[a] > r.stage_cycles[b];
      return a < b;
    });
    for (int si = 0; si < n; ++si) {
      const int i = stages[si];
      const double pct = 100.0 * r.stage_cycles[i] / total;
      out += strfmt("%9.2f%%  %7.2f%%  %12.0f  %-7s  %s\n", pct, pct,
                    r.stage_cycles[i], perf_core_name(core),
                    kStages[i].symbol);
    }
  }
  return out;
}

std::string format_flamegraph(const PerfReport& r) {
  std::string out;
  const char* root = r.engine.empty() ? "dtnsim" : r.engine.c_str();
  for (int i = 0; i < kPerfStageCount; ++i) {
    if (r.stage_cycles[i] <= 0.0) continue;
    out += strfmt("%s;%s;%s %lld\n", root,
                  perf_core_name(kStages[i].core), kStages[i].symbol,
                  static_cast<long long>(std::llround(r.stage_cycles[i])));
  }
  return out;
}

std::string format_flamegraph_diff(const PerfReport& before,
                                   const PerfReport& after) {
  // Stacks only diff when their frames match, so two different engines
  // fall back to the shared "dtnsim" root.
  const std::string root = (!before.engine.empty() && before.engine == after.engine)
                               ? before.engine
                               : std::string("dtnsim");
  std::string out;
  for (int i = 0; i < kPerfStageCount; ++i) {
    if (before.stage_cycles[i] <= 0.0 && after.stage_cycles[i] <= 0.0) continue;
    out += strfmt("%s;%s;%s %lld %lld\n", root.c_str(),
                  perf_core_name(kStages[i].core), kStages[i].symbol,
                  static_cast<long long>(std::llround(before.stage_cycles[i])),
                  static_cast<long long>(std::llround(after.stage_cycles[i])));
  }
  return out;
}

Json to_json(const PerfReport& r) { return wire::to_json(r); }

Json perf_log_to_json(const std::vector<PerfReport>& log) {
  // The writer only reads through the reference.
  return wire::to_json(PerfLog{const_cast<std::vector<PerfReport>&>(log)});
}

std::vector<PerfReport> perf_log_from_json(const Json& doc) {
  std::vector<PerfReport> out;
  PerfLog log{out};
  wire::read(doc, log);
  return out;
}

bool write_perf_log(const std::string& path,
                    const std::vector<PerfReport>& log) {
  std::ofstream out(path);
  if (!out) return false;
  out << perf_log_to_json(log).dump(2) << "\n";
  return static_cast<bool>(out);
}

void cross_check_stage_sum(const PerfReport& report) {
  for (int c = 0; c < kPerfCoreCount; ++c) {
    const double stage_sum =
        report.core_stage_cycles(static_cast<PerfCore>(c));
    const double consumed = report.consumed_cycles[c];
    // The split prices each term separately, so allow only fp drift.
    const double tol =
        1e-6 * std::max({std::fabs(stage_sum), std::fabs(consumed), 1.0});
    if (std::fabs(stage_sum - consumed) > tol) {
      throw std::logic_error(strfmt(
          "perf stage-sum divergence at t=%.6fs: %s stages sum to %.6f "
          "cycles but the engine charged %.6f (the attribution must account "
          "for exactly the cycles the engine charged to that core group)",
          units::to_seconds(report.ts), kCoreNames[c], stage_sum, consumed));
    }
  }
}

}  // namespace dtnsim::obs

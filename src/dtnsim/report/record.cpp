#include "dtnsim/report/record.hpp"

#include <stdexcept>

#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::report {

RunAnalysis analyze_run(const obs::SeriesTable& series,
                        const std::vector<obs::PerfReport>& perf_log,
                        const scenario::EventLog& scenario_log) {
  RunAnalysis a;
  // "Forever" for the whole-series window; SimTime is int64 nanoseconds so
  // 1e9 seconds stays comfortably inside the representable range.
  const auto horizon = units::SimTime::from_seconds(1e9);
  const std::string col = goodput_column(series);
  if (!col.empty()) {
    const SeriesStats st = rate_stats(series, col, units::SimTime(), horizon);
    a.samples = st.samples;
    a.mean = st.mean;
    a.p50 = st.p50;
    a.p99 = st.p99;
    a.flow_skew = per_flow_skew(series, units::SimTime(), horizon);
    if (const auto w = episode_window(scenario_log)) {
      a.has_episode = true;
      a.episode_start = w->first;
      a.episode_end = w->second;
      const RecoveryStats rec = analyze_recovery(series, col, w->first, w->second);
      a.baseline = rec.baseline;
      a.dip = rec.dip;
      a.recovered = rec.recovered;
      a.recovery = rec.recovery;
    }
  }
  if (!perf_log.empty()) {
    a.tx_cyc_per_byte = perf_log.back().tx_cyc_per_byte();
    a.rx_cyc_per_byte = perf_log.back().rx_cyc_per_byte();
  }
  return a;
}

RunAnalysis analyze_record(const RunRecord& record) {
  return analyze_run(record.series, record.perf_log, record.scenario_log);
}

// ---- JSON round-trip ------------------------------------------------------

Json to_json(const RunAnalysis& analysis) { return wire::to_json(analysis); }
Json to_json(const RunRecord& record) { return wire::to_json(record); }

RunRecord run_record_from_json(const Json& j) {
  RunRecord r;
  if (const std::string err = wire::read(j, r); !err.empty())
    throw std::runtime_error("run record: " + err);
  return r;
}

bool write_run_record(const std::string& path, const RunRecord& record) {
  std::string text = to_json(record).dump(2);
  text += '\n';
  return write_file(path, text);
}

RunRecord load_run_record(const std::string& path) {
  const auto text = read_file(path);
  if (!text) throw std::runtime_error("run record: cannot read " + path);
  const auto doc = Json::parse(*text);
  if (!doc) throw std::runtime_error("run record: " + path + " is not valid JSON");
  RunRecord r;
  const std::string err = wire::read(*doc, r);
  if (r.schema != kRunRecordSchema) {
    throw std::runtime_error(
        strfmt("run record: %s has schema %d, this build reads %d", path.c_str(),
               r.schema, kRunRecordSchema));
  }
  if (!err.empty()) throw std::runtime_error("run record: " + path + ": " + err);
  return r;
}

// ---- renderers ------------------------------------------------------------

namespace {

std::string format_recovery_line(const RunAnalysis& a) {
  if (!a.has_episode) return "  episode    : none (no applied scenario events)\n";
  std::string out =
      strfmt("  episode    : [%.1f, %.1f] s  baseline %.2f Gbps  dip %.2f Gbps",
             a.episode_start.seconds(), a.episode_end.seconds(), a.baseline.gbps(),
             a.dip.gbps());
  if (a.baseline.bps() > 0.0)
    out += strfmt(" (retained %.0f%%)", 100.0 * a.dip.bps() / a.baseline.bps());
  if (a.recovered)
    out += strfmt("  recovery %.1f s\n", a.recovery.seconds());
  else
    out += "  recovery: never\n";
  return out;
}

}  // namespace

std::string format_run_record(const RunRecord& record) {
  const RunMeta& m = record.meta;
  const RunSummary& s = record.summary;
  const RunAnalysis& a = record.analysis;
  std::string out = strfmt("run record: %s (schema %d, engine %s)\n",
                           m.name.c_str(), record.schema, m.engine.c_str());
  out += strfmt("  spec       : %d stream%s, %.0f s, %d repeat%s, seed %llu%s%s\n",
                m.streams, m.streams == 1 ? "" : "s", m.duration_sec, m.repeats,
                m.repeats == 1 ? "" : "s",
                static_cast<unsigned long long>(m.base_seed),
                m.scenario.empty() ? "" : ", scenario ",
                m.scenario.c_str());
  out += strfmt(
      "  throughput : %.2f ± %.2f Gbps (min %.2f, max %.2f)  retrans %.0f\n",
      s.avg_gbps, s.stdev_gbps, s.min_gbps, s.max_gbps, s.avg_retransmits);
  out += strfmt("  cpu        : sender %.0f%%  receiver %.0f%%\n", s.snd_cpu_pct,
                s.rcv_cpu_pct);
  out += strfmt(
      "  series     : %zu samples  mean %.2f  p50 %.2f  p99 %.2f Gbps  "
      "skew %.2f Gbps\n",
      a.samples, a.mean.gbps(), a.p50.gbps(), a.p99.gbps(), a.flow_skew.gbps());
  out += format_recovery_line(a);
  if (a.tx_cyc_per_byte > 0.0 || a.rx_cyc_per_byte > 0.0) {
    out += strfmt("  perf       : %.2f tx cyc/B  %.2f rx cyc/B\n",
                  a.tx_cyc_per_byte, a.rx_cyc_per_byte);
  }
  out += strfmt(
      "  artifacts  : %zu ss snapshot%s, %zu perf sample%s, %zu scenario "
      "event%s\n",
      record.ss_log.size(), record.ss_log.size() == 1 ? "" : "s",
      record.perf_log.size(), record.perf_log.size() == 1 ? "" : "s",
      record.scenario_log.events.size(),
      record.scenario_log.events.size() == 1 ? "" : "s");
  return out;
}

std::string format_record_diff(const RunRecord& a, const RunRecord& b) {
  std::string out = strfmt("run record diff: %s vs %s\n", a.meta.name.c_str(),
                           b.meta.name.c_str());
  const auto row = [&out](const char* field, double va, double vb,
                          const char* unit) {
    const double delta = vb - va;
    std::string pct;
    if (va != 0.0) pct = strfmt(" (%+.1f%%)", 100.0 * delta / va);
    out += strfmt("  %-16s %10.3f -> %10.3f %s  %+.3f%s\n", field, va, vb, unit,
                  delta, pct.c_str());
  };
  row("avg_gbps", a.summary.avg_gbps, b.summary.avg_gbps, "Gbps");
  row("stdev_gbps", a.summary.stdev_gbps, b.summary.stdev_gbps, "Gbps");
  row("retransmits", a.summary.avg_retransmits, b.summary.avg_retransmits, "seg");
  row("snd_cpu", a.summary.snd_cpu_pct, b.summary.snd_cpu_pct, "%");
  row("rcv_cpu", a.summary.rcv_cpu_pct, b.summary.rcv_cpu_pct, "%");
  row("p99", a.analysis.p99.gbps(), b.analysis.p99.gbps(), "Gbps");
  row("tx_cyc_per_byte", a.analysis.tx_cyc_per_byte, b.analysis.tx_cyc_per_byte,
      "cyc/B");
  row("rx_cyc_per_byte", a.analysis.rx_cyc_per_byte, b.analysis.rx_cyc_per_byte,
      "cyc/B");
  if (a.analysis.has_episode || b.analysis.has_episode) {
    row("baseline", a.analysis.baseline.gbps(), b.analysis.baseline.gbps(), "Gbps");
    row("dip", a.analysis.dip.gbps(), b.analysis.dip.gbps(), "Gbps");
    row("recovery_sec",
        a.analysis.recovered ? a.analysis.recovery.seconds() : -1.0,
        b.analysis.recovered ? b.analysis.recovery.seconds() : -1.0, "s");
  }
  return out;
}

}  // namespace dtnsim::report

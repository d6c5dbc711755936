#include "dtnsim/report/record.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::report {

RunAnalysis analyze_record(const RunRecord& record) {
  RunAnalysis a;
  // "Forever" for the whole-series window; SimTime is int64 nanoseconds so
  // 1e9 seconds stays comfortably inside the representable range.
  const auto horizon = units::SimTime::from_seconds(1e9);
  const std::string col = goodput_column(record.series);
  if (!col.empty()) {
    const SeriesStats st = rate_stats(record.series, col, units::SimTime(), horizon);
    a.samples = st.samples;
    a.mean = st.mean;
    a.p50 = st.p50;
    a.p99 = st.p99;
    a.flow_skew = per_flow_skew(record.series, units::SimTime(), horizon);
    if (const auto w = episode_window(record.scenario_log)) {
      a.has_episode = true;
      a.episode_start = w->first;
      a.episode_end = w->second;
      const RecoveryStats rec = analyze_recovery(record.series, col, w->first, w->second);
      a.baseline = rec.baseline;
      a.dip = rec.dip;
      a.recovered = rec.recovered;
      a.recovery = rec.recovery;
    }
  }
  if (!record.perf_log.empty()) {
    a.tx_cyc_per_byte = record.perf_log.back().tx_cyc_per_byte();
    a.rx_cyc_per_byte = record.perf_log.back().rx_cyc_per_byte();
  }
  return a;
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
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(record).dump(2) << '\n';
  return static_cast<bool>(out);
}

RunRecord load_run_record(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("run record: cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = Json::parse(buf.str());
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

// gnuplot single-quoted strings escape ' by doubling it.
std::string gp_quote(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
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

bool write_record_plot(const std::string& base, const RunRecord& record) {
  const std::string col = goodput_column(record.series);
  const auto t = record.series.column("time_s");
  const auto bps = record.series.column(col.empty() ? "time_s" : col);

  std::ofstream dat(base + ".dat");
  if (!dat) return false;
  dat << "# " << record.meta.name << " — goodput series (" << record.meta.engine
      << " engine)\n# time_s goodput_gbps\n";
  if (!col.empty()) {
    for (std::size_t i = 0; i < t.size() && i < bps.size(); ++i)
      dat << strfmt("%.6f %.6f\n", t[i], bps[i] / 1e9);
  }
  if (!dat) return false;

  std::ofstream gp(base + ".gp");
  if (!gp) return false;
  const RunAnalysis& a = record.analysis;
  gp << "# dtnsim-report --plot output; render with: gnuplot " << base << ".gp\n";
  gp << "set terminal pngcairo size 1000,600 noenhanced\n";  // literal labels
  gp << "set output '" << gp_quote(base) << ".png'\n";
  gp << "set title '" << gp_quote(record.meta.name) << "'\n";
  gp << "set xlabel 'time (s)'\n";
  gp << "set ylabel 'goodput (Gbps)'\n";
  gp << "set grid\n";
  if (a.has_episode) {
    gp << strfmt("set arrow from %.3f, graph 0 to %.3f, graph 1 nohead dashtype 2\n",
                 a.episode_start.seconds(), a.episode_start.seconds());
    gp << strfmt("set arrow from %.3f, graph 0 to %.3f, graph 1 nohead dashtype 2\n",
                 a.episode_end.seconds(), a.episode_end.seconds());
    gp << strfmt("set label 'episode' at %.3f, graph 0.95\n",
                 a.episode_start.seconds());
  }
  gp << "plot '" << gp_quote(base) << ".dat' using 1:2 with lines lw 2 "
     << "title 'goodput'\n";
  return static_cast<bool>(gp);
}

bool write_campaign_plot(const std::string& base, const std::string& title,
                         const std::vector<Json>& rows) {
  // Column presence is detected across all rows so the .gp only draws the
  // overlays the campaign actually produced (perf columns need --perf,
  // dip/recovery need --telemetry + --scenarios).
  bool has_perf = false, has_dip = false;
  for (const Json& row : rows) {
    if (row.find("tx_cyc_per_byte")) has_perf = true;
    if (row.find("dip_gbps")) has_dip = true;
  }

  // Fixed column layout (tab-separated; cell labels may contain spaces):
  //   1 index  2 avg  3 stdev  4 min  5 max  6 tx_cyc/B  7 rx_cyc/B
  //   8 dip_gbps  9 recovery_sec  10 name
  // Missing overlays fill with 0 / -1 and simply go unplotted.
  std::ofstream dat(base + ".dat");
  if (!dat) return false;
  dat << "# " << title << " — campaign cells\n"
      << "# index\tavg_gbps\tstdev_gbps\tmin_gbps\tmax_gbps\ttx_cyc_per_byte\t"
         "rx_cyc_per_byte\tdip_gbps\trecovery_sec\tname\n";
  for (const Json& row : rows) {
    dat << strfmt("%.0f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.3f\t",
                  row.number_at("index", -1), row.number_at("avg_gbps", 0.0),
                  row.number_at("stdev_gbps", 0.0), row.number_at("min_gbps", 0.0),
                  row.number_at("max_gbps", 0.0),
                  row.number_at("tx_cyc_per_byte", 0.0),
                  row.number_at("rx_cyc_per_byte", 0.0),
                  row.number_at("dip_gbps", 0.0),
                  row.number_at("recovery_sec", -1.0))
        << row.string_at("name", "?") << '\n';
  }
  if (!dat) return false;

  std::ofstream gp(base + ".gp");
  if (!gp) return false;
  gp << "# dtnsim-sweep --plot-out output; render with: gnuplot " << base
     << ".gp\n";
  gp << "set terminal pngcairo size 1200,620 noenhanced\n";  // literal labels
  gp << "set output '" << gp_quote(base) << ".png'\n";
  gp << "set datafile separator \"\\t\"\n";
  gp << "set title '" << gp_quote(title) << "'\n";
  gp << "set ylabel 'Gbps'\n";
  gp << "set grid ytics\n";
  gp << "set xtics rotate by -35 scale 0\n";
  gp << "set key outside top right\n";
  if (has_perf) {
    gp << "set y2label 'cycles/byte'\n";
    gp << "set y2tics\n";
  }
  gp << "plot '" << gp_quote(base)
     << ".dat' using 0:2:3:xtic(10) with yerrorbars lw 2 title 'avg ± stdev'";
  if (has_dip)
    gp << ", \\\n     '' using 0:8 with points pt 6 title 'episode dip'";
  if (has_perf) {
    gp << ", \\\n     '' using 0:6 axes x1y2 with linespoints dashtype 2 "
          "title 'tx cyc/B'";
    gp << ", \\\n     '' using 0:7 axes x1y2 with linespoints dashtype 3 "
          "title 'rx cyc/B'";
  }
  gp << '\n';
  return static_cast<bool>(gp);
}

}  // namespace dtnsim::report

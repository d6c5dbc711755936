#include "dtnsim/report/plot.hpp"

#include <filesystem>

#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::report {
namespace {

// A gnuplot single-quoted string: ' inside it is doubled.
std::string gp_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

std::string dat_text(const Figure& fig) {
  std::string out = "# " + fig.title + "\n#";
  for (std::size_t i = 0; i < fig.columns.size(); ++i) {
    out += i == 0 ? " " : "\t";
    out += fig.columns[i];
  }
  out += '\n';
  for (const auto& row : fig.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += '\t';
      if (const double* v = std::get_if<double>(&row[i])) {
        out += strfmt("%.*f", fig.decimals, *v);
      } else {
        out += std::get<std::string>(row[i]);
      }
    }
    out += '\n';
  }
  return out;
}

std::string gp_text(const Figure& fig, const std::string& name) {
  std::string out = "# render from this directory: gnuplot " + name + ".gp\n";
  // noenhanced: labels print literally, so "optmem_max" keeps its "_m".
  out += "set terminal pngcairo size " + fig.size + " noenhanced\n";
  out += "set output " + gp_quote(name + ".png") + "\n";
  out += "set datafile separator \"\\t\"\n";
  out += "set title " + gp_quote(fig.title) + "\n";
  for (const auto& line : fig.setup) out += line + "\n";
  for (std::size_t i = 0; i < fig.curves.size(); ++i) {
    out += i == 0 ? "plot " + gp_quote(name + ".dat") : ", \\\n     ''";
    out += " " + fig.curves[i].spec + " title " + gp_quote(fig.curves[i].title);
  }
  return out + "\n";
}

}  // namespace

std::string write_figure(const std::string& base, const Figure& fig) {
  const std::string name = std::filesystem::path(base).filename().string();
  if (!write_file(base + ".dat", dat_text(fig))) return base + ".dat";
  if (!write_file(base + ".gp", gp_text(fig, name))) return base + ".gp";
  return "";
}

std::string render_command(const std::string& base) {
  const std::filesystem::path path(base);
  const std::string gnuplot = "gnuplot " + path.filename().string() + ".gp";
  return path.has_parent_path() ? "cd " + path.parent_path().string() + " && " + gnuplot
                                : gnuplot;
}

Figure record_figure(const RunRecord& record) {
  Figure fig;
  fig.title = record.meta.name;
  fig.size = "1000,600";
  fig.setup = {"set xlabel 'time (s)'", "set ylabel 'goodput (Gbps)'", "set grid"};
  const RunAnalysis& a = record.analysis;
  if (a.has_episode) {
    for (const double t : {a.episode_start.seconds(), a.episode_end.seconds()})
      fig.setup.push_back(
          strfmt("set arrow from %.3f, graph 0 to %.3f, graph 1 nohead dashtype 2", t, t));
    fig.setup.push_back(
        strfmt("set label 'episode' at %.3f, graph 0.95", a.episode_start.seconds()));
  }
  fig.columns = {"time_s", "goodput_gbps"};
  if (const std::string col = goodput_column(record.series); !col.empty()) {
    const auto t = record.series.column("time_s");
    const auto bps = record.series.column(col);
    for (std::size_t i = 0; i < t.size() && i < bps.size(); ++i)
      fig.rows.push_back({t[i], bps[i] / 1e9});
  }
  fig.curves = {{"using 1:2 with lines lw 2", "goodput"}};
  return fig;
}

Figure campaign_figure(const std::string& title, const std::vector<Json>& rows) {
  // Column presence is detected across all rows so the script only draws
  // the overlays the campaign produced (perf columns need --perf,
  // dip/recovery need --telemetry + --scenarios).
  bool has_perf = false, has_dip = false;
  for (const Json& row : rows) {
    if (row.find("tx_cyc_per_byte")) has_perf = true;
    if (row.find("dip_gbps")) has_dip = true;
  }
  Figure fig;
  fig.title = title;
  fig.size = "1200,620";
  fig.setup = {"set ylabel 'Gbps'", "set grid ytics", "set xtics rotate by -35 scale 0",
               "set key outside top right"};
  if (has_perf) fig.setup.insert(fig.setup.end(), {"set y2label 'cycles/byte'", "set y2tics"});
  // A fixed layout with the name last (labels contain spaces); missing
  // overlays fill with 0 / -1 and go unplotted.
  fig.columns = {"index",           "avg_gbps",        "stdev_gbps", "min_gbps",
                 "max_gbps",        "tx_cyc_per_byte", "rx_cyc_per_byte",
                 "dip_gbps",        "recovery_sec",    "name"};
  for (const Json& row : rows) {
    fig.rows.push_back({row.number_at("index", -1), row.number_at("avg_gbps", 0.0),
                        row.number_at("stdev_gbps", 0.0), row.number_at("min_gbps", 0.0),
                        row.number_at("max_gbps", 0.0), row.number_at("tx_cyc_per_byte", 0.0),
                        row.number_at("rx_cyc_per_byte", 0.0), row.number_at("dip_gbps", 0.0),
                        row.number_at("recovery_sec", -1.0), row.string_at("name", "?")});
  }
  fig.curves = {{"using 0:2:3:xtic(10) with yerrorbars lw 2", "avg ± stdev"}};
  if (has_dip) fig.curves.push_back({"using 0:8 with points pt 6", "episode dip"});
  if (has_perf) {
    fig.curves.push_back({"using 0:6 axes x1y2 with linespoints dashtype 2", "tx cyc/B"});
    fig.curves.push_back({"using 0:7 axes x1y2 with linespoints dashtype 3", "rx cyc/B"});
  }
  return fig;
}

}  // namespace dtnsim::report

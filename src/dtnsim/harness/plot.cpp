#include "dtnsim/harness/plot.hpp"

#include <cstdio>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::harness {

std::string to_gnuplot_data(const FigureSpec& fig) {
  std::string out = "# " + fig.id + ": " + fig.title + "\n# category";
  for (const auto& s : fig.series) {
    out += "\t" + s.label + "\terr";
  }
  out += "\n";
  for (std::size_t c = 0; c < fig.categories.size(); ++c) {
    out += "\"" + fig.categories[c] + "\"";
    for (const auto& s : fig.series) {
      const double v = c < s.values.size() ? s.values[c] : 0.0;
      const double e = c < s.errors.size() ? s.errors[c] : 0.0;
      out += strfmt("\t%.4f\t%.4f", v, e);
    }
    out += "\n";
  }
  return out;
}

std::string to_gnuplot_script(const FigureSpec& fig) {
  std::string out;
  // noenhanced: labels print literally, so "optmem_max" keeps its "_m".
  out += "set terminal pngcairo size 960,540 noenhanced\n";
  out += strfmt("set output '%s.png'\n", fig.id.c_str());
  out += strfmt("set title '%s'\n", fig.title.c_str());
  out += strfmt("set ylabel '%s'\n", fig.ylabel.c_str());
  out += "set style data histogram\n";
  out += "set style histogram errorbars gap 2 lw 1\n";
  out += "set style fill solid 0.8 border -1\n";
  out += "set key outside top center horizontal\n";
  out += "set yrange [0:*]\n";
  out += "set grid ytics\n";
  out += strfmt("plot '%s.dat' \\\n", fig.id.c_str());
  for (std::size_t s = 0; s < fig.series.size(); ++s) {
    const std::size_t col = 2 + s * 2;
    out += strfmt("    %s using %zu:%zu:xtic(1) title '%s'%s\n",
                  s == 0 ? "" : "''", col, col + 1, fig.series[s].label.c_str(),
                  s + 1 < fig.series.size() ? ", \\" : "");
  }
  return out;
}

bool write_figure(const FigureSpec& fig, const std::string& dir) {
  const auto write_file = [](const std::string& path, const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
    std::fclose(f);
    return ok;
  };
  return write_file(dir + "/" + fig.id + ".dat", to_gnuplot_data(fig)) &&
         write_file(dir + "/" + fig.id + ".gp", to_gnuplot_script(fig));
}

FigureSpec figure_from_results(const std::string& id, const std::string& title,
                               std::vector<std::string> categories,
                               std::vector<std::string> series_labels,
                               const std::vector<TestResult>& results) {
  if (results.size() != categories.size() * series_labels.size()) {
    throw std::invalid_argument(
        strfmt("figure %s: %zu results != %zu categories x %zu series", id.c_str(),
               results.size(), categories.size(), series_labels.size()));
  }
  FigureSpec fig;
  fig.id = id;
  fig.title = title;
  fig.categories = std::move(categories);
  for (std::size_t s = 0; s < series_labels.size(); ++s) {
    PlotSeries ps;
    ps.label = series_labels[s];
    for (std::size_t c = 0; c < fig.categories.size(); ++c) {
      const auto& r = results[s * fig.categories.size() + c];
      ps.values.push_back(r.avg_gbps);
      ps.errors.push_back(r.stdev_gbps);
    }
    fig.series.push_back(std::move(ps));
  }
  return fig;
}

}  // namespace dtnsim::harness

#include "dtnsim/harness/dataset.hpp"

#include <algorithm>
#include <utility>

#include "dtnsim/util/csv.hpp"
#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::harness {

void Dataset::add(const TestResult& result) { results_.push_back(result); }

std::string Dataset::raw_csv() const {
  CsvWriter csv({"test", "repeat", "throughput_gbps"});
  for (const auto& r : results_) {
    for (std::size_t i = 0; i < r.samples_gbps.size(); ++i) {
      csv.add_row({r.name, strfmt("%zu", i), strfmt("%.4f", r.samples_gbps[i])});
    }
  }
  return csv.str();
}

std::string Dataset::summary_csv() const {
  CsvWriter csv({"test", "repeats", "avg_gbps", "min_gbps", "max_gbps", "stdev_gbps",
                 "retransmits", "snd_cpu_pct", "rcv_cpu_pct"});
  for (const auto& r : results_) {
    csv.add_row({r.name, strfmt("%d", r.repeats), strfmt("%.3f", r.avg_gbps),
                 strfmt("%.3f", r.min_gbps), strfmt("%.3f", r.max_gbps),
                 strfmt("%.3f", r.stdev_gbps), strfmt("%.0f", r.avg_retransmits),
                 strfmt("%.1f", r.snd_cpu_pct), strfmt("%.1f", r.rcv_cpu_pct)});
  }
  return csv.str();
}

Json Dataset::to_json() const {
  Json root = Json::object();
  root["dataset"] = name_;
  Json tests = Json::array();
  for (const auto& r : results_) tests.push_back(wire::to_json(r));
  root["tests"] = std::move(tests);
  return root;
}

bool Dataset::write_to(const std::string& dir) const {
  const std::string base = dir + "/" + name_;
  return write_file(base + "_raw.csv", raw_csv()) &&
         write_file(base + "_summary.csv", summary_csv()) &&
         write_file(base + ".json", to_json().dump(2) + "\n");
}

std::optional<report::Figure> bar_chart(const std::string& title,
                                        const std::vector<TestSpec>& specs,
                                        const std::vector<TestResult>& results) {
  if (specs.empty() || specs.size() != results.size()) return std::nullopt;
  // Series and paths in order of first appearance; each cell's pair of them.
  std::vector<std::string> series, paths;
  const auto index_of = [](std::vector<std::string>& names, std::string name) {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
    names.push_back(std::move(name));
    return names.size() - 1;
  };
  std::vector<std::pair<std::size_t, std::size_t>> at;
  for (const auto& spec : specs) {
    const std::string& path = spec.path.name;
    if (spec.name.size() <= path.size() + 1 || !spec.name.ends_with(" " + path)) {
      return std::nullopt;
    }
    at.emplace_back(index_of(series, spec.name.substr(0, spec.name.size() - path.size() - 1)),
                    index_of(paths, path));
  }
  // As many cells as pairs, so a pair met twice leaves another one empty.
  if (series.size() * paths.size() != specs.size()) return std::nullopt;
  std::vector<const TestResult*> grid(specs.size(), nullptr);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TestResult*& cell = grid[at[i].first * paths.size() + at[i].second];
    if (cell) return std::nullopt;
    cell = &results[i];
  }

  report::Figure fig;
  fig.title = title;
  fig.size = "960,540";
  fig.setup = {"set ylabel 'Throughput (Gbps)'",      "set style data histogram",
               "set style histogram errorbars gap 2 lw 1", "set style fill solid 0.8 border -1",
               "set key outside top center horizontal",  "set yrange [0:*]",
               "set grid ytics"};
  fig.decimals = 4;
  fig.columns = {"category"};
  for (std::size_t s = 0; s < series.size(); ++s) {
    fig.columns.insert(fig.columns.end(), {series[s], "err"});
    fig.curves.push_back({strfmt("using %zu:%zu:xtic(1)", 2 + 2 * s, 3 + 2 * s), series[s]});
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::vector<report::PlotCell> row{paths[p]};
    for (std::size_t s = 0; s < series.size(); ++s) {
      const TestResult& r = *grid[s * paths.size() + p];
      row.insert(row.end(), {r.avg_gbps, r.stdev_gbps});
    }
    fig.rows.push_back(std::move(row));
  }
  return fig;
}

}  // namespace dtnsim::harness

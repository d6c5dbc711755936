#include "dtnsim/obs/probe.hpp"

#include <algorithm>
#include <fstream>

#include "dtnsim/util/csv.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {

std::size_t SeriesTable::column_index(const std::string& name) const {
  const auto it = std::find(columns.begin(), columns.end(), name);
  return it == columns.end() ? static_cast<std::size_t>(-1)
                             : static_cast<std::size_t>(it - columns.begin());
}

std::vector<double> SeriesTable::column(const std::string& name) const {
  std::vector<double> out;
  const std::size_t idx = column_index(name);
  if (idx == static_cast<std::size_t>(-1)) return out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row[idx]);
  return out;
}

double SeriesTable::max_of(const std::string& name) const {
  double best = 0.0;
  for (double v : column(name)) best = std::max(best, v);
  return best;
}

std::string SeriesTable::to_csv() const {
  CsvWriter csv(columns);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (double v : row) cells.push_back(strfmt("%.6g", v));
    csv.add_row(cells);
  }
  return csv.str();
}

std::string SeriesTable::to_jsonl() const {
  std::string out;
  for (const auto& row : rows) {
    out += "{";
    for (std::size_t c = 0; c < columns.size() && c < row.size(); ++c) {
      if (c) out += ",";
      out += strfmt("\"%s\":%.6g", columns[c].c_str(), row[c]);
    }
    out += "}\n";
  }
  return out;
}

std::string merged_series_csv(const std::vector<LabeledSeries>& series) {
  std::vector<std::string> headers{"test", "repeat"};
  for (const auto& s : series) {
    if (s.series && !s.series->columns.empty()) {
      headers.insert(headers.end(), s.series->columns.begin(), s.series->columns.end());
      break;
    }
  }
  CsvWriter csv(headers);
  for (const auto& s : series) {
    if (!s.series) continue;
    for (const auto& row : s.series->rows) {
      std::vector<std::string> cells{s.test, strfmt("%d", s.repeat)};
      for (double v : row) cells.push_back(strfmt("%.6g", v));
      csv.add_row(cells);
    }
  }
  return csv.str();
}

bool write_merged_series_csv(const std::string& path,
                             const std::vector<LabeledSeries>& series) {
  std::ofstream out(path);
  if (!out) return false;
  out << merged_series_csv(series);
  return static_cast<bool>(out);
}

}  // namespace dtnsim::obs

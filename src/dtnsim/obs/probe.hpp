// The probe series: the simulator's `iperf3 -i 1`.
//
// A SeriesTable holds one row per probe sample, one column per registry
// metric. obs::Sampler (sampler.hpp) takes the rows on the engine clock at
// TelemetryConfig::probe_interval; its header has the rule for what a
// sample at t sees of the model events at t.
#pragma once

#include <string>
#include <vector>

namespace dtnsim::obs {

// A rectangular time series: one row per probe firing, one column per
// metric (plus the leading "time_s" column).
struct SeriesTable {
  std::vector<std::string> columns;        // includes "time_s" first
  std::vector<std::vector<double>> rows;   // rows[i].size() == columns.size()

  bool empty() const { return rows.empty(); }
  std::size_t column_index(const std::string& name) const;  // npos if absent
  // All values of one column, in time order.
  std::vector<double> column(const std::string& name) const;
  double max_of(const std::string& name) const;

  std::string to_csv() const;
  // One JSON object per line ({"time_s":..., "<metric>":...}).
  std::string to_jsonl() const;
};

// RunRecord's "series" block: columns plus row-major rows (util/fields.hpp).
template <class V>
void fields(V& v, SeriesTable& t) {
  v("columns", t.columns);
  v("rows", t.rows);
}

// Merge labelled per-repeat series into one CSV with leading `test` and
// `repeat` columns (the shape dtnsim-repro and --metrics-out emit).
struct LabeledSeries {
  std::string test;
  int repeat = 0;
  const SeriesTable* series = nullptr;
};
std::string merged_series_csv(const std::vector<LabeledSeries>& series);
bool write_merged_series_csv(const std::string& path,
                             const std::vector<LabeledSeries>& series);

}  // namespace dtnsim::obs

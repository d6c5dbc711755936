// Per-flow probe: the simulator's `iperf3 -i 1`.
//
// A self-rescheduling engine event samples every metric in a Registry at a
// fixed simulated-time interval and appends the values to a SeriesTable.
// Sampling happens on the engine clock *after* same-timestamp model events
// (events fire in scheduling order), so a sample reflects the tick that
// just completed. Optionally mirrors key series into a TraceSink as chrome
// counter tracks so Perfetto plots them alongside the instant events.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/obs/trace.hpp"
#include "dtnsim/sim/engine.hpp"

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
  bool write_csv(const std::string& path) const;
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

class FlowProbe {
 public:
  // `registry` must outlive the probe. `trace` may be null (no mirroring).
  FlowProbe(Registry* registry, Nanos interval, TraceSink* trace = nullptr);

  Nanos interval() const { return interval_; }
  std::size_t samples_taken() const { return table_.rows.size(); }
  const SeriesTable& series() const { return table_; }

  // Schedule sampling on `engine` at interval, 2*interval, ... <= horizon.
  // `pre_sample` (optional) runs before each snapshot so the owner can
  // refresh derived gauges.
  void arm(sim::Engine& engine, Nanos horizon,
           std::function<void(Nanos)> pre_sample = {});

  // Take one sample immediately at time `now` (also used by arm()).
  void sample(Nanos now);

  // Consistency hook, run after each sample lands (Telemetry installs one
  // that asserts the probe's counters and the latest same-timestamp ss
  // snapshot report identical delivered-byte totals). May throw.
  void set_cross_check(std::function<void(Nanos)> fn) {
    cross_check_ = std::move(fn);
  }

 private:
  Registry* registry_;
  TraceSink* trace_;
  Nanos interval_;
  SeriesTable table_;
  std::function<void(Nanos)> pre_sample_;
  std::function<void(Nanos)> cross_check_;
  std::shared_ptr<std::function<void()>> fire_;  // owner of the sampler event
};

}  // namespace dtnsim::obs

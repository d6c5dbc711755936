// Raw data release (the paper publishes everything it collected; the
// harness can do the same). A Dataset collects TestResults and renders
// them as CSV (one row per repeat plus a summary table) and JSON;
// bar_chart draws them the way the paper's figures do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dtnsim/harness/runner.hpp"
#include "dtnsim/report/plot.hpp"
#include "dtnsim/util/json.hpp"

namespace dtnsim::harness {

class Dataset {
 public:
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  void add(const TestResult& result);

  const std::string& name() const { return name_; }
  std::size_t size() const { return results_.size(); }

  // One row per (test, repeat): test,repeat,gbps.
  std::string raw_csv() const;
  // One row per test: test,repeats,avg,min,max,stdev,retr,snd_cpu,rcv_cpu.
  std::string summary_csv() const;
  // Each test as its name, repeats and RunSummary fields (one key list
  // with RunRecords, cache entries and campaign rows).
  Json to_json() const;

  // Write <dir>/<name>_raw.csv, <name>_summary.csv, <name>.json.
  bool write_to(const std::string& dir) const;

 private:
  std::string name_;
  std::vector<TestResult> results_;
};

// The paper's bar chart of cells named "<series> <path name>" (the
// registry's convention): one group of bars per path, one bar per series,
// each the cell's mean with a stddev whisker. results[i] is specs[i]'s. No
// figure unless every (series, path) pair is exactly one cell.
std::optional<report::Figure> bar_chart(const std::string& title,
                                        const std::vector<TestSpec>& specs,
                                        const std::vector<TestResult>& results);

}  // namespace dtnsim::harness

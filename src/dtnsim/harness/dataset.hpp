// Raw data release (the paper publishes everything it collected; the
// harness can do the same). A Dataset collects TestResults and renders
// them as CSV (one row per repeat plus a summary table) and JSON.
#pragma once

#include <string>
#include <vector>

#include "dtnsim/harness/runner.hpp"
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

}  // namespace dtnsim::harness

#include "dtnsim/harness/dataset.hpp"

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
  for (const auto& r : results_) {
    Json t = wire::to_json(static_cast<const report::RunSummary&>(r));
    t["name"] = r.name;
    t["repeats"] = r.repeats;
    tests.push_back(std::move(t));
  }
  root["tests"] = std::move(tests);
  return root;
}

bool Dataset::write_to(const std::string& dir) const {
  const std::string base = dir + "/" + name_;
  return write_file(base + "_raw.csv", raw_csv()) &&
         write_file(base + "_summary.csv", summary_csv()) &&
         write_file(base + ".json", to_json().dump(2) + "\n");
}

}  // namespace dtnsim::harness

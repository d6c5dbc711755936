// Unit tests: the raw-data release (Dataset CSV/JSON writers).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dtnsim/harness/dataset.hpp"

namespace dtnsim::harness {
namespace {

TestResult fake_result(const std::string& name, std::vector<double> samples) {
  TestResult r;
  r.name = name;
  r.repeats = static_cast<int>(samples.size());
  r.samples_gbps = std::move(samples);
  RunningStats s;
  for (double x : r.samples_gbps) s.add(x);
  r.avg_gbps = s.mean();
  r.min_gbps = s.min();
  r.max_gbps = s.max();
  r.stdev_gbps = s.stddev();
  r.avg_retransmits = 123;
  r.snd_cpu_pct = 45.0;
  r.rcv_cpu_pct = 99.0;
  return r;
}

TEST(Dataset, RawCsvOneRowPerRepeat) {
  Dataset ds("fig5");
  ds.add(fake_result("default LAN", {55.1, 54.2, 56.0}));
  ds.add(fake_result("zc+pace WAN", {49.9, 50.0}));
  const std::string csv = ds.raw_csv();
  EXPECT_NE(csv.find("test,repeat,throughput_gbps"), std::string::npos);
  EXPECT_NE(csv.find("default LAN,0,55.1000"), std::string::npos);
  EXPECT_NE(csv.find("zc+pace WAN,1,50.0000"), std::string::npos);
  // 1 header + 5 data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
}

TEST(Dataset, SummaryCsvOneRowPerTest) {
  Dataset ds("tbl");
  ds.add(fake_result("a", {10, 12}));
  ds.add(fake_result("b", {20, 22}));
  const std::string csv = ds.summary_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("a,2,11.000,10.000,12.000"), std::string::npos);
}

TEST(Dataset, JsonStructure) {
  Dataset ds("exp");
  ds.add(fake_result("x", {1, 2, 3}));
  const Json j = ds.to_json();
  ASSERT_NE(j.find("tests"), nullptr);
  EXPECT_EQ(j.find("tests")->size(), 1u);
  const std::string text = j.dump();
  EXPECT_NE(text.find("\"samples_gbps\":[1,2,3]"), std::string::npos);
  EXPECT_NE(text.find("\"avg_retransmits\":123"), std::string::npos);
}

TEST(Dataset, WritesFiles) {
  Dataset ds("unit_test_ds");
  ds.add(fake_result("t", {5.0}));
  ASSERT_TRUE(ds.write_to("/tmp"));
  for (const char* suffix : {"_raw.csv", "_summary.csv", ".json"}) {
    const std::string path = std::string("/tmp/unit_test_ds") + suffix;
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << path;
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_FALSE(buf.str().empty());
    std::remove(path.c_str());
  }
}

TEST(Dataset, WriteToBadDirFails) {
  Dataset ds("nope");
  ds.add(fake_result("t", {1.0}));
  EXPECT_FALSE(ds.write_to("/nonexistent-dir-xyz"));
}

TEST(Dataset, EscapesCommasInNames) {
  Dataset ds("esc");
  ds.add(fake_result("LAN, tuned", {1.0}));
  EXPECT_NE(ds.raw_csv().find("\"LAN, tuned\""), std::string::npos);
}

}  // namespace
}  // namespace dtnsim::harness

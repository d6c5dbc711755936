// Unit tests: gnuplot figure emitters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dtnsim/harness/plot.hpp"

namespace dtnsim::harness {
namespace {

FigureSpec sample_fig() {
  FigureSpec fig;
  fig.id = "figX";
  fig.title = "Sample";
  fig.categories = {"LAN", "WAN 25ms"};
  fig.series = {{"default", {55.0, 36.0}, {1.2, 1.5}},
                {"zc+pace", {50.0, 49.5}, {0.1, 0.2}}};
  return fig;
}

TEST(Plot, DataLayout) {
  const std::string dat = to_gnuplot_data(sample_fig());
  EXPECT_NE(dat.find("\"LAN\"\t55.0000\t1.2000\t50.0000\t0.1000"), std::string::npos);
  EXPECT_NE(dat.find("\"WAN 25ms\"\t36.0000\t1.5000\t49.5000\t0.2000"),
            std::string::npos);
}

TEST(Plot, ScriptReferencesAllSeries) {
  const std::string gp = to_gnuplot_script(sample_fig());
  EXPECT_NE(gp.find("set terminal pngcairo size 960,540 noenhanced\n"), std::string::npos);
  EXPECT_NE(gp.find("set output 'figX.png'"), std::string::npos);
  EXPECT_NE(gp.find("histogram errorbars"), std::string::npos);
  EXPECT_NE(gp.find("using 2:3:xtic(1) title 'default'"), std::string::npos);
  EXPECT_NE(gp.find("using 4:5:xtic(1) title 'zc+pace'"), std::string::npos);
}

TEST(Plot, WritesFiles) {
  ASSERT_TRUE(write_figure(sample_fig(), "/tmp"));
  for (const char* suffix : {".dat", ".gp"}) {
    const std::string path = std::string("/tmp/figX") + suffix;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::remove(path.c_str());
  }
  EXPECT_FALSE(write_figure(sample_fig(), "/no-such-dir-xyz"));
}

TEST(Plot, FromResultsRowMajor) {
  std::vector<TestResult> results(4);
  results[0].avg_gbps = 1;  // series A, cat 0
  results[1].avg_gbps = 2;  // series A, cat 1
  results[2].avg_gbps = 3;  // series B, cat 0
  results[3].avg_gbps = 4;
  results[3].stdev_gbps = 0.5;
  const auto fig =
      figure_from_results("f", "t", {"c0", "c1"}, {"A", "B"}, results);
  ASSERT_EQ(fig.series.size(), 2u);
  EXPECT_EQ(fig.series[0].values, (std::vector<double>{1, 2}));
  EXPECT_EQ(fig.series[1].values, (std::vector<double>{3, 4}));
  EXPECT_DOUBLE_EQ(fig.series[1].errors[1], 0.5);
}

TEST(Plot, FromResultsSizeMismatchThrows) {
  EXPECT_THROW(figure_from_results("f", "t", {"c0"}, {"A", "B"}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dtnsim::harness

// Unit tests: the gnuplot writer (report/plot.hpp) and the figures it is
// filled in with: the paper's bar charts (harness::bar_chart), a run
// record's series and a campaign's cells.
#include <gtest/gtest.h>

#include <filesystem>

#include "dtnsim/harness/dataset.hpp"
#include "dtnsim/report/plot.hpp"
#include "dtnsim/util/file.hpp"

namespace dtnsim::harness {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dtnsim_plot_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TestSpec cell(const std::string& series, const std::string& path) {
  TestSpec spec;
  spec.name = series + " " + path;
  spec.path.name = path;
  return spec;
}

TestResult result(double avg, double stdev = 0.0) {
  TestResult r;
  r.avg_gbps = avg;
  r.stdev_gbps = stdev;
  return r;
}

// Two series over two paths, listed series by series.
report::Figure sample_fig() {
  const auto fig = bar_chart(
      "Sample", {cell("default", "LAN"), cell("default", "WAN 25ms"), cell("zc+pace", "LAN"),
                 cell("zc+pace", "WAN 25ms")},
      {result(55.0, 1.2), result(36.0, 1.5), result(50.0, 0.1), result(49.5, 0.2)});
  EXPECT_TRUE(fig.has_value());
  return fig.value_or(report::Figure{});
}

// Writes `fig` as <dir>/<name> and returns the .dat and .gp texts.
std::pair<std::string, std::string> written(const report::Figure& fig, const std::string& dir,
                                            const std::string& name) {
  const std::string base = dir + "/" + name;
  EXPECT_EQ(report::write_figure(base, fig), "");
  return {read_file(base + ".dat").value_or(""), read_file(base + ".gp").value_or("")};
}

TEST(Plot, DataLayout) {
  const auto [dat, gp] = written(sample_fig(), scratch_dir("layout"), "figX");
  EXPECT_EQ(dat,
            "# Sample\n"
            "# category\tdefault\terr\tzc+pace\terr\n"
            "LAN\t55.0000\t1.2000\t50.0000\t0.1000\n"
            "WAN 25ms\t36.0000\t1.5000\t49.5000\t0.2000\n");
}

TEST(Plot, ScriptReferencesAllSeries) {
  const auto [dat, gp] = written(sample_fig(), scratch_dir("series"), "figX");
  EXPECT_NE(gp.find("set terminal pngcairo size 960,540 noenhanced\n"), std::string::npos);
  EXPECT_NE(gp.find("set output 'figX.png'\n"), std::string::npos);
  EXPECT_NE(gp.find("set datafile separator \"\\t\"\n"), std::string::npos);
  EXPECT_NE(gp.find("histogram errorbars"), std::string::npos);
  EXPECT_NE(gp.find("plot 'figX.dat' using 2:3:xtic(1) title 'default', \\\n"),
            std::string::npos);
  EXPECT_NE(gp.find("     '' using 4:5:xtic(1) title 'zc+pace'\n"), std::string::npos);
}

TEST(Plot, WritesFilesAndNamesTheOneItCannotWrite) {
  const std::string dir = scratch_dir("writes");
  // The script names its .dat and .png by file name alone.
  const auto [dat, gp] = written(sample_fig(), dir, "figX");
  EXPECT_EQ(gp.find(dir), std::string::npos) << gp;
  EXPECT_EQ(report::render_command(dir + "/figX"), "cd " + dir + " && gnuplot figX.gp");
  EXPECT_EQ(report::render_command("figX"), "gnuplot figX.gp");

  EXPECT_EQ(report::write_figure(dir + "/no-such-dir/figX", sample_fig()),
            dir + "/no-such-dir/figX.dat");
  fs::create_symlink("/dev/full", dir + "/full.gp");
  EXPECT_EQ(report::write_figure(dir + "/full", sample_fig()), dir + "/full.gp");
}

TEST(Plot, BarChartAssemblesRowMajor) {
  const std::vector<TestSpec> specs{cell("A", "c0"), cell("A", "c1"), cell("B", "c0"),
                                    cell("B", "c1")};
  const std::vector<TestResult> results{result(1), result(2), result(3), result(4, 0.5)};
  const auto fig = bar_chart("t", specs, results);
  ASSERT_TRUE(fig);
  EXPECT_EQ(fig->columns, (std::vector<std::string>{"category", "A", "err", "B", "err"}));
  const std::vector<std::vector<report::PlotCell>> rows{{"c0", 1.0, 0.0, 3.0, 0.0},
                                                        {"c1", 2.0, 0.0, 4.0, 0.5}};
  EXPECT_EQ(fig->rows, rows);

  // The same cells listed path by path give the same figure.
  const auto by_path = bar_chart("t", {specs[0], specs[2], specs[1], specs[3]},
                                 {results[0], results[2], results[1], results[3]});
  ASSERT_TRUE(by_path);
  EXPECT_EQ(by_path->rows, rows);
}

TEST(Plot, BarChartNeedsASeriesByPathGrid) {
  EXPECT_FALSE(bar_chart("t", {cell("A", "c0"), cell("B", "c0")}, {result(1)}));  // size mismatch
  EXPECT_FALSE(bar_chart("t", {}, {}));
  TestSpec unnamed = cell("A", "c0");
  unnamed.name = "c0";  // not "<series> <path>"
  EXPECT_FALSE(bar_chart("t", {unnamed}, {result(1)}));
  // Three of a 2 x 2 grid, and a pair met twice.
  EXPECT_FALSE(bar_chart("t", {cell("A", "c0"), cell("A", "c1"), cell("B", "c0")},
                         {result(1), result(2), result(3)}));
  EXPECT_FALSE(bar_chart("t", {cell("A", "c0"), cell("A", "c1"), cell("B", "c0"), cell("A", "c0")},
                         {result(1), result(2), result(3), result(4)}));
}

TEST(Plot, QuotesDoubleInEveryFigureKind) {
  const std::string dir = scratch_dir("quotes");
  const auto bars = bar_chart("it's", {cell("zc's", "LAN")}, {result(1)});
  ASSERT_TRUE(bars);
  report::RunRecord rec;
  rec.meta.name = "it's";
  Json row = Json::object();
  row["name"] = std::string("cell's");
  const std::vector<std::pair<std::string, report::Figure>> figures{
      {"bars", *bars},
      {"record", report::record_figure(rec)},
      {"campaign", report::campaign_figure("it's", {row})}};
  for (const auto& [name, fig] : figures) {
    const std::string gp = written(fig, dir, "o'" + name).second;
    EXPECT_NE(gp.find("set title 'it''s'\n"), std::string::npos) << name << ":\n" << gp;
    EXPECT_NE(gp.find("set output 'o''" + name + ".png'\n"), std::string::npos) << gp;
    EXPECT_NE(gp.find("plot 'o''" + name + ".dat' "), std::string::npos) << gp;
  }
  EXPECT_NE(written(*bars, dir, "bars").second.find("title 'zc''s'\n"), std::string::npos);
}

}  // namespace
}  // namespace dtnsim::harness

// The one gnuplot writer. Every figure dtnsim draws — the paper's bar charts
// (dtnsim-repro, harness::bar_chart), a run's goodput series
// (dtnsim-report --plot) and a campaign's cells (dtnsim-sweep --plot-out) —
// is a Figure that write_figure turns into <base>.dat and <base>.gp.
//
// The .dat is tab-separated: a "# <title>" line, a "# <column names>" line,
// then one line per row. The .gp names its .dat and its .png by file name
// alone, so the pair renders from its own directory wherever it is moved:
//   cd fig && gnuplot run.gp    # writes fig/run.png
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "dtnsim/report/record.hpp"

namespace dtnsim::report {

// A .dat cell: a number, written with the figure's `decimals`, or a label.
using PlotCell = std::variant<double, std::string>;

// One plotted data set: its columns and style ("using 1:2 with lines"),
// and its legend entry.
struct Curve {
  std::string spec;
  std::string title;
};

struct Figure {
  std::string title;
  std::string size;                // pngcairo canvas, "width,height"
  std::vector<std::string> setup;  // gnuplot lines between the title and the plot
  std::vector<std::string> columns;         // the .dat header
  std::vector<std::vector<PlotCell>> rows;  // the .dat lines
  int decimals = 6;
  std::vector<Curve> curves;  // every curve reads the .dat
};

// Writes <base>.dat, then <base>.gp, through util::write_file. Returns the
// path of the first file it could not write; "" when both were written.
std::string write_figure(const std::string& base, const Figure& fig);

// The one way to render what write_figure(base, ...) wrote:
// "cd DIR && gnuplot NAME.gp", or "gnuplot NAME.gp" when base has no DIR.
std::string render_command(const std::string& base);

// A run's goodput series, with its scenario episode marked.
Figure record_figure(const RunRecord& record);

// A campaign's cells from its JSONL rows: one error-bar point per cell, plus
// the dip and cycles/byte overlays when any row carries those columns.
Figure campaign_figure(const std::string& title, const std::vector<Json>& rows);

}  // namespace dtnsim::report

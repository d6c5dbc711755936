#include "dtnsim/util/table.hpp"

#include <algorithm>

namespace dtnsim {
namespace {

// Terminal columns of a UTF-8 cell ("±" is two bytes, one column).
std::size_t width(const std::string& cell) {
  return static_cast<std::size_t>(std::count_if(
      cell.begin(), cell.end(), [](char c) { return (c & 0xC0) != 0x80; }));
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(Row{std::move(cells), false});
}

void Table::add_separator() { rows_.push_back(Row{{}, true}); }

std::vector<std::size_t> Table::column_widths() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = width(headers_[c]);
  for (const auto& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], width(row.cells[c]));
    }
  }
  return widths;
}

std::string Table::to_ascii() const {
  const auto widths = column_widths();
  auto hline = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      s += " " + cell + std::string(widths[c] - width(cell), ' ') + " |";
    }
    s += "\n";
    return s;
  };
  std::string out = hline() + line(headers_) + hline();
  for (const auto& row : rows_) {
    out += row.separator ? hline() : line(row.cells);
  }
  out += hline();
  return out;
}

std::string Table::to_markdown() const {
  const auto widths = column_widths();
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      s += " " + cell + std::string(widths[c] - width(cell), ' ') + " |";
    }
    s += "\n";
    return s;
  };
  std::string out = line(headers_);
  out += "|";
  for (auto w : widths) out += std::string(w + 2, '-') + "|";
  out += "\n";
  for (const auto& row : rows_) {
    if (!row.separator) out += line(row.cells);
  }
  return out;
}

}  // namespace dtnsim

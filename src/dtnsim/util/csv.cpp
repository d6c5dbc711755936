#include "dtnsim/util/csv.hpp"

namespace dtnsim {

CsvWriter::CsvWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void CsvWriter::add_row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

std::string CsvWriter::escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::str() const {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out += ',';
      out += escape(cells[i]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

}  // namespace dtnsim

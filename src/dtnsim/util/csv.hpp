// CSV emission for raw data release (the paper publishes all collected data;
// the harness can dump every repeat's measurements as CSV).
#pragma once

#include <string>
#include <vector>

namespace dtnsim {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void add_row(const std::vector<std::string>& cells);

  std::string str() const;

  static std::string escape(const std::string& field);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dtnsim

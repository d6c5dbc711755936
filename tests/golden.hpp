// The one golden-file comparison of the tests that pin a text surface in
// tests/golden/: cache keys, parsed command lines, JSON key schemas.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/util/file.hpp"

namespace dtnsim::golden {

inline bool comment(const std::string& line) { return line.starts_with("#"); }
inline bool blank(const std::string& line) { return line.empty(); }

// Compares `got` with tests/golden/<file> line by line, after dropping the
// golden lines `skip` matches, and names the first line that drifts: a
// golden line `got` lacks or differs from, or a line of `got` past the
// golden's end. A golden line that starts with `heading` titles the lines
// under it in the message. `regenerate` says when and how to update the file.
inline ::testing::AssertionResult matches(const std::string& got, const std::string& file,
                                          const std::string& regenerate,
                                          bool (*skip)(const std::string&) = nullptr,
                                          const std::string& heading = {}) {
  const std::string path = "tests/golden/" + file;
  const auto text = read_file(std::string(DTNSIM_SOURCE_DIR) + "/" + path);
  if (!text) return ::testing::AssertionFailure() << "missing " << path;
  std::istringstream want_lines(*text), got_lines(got);
  std::string w, g, under;
  const auto drift = [&](int n) {
    auto out = ::testing::AssertionFailure() << path << " line " << n;
    if (!under.empty()) out << " (under " << under << ")";
    return out;
  };
  int n = 0;
  while (std::getline(want_lines, w)) {
    ++n;
    if (skip && skip(w)) continue;
    if (!heading.empty() && w.starts_with(heading)) under = w;
    if (!std::getline(got_lines, g)) return drift(n) << " missing: " << w << "\n" << regenerate;
    if (g != w) {
      return drift(n) << " drifted\n  want: " << w << "\n  got:  " << g << "\n" << regenerate;
    }
  }
  if (std::getline(got_lines, g)) {
    return ::testing::AssertionFailure() << "not in " << path << ": " << g << "\n" << regenerate;
  }
  return ::testing::AssertionSuccess();
}

// The same, for one entry a line.
inline ::testing::AssertionResult matches(const std::vector<std::string>& got,
                                          const std::string& file, const std::string& regenerate,
                                          bool (*skip)(const std::string&) = nullptr) {
  std::string text;
  for (const auto& line : got) text += line + "\n";
  return matches(text, file, regenerate, skip);
}

}  // namespace dtnsim::golden
